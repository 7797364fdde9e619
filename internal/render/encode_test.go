package render

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"sync"
	"testing"

	"github.com/openstream/aftermath/internal/annotations"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/metrics"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/trace"
)

// PNG colour types, and where the IHDR chunk of a PNG stream keeps its
// bit depth and colour type (8 signature bytes, 8 of chunk header,
// width, height).
const (
	pngTruecolour      = 2
	pngIndexed         = 3
	pngTruecolourAlpha = 6
	ihdrDepth          = 24
	ihdrColourType     = 25
)

// roundTrip encodes fb, decodes the result and compares every pixel
// with fb.At. It returns the PNG's bit depth and colour type.
func roundTrip(t *testing.T, fb *Framebuffer) (depth, colourType byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := fb.EncodePNG(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	b := buf.Bytes()
	img, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got, want := img.Bounds(), image.Rect(0, 0, fb.W(), fb.H()); got != want {
		t.Fatalf("decoded bounds %v, want %v", got, want)
	}
	for y := 0; y < fb.H(); y++ {
		for x := 0; x < fb.W(); x++ {
			got := color.RGBAModel.Convert(img.At(x, y)).(color.RGBA)
			if want := fb.At(x, y); got != want {
				t.Fatalf("pixel (%d,%d) decodes to %v, framebuffer holds %v", x, y, got, want)
			}
		}
	}
	return b[ihdrDepth], b[ihdrColourType]
}

// colourRamp returns a framebuffer holding exactly n distinct opaque
// colours, in runs of three pixels on every other row with the first
// colour on the rows between, so both the run shortcut and the table
// lookup are exercised.
func colourRamp(n int) *Framebuffer {
	nth := func(i int) color.RGBA {
		return color.RGBA{R: uint8(i), G: uint8(i>>8) * 40, B: 0x7f, A: 0xff}
	}
	fb := NewFramebuffer(48, 2*(n*3/48+1))
	fb.Clear(nth(0))
	for i := 1; i < n; i++ {
		p := 3 * i
		fb.FillRect(p%48, 2*(p/48), 3, 1, nth(i))
	}
	return fb
}

// distinctColours counts the colours a framebuffer holds.
func distinctColours(fb *Framebuffer) int {
	seen := map[color.RGBA]bool{}
	for y := 0; y < fb.H(); y++ {
		for x := 0; x < fb.W(); x++ {
			seen[fb.At(x, y)] = true
		}
	}
	return len(seen)
}

// TestEncodePNGRoundTrip: whatever EncodePNG writes — indexed at any
// bit depth or truecolour — decodes to the framebuffer's own pixels,
// for every view the server, the examples and internal/figs produce.
func TestEncodePNGRoundTrip(t *testing.T) {
	tr := atmtest.KMeansTrace(t, 8, 1000, 3, false)
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		t.Fatal("missing counter")
	}
	marks := &annotations.Set{}
	marks.Add(annotations.Annotation{Time: (tr.Span.Start + tr.Span.End) / 2, CPU: -1, Text: "global"})
	marks.Add(annotations.Annotation{Time: tr.Span.Start + (tr.Span.End-tr.Span.Start)/3, CPU: 2, Text: "row"})

	for mode := ModeState; mode <= ModeNUMAHeat; mode++ {
		for _, decorated := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/decorated=%v", mode, decorated), func(t *testing.T) {
				cfg := TimelineConfig{Width: 300, Height: 96, Mode: mode, Labels: true}
				fb, _, err := Timeline(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if decorated {
					OverlayCounter(fb, tr, cfg, OverlayConfig{Counter: c, Rate: true, Color: color.RGBA{0, 0xff, 0, 0xff}}, tr.CounterIndex())
					if OverlayAnnotations(fb, tr, cfg, marks) == 0 {
						t.Fatal("no annotation drawn")
					}
				}
				if _, ct := roundTrip(t, fb); ct != pngIndexed {
					t.Errorf("colour type %d, want indexed: a timeline has %d colours", ct, distinctColours(fb))
				}
			})
		}
	}

	t.Run("coarse tile", func(t *testing.T) {
		// What /render?w=900&level=3 rasterizes.
		fb, _, err := Timeline(tr, TimelineConfig{Width: 900 >> 3, Height: 380, Mode: ModeHeat, Labels: true})
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, fb)
	})

	t.Run("plot", func(t *testing.T) {
		fb, err := PlotSeries(PlotConfig{Width: 400, Height: 160, Title: "IDLE"},
			metrics.Series{Name: "a", Times: []int64{0, 10, 20, 30}, Values: []float64{0, 5, 2, 8}},
			metrics.Series{Name: "b", Times: []int64{0, 10, 20, 30}, Values: []float64{3, 1, 7, 4}})
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, fb)
	})

	t.Run("matrix", func(t *testing.T) {
		numa := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
		m := stats.CommMatrixOf(numa, stats.ReadsAndWrites, numa.Span.Start, numa.Span.End+1)
		fb := RenderMatrix(m, 12)
		if distinctColours(fb) < 4 {
			t.Fatal("matrix has no shaded cell")
		}
		roundTrip(t, fb)
	})

	// The encoder's bit-depth edges, and one colour too many for a
	// palette.
	for _, tc := range []struct {
		colours      int
		depth, ctype byte
	}{
		{1, 1, pngIndexed},
		{2, 1, pngIndexed},
		{3, 2, pngIndexed},
		{16, 4, pngIndexed},
		{17, 8, pngIndexed},
		{256, 8, pngIndexed},
		{257, 8, pngTruecolour},
		{700, 8, pngTruecolour},
	} {
		t.Run(fmt.Sprintf("colours=%d", tc.colours), func(t *testing.T) {
			fb := colourRamp(tc.colours)
			if n := distinctColours(fb); n != tc.colours {
				t.Fatalf("ramp holds %d colours, want %d", n, tc.colours)
			}
			depth, ctype := roundTrip(t, fb)
			if depth != tc.depth || ctype != tc.ctype {
				t.Errorf("bit depth %d colour type %d, want %d and %d", depth, ctype, tc.depth, tc.ctype)
			}
		})
	}

	// A colour that is not opaque has no place in the palette either.
	// PNG stores straight alpha, so the test keeps to premultiplied
	// colours that survive the conversion exactly: half-transparent
	// white and black, and transparent black.
	t.Run("transparent", func(t *testing.T) {
		fb := NewFramebuffer(8, 8)
		fb.Clear(color.RGBA{})
		if _, ct := roundTrip(t, fb); ct != pngTruecolourAlpha {
			t.Errorf("colour type %d, want truecolour with alpha", ct)
		}
	})
	t.Run("translucent among opaque", func(t *testing.T) {
		fb := colourRamp(5)
		fb.FillRect(7, 1, 9, 1, color.RGBA{0x80, 0x80, 0x80, 0x80})
		fb.FillRect(20, 0, 2, 2, color.RGBA{0, 0, 0, 0x80})
		if _, ct := roundTrip(t, fb); ct != pngTruecolourAlpha {
			t.Errorf("colour type %d, want truecolour with alpha", ct)
		}
	})
}

// TestEncodePNGDeterministic: the bytes depend on the pixels alone —
// the harness's served-equals-direct audit, hot_revisit's body
// equality and the singleflight followers rely on it — and an encode
// shares nothing with another, so it allocates per call, but not per
// row or per pixel.
func TestEncodePNGDeterministic(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	render := func(w, h int) *Framebuffer {
		fb, _, err := Timeline(tr, TimelineConfig{Width: w, Height: h, Mode: ModeType, Labels: true})
		if err != nil {
			t.Fatal(err)
		}
		return fb
	}
	encode := func(fb *Framebuffer) []byte {
		var buf bytes.Buffer
		if err := fb.EncodePNG(&buf); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	for _, fb := range []*Framebuffer{render(600, 200), colourRamp(300)} {
		want := encode(fb)
		if !bytes.Equal(encode(fb), want) {
			t.Fatal("second encode of one framebuffer differs from the first")
		}
		got := make([][]byte, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = encode(fb)
			}()
		}
		wg.Wait()
		for i, b := range got {
			if !bytes.Equal(b, want) {
				t.Errorf("goroutine %d encoded different bytes", i)
			}
		}
	}

	// 64 times the pixels and 8 times the rows must cost no more
	// allocations: what an encode allocates is the encoder's fixed
	// buffers plus a few objects per palette entry.
	small, large := render(150, 50), render(1200, 400)
	colours := distinctColours(large)
	if distinctColours(small) != colours {
		t.Fatalf("test images differ in palette: %d and %d colours", distinctColours(small), colours)
	}
	var out bytes.Buffer
	out.Grow(1 << 20)
	allocs := func(fb *Framebuffer) float64 {
		return testing.AllocsPerRun(10, func() {
			out.Reset()
			if err := fb.EncodePNG(&out); err != nil {
				t.Error(err)
			}
		})
	}
	a, b := allocs(small), allocs(large)
	if limit := float64(40 + 3*colours); b > limit {
		t.Errorf("encoding %d colours allocates %.0f objects, limit %.0f", colours, b, limit)
	}
	if b > a+2 {
		t.Errorf("allocations grow with image size: %.0f at 150x50, %.0f at 1200x400", a, b)
	}
}

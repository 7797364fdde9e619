package render

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/openstream/aftermath/internal/annotations"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
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
// with fb.At, and the IHDR's bit depth and colour type with the ones
// image/png picks for the same pixels. It returns the PNG's bit depth
// and colour type.
func roundTrip(t *testing.T, fb *Framebuffer) (depth, colourType byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := fb.EncodePNG(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	b := buf.Bytes()
	decodesTo(t, b, fb)
	if want := stdlibPNG(t, fb); b[ihdrDepth] != want[ihdrDepth] || b[ihdrColourType] != want[ihdrColourType] {
		t.Errorf("EncodePNG wrote bit depth %d, colour type %d; image/png writes %d, %d for the same pixels",
			b[ihdrDepth], b[ihdrColourType], want[ihdrDepth], want[ihdrColourType])
	}
	return b[ihdrDepth], b[ihdrColourType]
}

// decodesTo decodes the PNG b through image/png and compares its bounds
// and every pixel with fb's.
func decodesTo(t *testing.T, b []byte, fb *Framebuffer) {
	t.Helper()
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
}

// stdlibPNG is what image/png writes at BestSpeed for fb's pixels, read
// through At — as an image.Paletted with the palette in order of first
// appearance while fb is indexed, as an image.RGBA once it is not. Its
// header is the one EncodePNG's is held to, and its length the one
// EncodePNG's output is measured against.
// (Which of the two fb should be is not decided here:
// TestEncodePNGRoundTrip's table and TestFramebufferModel do that.)
func stdlibPNG(t *testing.T, fb *Framebuffer) []byte {
	t.Helper()
	bounds := image.Rect(0, 0, fb.W(), fb.H())
	indexed, rgba := image.NewPaletted(bounds, nil), image.NewRGBA(bounds)
	index := map[color.RGBA]uint8{}
	for y := 0; y < fb.H(); y++ {
		for x := 0; x < fb.W(); x++ {
			c := fb.At(x, y)
			rgba.SetRGBA(x, y, c)
			if _, ok := index[c]; !ok {
				index[c] = uint8(len(index)) // wraps past 256 colours, where indexed is not used
				indexed.Palette = append(indexed.Palette, c)
			}
			indexed.SetColorIndex(x, y, index[c])
		}
	}
	var img image.Image = rgba
	if !fb.truecolour {
		img = indexed
	}
	var buf bytes.Buffer
	if err := (&png.Encoder{CompressionLevel: png.BestSpeed}).Encode(&buf, img); err != nil {
		t.Fatalf("image/png: %v", err)
	}
	return buf.Bytes()
}

// colourRamp returns a framebuffer holding exactly n distinct opaque
// colours, in runs of three pixels on every other row with the first
// colour on the rows between, so both the run shortcut and the table
// lookup are exercised.
func colourRamp(n int) *Framebuffer { return colourRampWide(n, 48) }

// colourRampWide is colourRamp at a width of w pixels; a run that
// reaches the right edge is cut short there.
func colourRampWide(n, w int) *Framebuffer {
	fb := NewFramebuffer(w, 2*(n*3/w+1))
	fb.Clear(rampColour(0))
	for i := 1; i < n; i++ {
		p := 3 * i
		fb.FillRect(p%w, 2*(p/w), 3, 1, rampColour(i))
	}
	return fb
}

// rampColour is the ramp's i-th colour, distinct for i below 512.
func rampColour(i int) color.RGBA {
	return color.RGBA{R: uint8(i), G: uint8(i>>8) * 40, B: 0x7f, A: 0xff}
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

// TestEncodePNGMatchesStdlib: an indexed framebuffer decodes to its own
// pixels, under the bit depth and colour type image/png picks for them
// (roundTrip checks both, so every view of TestEncodePNGRoundTrip is
// held to it as well). Here: each side of every bit-depth edge, at
// widths whose rows end in a partly filled byte at 1, 2 and 4 bits a
// pixel — and rows of fewer than 3 bytes, which hold no match of the
// row above —, and a palette whose order of drawing is not its order
// of appearance and which holds entries that were painted over.
func TestEncodePNGMatchesStdlib(t *testing.T) {
	for _, colours := range []int{1, 2, 3, 4, 5, 16, 17, 256} {
		for _, w := range []int{1, 7, 47, 48, 49} {
			t.Run(fmt.Sprintf("colours=%d/w=%d", colours, w), func(t *testing.T) {
				fb := colourRampWide(colours, w)
				if n := distinctColours(fb); n != colours {
					t.Fatalf("ramp holds %d colours, want %d", n, colours)
				}
				if _, ct := roundTrip(t, fb); ct != pngIndexed {
					t.Errorf("colour type %d, want indexed", ct)
				}
			})
		}
	}
	// Scanlines of 257–263 bytes: a repeated one is a match of 258 and
	// a remainder of 0–5 bytes, and one of 259–261 splits so that no
	// piece is shorter than 3. The first row, of one colour, is a run
	// of 256–262 bytes, cut the same way.
	for w := 256; w <= 262; w++ {
		t.Run(fmt.Sprintf("stripes/w=%d", w), func(t *testing.T) {
			fb := NewFramebuffer(w, 5)
			for i := 1; i < 17; i++ {
				fb.FillRect(w-2*i, 1, 1, 4, rampColour(i))
			}
			if depth, _ := roundTrip(t, fb); depth != 8 {
				t.Errorf("bit depth %d, want 8", depth)
			}
		})
	}
	// A scanline longer than deflate's 32 KiB window has no row above
	// to copy from, repeated or not; runs still reach.
	t.Run("wider than the window", func(t *testing.T) {
		fb := NewFramebuffer(window+5, 4)
		for i := 1; i < 17; i++ {
			fb.FillRect(2000*i, 0, 1000, 4, rampColour(i))
		}
		fb.FillRect(0, 2, 40, 1, rampColour(5))
		if depth, _ := roundTrip(t, fb); depth != 8 {
			t.Errorf("bit depth %d, want 8", depth)
		}
	})
	t.Run("drawn in another order", func(t *testing.T) {
		fb := NewFramebuffer(31, 9)
		for i := 0; i < 20; i++ { // later colours further left, the first six painted over
			fb.FillRect(30-i, 0, 1, 9, color.RGBA{R: uint8(10 * i), G: 0x33, B: uint8(i), A: 0xff})
		}
		fb.FillRect(25, 0, 6, 9, color.RGBA{R: 0xee, A: 0xff})
		if depth, _ := roundTrip(t, fb); depth != 4 {
			t.Errorf("bit depth %d for %d colours, want 4: painted-over entries must not count", depth, distinctColours(fb))
		}
	})
}

// fuzzFramebuffer builds the picture FuzzEncodePNG encodes from data:
// 1–70 pixels wide, 1–24 high, of 1–257 ramp colours; the first row
// runs of one colour, every further row the one above with up to 15
// pixels changed. The framebuffer is cleared to the last colour and
// drawn from the bottom right, so its palette is not in order of
// appearance and may hold an entry no pixel does. Missing bytes read
// as zero.
func fuzzFramebuffer(data []byte) *Framebuffer {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	w, h := 1+next()%70, 1+next()%24
	colours := 1 + (next()|next()<<8)%257
	run := 1 + next()%8
	px := make([]int, w*h)
	for x := range w {
		px[x] = x / run % colours
	}
	for y := 1; y < h; y++ {
		row := px[y*w : (y+1)*w]
		copy(row, px[(y-1)*w:])
		for k := next() % 16; k > 0; k-- {
			row[next()%w] = (next() | next()<<8) % colours
		}
	}
	fb := NewFramebuffer(w, h)
	fb.Clear(rampColour(colours - 1))
	for i := len(px) - 1; i >= 0; i-- {
		fb.FillRect(i%w, i/w, 1, 1, rampColour(px[i]))
	}
	return fb
}

// FuzzEncodePNG: whatever the width — a multiple of 8 or not —, the
// palette size and how each row differs from the one above, what
// EncodePNG writes decodes to the framebuffer's pixels under the
// header image/png picks. The rows reach blocks equal to the one
// above, whole rows equal to the one above, runs, first appearances in
// the tail past the last whole block, and colours whose only block
// differs from the one above by a pixel; the 257th colour reaches the
// truecolour path.
func FuzzEncodePNG(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, fuzzFramebuffer(data))
	})
}

// plainImage is the model a Framebuffer is checked against: an
// image.RGBA written a pixel at a time, the operation counter, and
// the colours that have reached a pixel since the last opaque clear —
// which is all that decides when a Framebuffer stops being indexed.
type plainImage struct {
	img        *image.RGBA
	ops        int
	drawn      map[color.RGBA]bool
	truecolour bool
}

func (m *plainImage) set(x, y int, c color.RGBA) {
	if !image.Pt(x, y).In(m.img.Rect) {
		return
	}
	m.img.SetRGBA(x, y, c)
	m.drawn[c] = true
	m.truecolour = m.truecolour || c.A != 0xff || len(m.drawn) > 256
}

func (m *plainImage) fill(x, y, w, h int, c color.RGBA) {
	if image.Rect(x, y, x+w, y+h).Intersect(m.img.Rect).Empty() || w <= 0 || h <= 0 {
		return
	}
	m.ops++
	for yy := y; yy < y+h; yy++ {
		for xx := x; xx < x+w; xx++ {
			m.set(xx, yy, c)
		}
	}
}

func (m *plainImage) clear(c color.RGBA) {
	if !m.truecolour && c.A == 0xff {
		clear(m.drawn)
	}
	m.fill(0, 0, m.img.Rect.Dx(), m.img.Rect.Dy(), c)
}

// line is Bresenham's, one set per point.
func (m *plainImage) line(x0, y0, x1, y1 int, c color.RGBA) {
	m.ops++
	dx, dy := abs(x1-x0), -abs(y1-y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	for e := dx + dy; ; {
		m.set(x0, y0, c)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * e
		if e2 >= dy {
			e += dy
			x0 += sx
		}
		if e2 <= dx {
			e += dx
			y0 += sy
		}
	}
}

func (m *plainImage) text(x, y int, s string, c color.RGBA) {
	for _, r := range s {
		if r >= 'a' && r <= 'z' {
			r += 'A' - 'a'
		}
		g := glyphs['?']
		if r >= 0 && r < 128 && (r == ' ' || glyphs[r] != [7]byte{}) {
			g = glyphs[r]
		}
		m.ops++
		for row, bits := range g {
			for col := 0; col < 5; col++ {
				if bits&(0x10>>col) != 0 {
					m.set(x+col, y+row, c)
				}
			}
		}
		x += GlyphWidth
	}
}

// TestFramebufferModel drives a Framebuffer and a plainImage through
// seeded random sequences of every drawing primitive — coordinates
// negative and overhanging included — with colours from pools of 3, 40
// and 300, and a pool with a few translucent ones. After every step
// every pixel, the operation count and the representation agree: the
// framebuffer turns truecolour exactly when the model has drawn its
// 257th distinct or its first non-opaque colour since the last opaque
// clear. What it encodes decodes to the model.
//
// Seeds 1–12 start from NewFramebuffer, seeds 13–18 from a Timeline
// tile, whose scanlines share their row's runs, and its model drawn as
// drawTile draws it: labels overhanging the gutter (CPU 1048576), rows
// one pixel high, a typemap of up to 255 types (near 256 colours), and
// NUMA heat. A draw into one scanline of a row must not reach the
// others that share its runs.
func TestFramebufferModel(t *testing.T) {
	translucent := []color.RGBA{{0x80, 0x80, 0x80, 0x80}, {0, 0, 0, 0x80}, {}}
	fuzzed := func(config ...byte) func() (*core.Trace, TimelineConfig) {
		return func() (*core.Trace, TimelineConfig) { return fuzzTimeline(t, fuzzSeed(config...)) }
	}
	tiles := map[int64]func() (*core.Trace, TimelineConfig){
		13: fuzzed(89, 0, 119, 0, 9, 0, 0, 0, 0, 0, 6, 2), // state, 90x120, 17 rows, CPU 1048576 labelled
		14: fuzzed(69, 0, 3, 2, 9, 0, 0, 0, 0, 3, 0, 4),   // typemap, 70x4: rows 1 high
		15: fuzzed(43, 1, 23, 2, 9, 0, 0, 0, 0, 6, 2, 4),  // typemap of 255 types, 300x24, CPU 12345 labelled
		16: fuzzed(99, 0, 24, 5, 9, 0, 1, 40, 2, 0, 3, 3), // numa-heat, 100x25, a window
		17: fuzzed(59, 0, 19, 1, 5, 0, 0, 0, 0, 0, 5, 4),  // heatmap, 60x20
		18: func() (*core.Trace, TimelineConfig) { // 250 colours of 250 types, and 2 more
			return typesTrace(t, 250), TimelineConfig{Width: 300, Height: 12, Mode: ModeType, Labels: true}
		},
	}
	for seed := int64(1); seed <= 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]color.RGBA, []int{3, 40, 300, 40}[seed%4])
		// Long enough for the pool of 300 to put its 257th colour on
		// screen; clears stop after the first quarter so that it does.
		steps := 8*len(pool) + 200
		for i := range pool {
			pool[i] = color.RGBA{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(4)), A: 0xff}
		}
		if seed%4 == 3 {
			pool = append(pool, translucent...)
		}
		w, h := 1+rng.Intn(40), 1+rng.Intn(30)
		fb := NewFramebuffer(w, h)
		m := &plainImage{img: image.NewRGBA(image.Rect(0, 0, w, h)), drawn: map[color.RGBA]bool{}}
		m.clear(Background)
		m.ops = 0
		if start, ok := tiles[seed]; ok {
			tr, cfg := start()
			var err error
			if fb, _, err = Timeline(tr, cfg); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			w, h, m = cfg.Width, cfg.Height, tileModel(t, tr, cfg)
		}

		// agree checks every pixel, the operation count and the
		// representation against the model.
		agree := func(step int, what string, c color.RGBA) {
			if fb.Ops != m.ops {
				t.Fatalf("seed %d step %d (%s): %d operations counted, model has %d", seed, step, what, fb.Ops, m.ops)
			}
			if got := fb.truecolour; got != m.truecolour {
				t.Fatalf("seed %d step %d (%s of %v): truecolour=%v with %d colours drawn since the last clear, model says %v",
					seed, step, what, c, got, len(m.drawn), m.truecolour)
			}
			for py := -1; py <= h; py++ {
				for px := -1; px <= w; px++ {
					// Outside, both read the zero colour.
					if got, want := fb.At(px, py), m.img.RGBAAt(px, py); got != want {
						t.Fatalf("seed %d step %d (%s): pixel (%d,%d) = %v, model has %v", seed, step, what, px, py, got, want)
					}
				}
			}
		}
		agree(-1, "the start", Background)
		roundTrip(t, fb)
		for step := 0; step < steps; step++ {
			// Colours come round in pool order, give or take: a random
			// pick would take thousands of steps to show 257 of 300.
			c := pool[(step+rng.Intn(3))%len(pool)]
			// Points up to a third of the picture outside it.
			mx, my := w/3+2, h/3+2
			x, y := rng.Intn(w+2*mx)-mx, rng.Intn(h+2*my)-my
			x1, y1 := rng.Intn(w+2*mx)-mx, rng.Intn(h+2*my)-my
			var what string
			switch op := rng.Intn(40); {
			case op == 0 && step < steps/4:
				what = "Clear"
				fb.Clear(c)
				m.clear(c)
			case op < 14:
				what = "FillRect"
				rw, rh := rng.Intn(w+5)-2, rng.Intn(h+5)-2
				fb.FillRect(x, y, rw, rh, c)
				m.fill(x, y, rw, rh, c)
			case op < 20:
				what = "HLine"
				fb.HLine(x, x1, y, c)
				m.fill(min(x, x1), y, abs(x1-x)+1, 1, c)
			case op < 26:
				what = "VLine"
				fb.VLine(x, y, y1, c)
				m.fill(x, min(y, y1), 1, abs(y1-y)+1, c)
			case op < 34:
				what = "Line"
				fb.Line(x, y, x1, y1, c)
				m.line(x, y, x1, y1, c)
			default:
				what = "DrawText"
				s := []string{"CPU 12", "r2=0.5", "é~", ""}[rng.Intn(4)]
				fb.DrawText(x, y, s, c)
				m.text(x, y, s, c)
			}
			agree(step, what, c)
			if step%100 == 99 {
				roundTrip(t, fb)
				if !bytes.Equal(fb.RGBA().Pix, m.img.Pix) {
					t.Fatalf("seed %d step %d: RGBA() differs from the model", seed, step)
				}
			}
		}
		if seed%4 >= 2 && !m.truecolour {
			t.Errorf("seed %d: a pool of %d colours never left the palette of a %dx%d framebuffer in %d steps (%d drawn)", seed, len(pool), w, h, steps, len(m.drawn))
		}
	}

	// An empty framebuffer is image/png's to refuse, by name.
	var invalid png.FormatError
	if err := NewFramebuffer(0, 0).EncodePNG(&bytes.Buffer{}); !errors.As(err, &invalid) || !strings.Contains(err.Error(), "invalid image size: 0x0") {
		t.Errorf("0x0 framebuffer: EncodePNG = %v, want image/png's invalid image size", err)
	}
}

// TestEncodePNGDeterministic: the bytes depend on the pixels alone —
// the harness's served-equals-direct audit, hot_revisit's body
// equality and the singleflight followers rely on it — however many
// encodes run at once, and an encode allocates per call, but not per
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

// TestPNGBytes: PNGBytes returns what EncodePNG writes, in a slice of
// exactly its length, for a tile whose compressed pixels fit one IDAT
// chunk, a noisy picture that takes several, and a truecolour picture.
// TestPNGTailAllocs (internal/ui) pins what the body costs.
func TestPNGBytes(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	tile, _, err := Timeline(tr, TimelineConfig{Width: 1000, Height: 400, Mode: ModeState, Labels: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	noisy := NewFramebuffer(400, 200)
	for y := range noisy.H() {
		for x := range noisy.W() {
			noisy.FillRect(x, y, 1, 1, rampColour(rng.Intn(16)))
		}
	}
	for _, c := range []struct {
		name      string
		fb        *Framebuffer
		minChunks int
	}{
		{"tile", tile, 1},
		{"noisy", noisy, 3},
		{"truecolour", colourRamp(300), 1},
	} {
		var want bytes.Buffer
		if err := c.fb.EncodePNG(&want); err != nil {
			t.Fatal(err)
		}
		got, err := c.fb.PNGBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) || cap(got) != len(got) {
			t.Errorf("%s: PNGBytes returned %d bytes (room for %d), EncodePNG wrote %d, not the same",
				c.name, len(got), cap(got), want.Len())
		}
		if n := bytes.Count(got, []byte("IDAT")); n < c.minChunks {
			t.Errorf("%s: %d IDAT chunks, the case wants at least %d", c.name, n, c.minChunks)
		}
	}
}

// TestEncodePNGAllocatedBytes: the deflater holds its block on the
// stack and allocates two rows and an IDAT buffer, so 16 encodes of a
// 1000x400 timeline allocate less in all than the one zlib compressor
// each encode allocated before.
func TestEncodePNGAllocatedBytes(t *testing.T) {
	const compressor = 1200 << 10
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	fb, _, err := Timeline(tr, TimelineConfig{Width: 1000, Height: 400, Mode: ModeState, Labels: true})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.Grow(1 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 16 {
		out.Reset()
		if err := fb.EncodePNG(&out); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= compressor {
		t.Errorf("16 encodes allocated %d bytes, not less than one zlib compressor's %d", got, compressor)
	}
}

// TestEncodePNGSize: over the six timeline modes of a NUMA trace at
// 1000x400 and a plot, EncodePNG writes no more bytes in all than
// image/png does at BestSpeed.
func TestEncodePNGSize(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	var (
		fbs   []*Framebuffer
		names []string
	)
	for mode := ModeState; mode <= ModeNUMAHeat; mode++ {
		fb, _, err := Timeline(tr, TimelineConfig{Width: 1000, Height: 400, Mode: mode, Labels: true})
		if err != nil {
			t.Fatal(err)
		}
		fbs, names = append(fbs, fb), append(names, mode.String())
	}
	plot, err := PlotSeries(PlotConfig{Width: 800, Height: 220, Title: "IDLE"},
		metrics.Series{Name: "a", Times: []int64{0, 10, 20, 30, 40}, Values: []float64{0, 5, 2, 8, 3}},
		metrics.Series{Name: "b", Times: []int64{0, 10, 20, 30, 40}, Values: []float64{3, 1, 7, 4, 6}})
	if err != nil {
		t.Fatal(err)
	}
	fbs, names = append(fbs, plot), append(names, "plot")
	var got, want int
	for i, fb := range fbs {
		var buf bytes.Buffer
		if err := fb.EncodePNG(&buf); err != nil {
			t.Fatal(err)
		}
		decodesTo(t, buf.Bytes(), fb)
		ref := len(stdlibPNG(t, fb))
		t.Logf("%s: %d bytes, image/png %d", names[i], buf.Len(), ref)
		got, want = got+buf.Len(), want+ref
	}
	if got > want {
		t.Errorf("EncodePNG wrote %d bytes in all, image/png %d", got, want)
	}
}

// TestEncodeWorkTracksRuns: the deflater reads byte runs, not bytes,
// and a scanline equal to the one above, or the part of one it shares
// with the one above, not at all; so a tile's encode work follows its
// runs and its distinct scanlines. A zoomed tile four times as wide
// shows the same states in as many runs, and one four times as tall
// the same rows, labels included, in four times the scanlines; a
// cleared framebuffer of one colour is two runs, the filter byte of its
// empty head and its shared run, on the one scanline that differs from
// the one above it. The first tile of a shape (cold), which records
// its label gutter's code, reads every run an encode without the gutter
// reads; the second (warm) reads, of each head, only the runs past
// where its cached tokens end.
func TestEncodeWorkTracksRuns(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	span := tr.Span.Duration()
	work := func(w, h int) (int, Stats) {
		start := tr.Span.Start + span/3
		cfg := TimelineConfig{Width: w, Height: h, Mode: ModeState, Labels: true, Start: start, End: start + span/64}
		resetGutters()
		var runs [2]int
		var st Stats
		for i, gutter := range []string{"cold", "warm"} {
			fb, s, err := Timeline(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n, err := encodeWork(fb)
			if err != nil {
				t.Fatal(err)
			}
			_, live, err := encodeLive(fb)
			if err != nil {
				t.Fatal(err)
			}
			// Warm, each scanline tokenized, not repeated, starts
			// reading its head where its cached tokens end.
			gc, cached := fb.gutter.codes[0], 0
			for y := range fb.lines {
				if y == 0 || !gc.lines[y].same || !sameTail(fb.lines[y].tail, fb.lines[y-1].tail) {
					cached += int(gc.lines[y].at.c)
				}
			}
			if gutter == "cold" {
				cached = 0
			}
			if gc.lines[h-1].toks == 0 || n != live-cached {
				t.Errorf("%dx%d, %s gutter: %d runs read, want %d: %d without the gutter, less %d its code read",
					w, h, gutter, n, live-cached, live, cached)
			}
			runs[i], st = n, s
		}
		return runs[1], st
	}
	narrow, st := work(1000, 400)
	wide, wst := work(4000, 400)
	if st.Rects != wst.Rects {
		t.Fatalf("%d runs at width 1000 and %d at 4000: the tiles do not show the same states", st.Rects, wst.Rects)
	}
	if narrow == 0 || float64(wide) > 1.2*float64(narrow) {
		t.Errorf("encoding read %d runs at 1000x400 and %d at 4000x400: more than 1.2 times for 4 times the pixels", narrow, wide)
	}
	if tall, _ := work(1000, 1600); float64(tall) > 1.1*float64(narrow) {
		t.Errorf("encoding read %d runs at 1000x400 and %d at 1000x1600: more than 1.1 times for 4 times the scanlines", narrow, tall)
	}
	t.Logf("%d runs tokenized for %d rectangles at 1000x400, %d at 4000x400", narrow, st.Rects, wide)

	flat := NewFramebuffer(1000, 400)
	flat.Clear(rampColour(3))
	if got, err := encodeWork(flat); err != nil || got != 2 {
		t.Errorf("a framebuffer of one colour: %d runs tokenized (%v), want 2", got, err)
	}

	// Two scanlines of one row share its 500 runs: the second reads its
	// own head, and the row's runs not at all.
	partOf := func(runs ...byteRun) part {
		a, b, n := runSums(runs)
		return part{runs, a, b, n}
	}
	var row []byteRun
	for i := range 500 {
		row = append(row, byteRun{int32(1 + i%3), byte(i % 7)})
	}
	first := scanline{head: partOf(byteRun{1, 0}, byteRun{4, 9}), tail: partOf(row...), key: 3}
	second := scanline{head: partOf(byteRun{3, 0}, byteRun{1, 5}, byteRun{1, 9}), tail: first.tail, key: 3}
	d := rowDeflater{e: chunkWriter{w: io.Discard}, n: first.head.n + first.tail.n}
	d.start(nil)
	d.line(&first, nil)
	before := d.runs
	if d.line(&second, &first); d.runs-before > len(second.head.runs)+1 {
		t.Errorf("a scanline sharing its row's %d runs with the one above read %d runs, its head holds %d", len(row), d.runs-before, len(second.head.runs))
	}
}

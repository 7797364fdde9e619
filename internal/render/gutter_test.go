package render

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/trace"
)

// encoded returns fb's PNG bytes.
func encoded(t *testing.T, fb *Framebuffer) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := fb.EncodePNG(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestGutterDrawnOver: a rectangle filled across the label gutter of a
// warm tile, left of its label scanlines' cut, draws into that tile
// alone. The gutter's heads are unchanged, the tile encodes as the
// same picture drawn from NewFramebuffer, and the next tile of the
// shape encodes to the bytes a cold gutter gives.
func TestGutterDrawnOver(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	cfg := TimelineConfig{Width: 500, Height: 160, Mode: ModeState, Labels: true}
	resetGutters()
	cold := encoded(t, mustTimeline(t, tr, cfg))

	fb := mustTimeline(t, tr, cfg)
	gt := fb.gutter
	if gt == nil {
		t.Fatal("a labelled tile has no gutter")
	}
	heads := slices.Clone(gt.runs)
	fb.FillRect(3, 2, 30, 40, StateColor(trace.StateIdle))
	if fb.gutter != nil {
		t.Error("the tile drawn over keeps its gutter")
	}
	drawn := NewFramebuffer(cfg.Width, cfg.Height)
	drawTile(t, tr, cfg, drawn.DrawText, drawn.FillRect)
	drawn.FillRect(3, 2, 30, 40, StateColor(trace.StateIdle))
	if !bytes.Equal(encoded(t, fb), encoded(t, drawn)) {
		t.Error("the tile drawn over encodes otherwise than the same picture drawn")
	}
	if !slices.Equal(gt.runs, heads) {
		t.Fatal("drawing into a tile wrote to its gutter's heads")
	}
	if next := encoded(t, mustTimeline(t, tr, cfg)); !bytes.Equal(next, cold) {
		t.Error("the next tile of the shape encodes otherwise than the first")
	}
}

// mustTimeline returns the tile Timeline makes of tr under cfg.
func mustTimeline(t *testing.T, tr *core.Trace, cfg TimelineConfig) *Framebuffer {
	t.Helper()
	fb, _, err := Timeline(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

// farCPUTrace is a trace of CPUs 3, 12345 and 1048575, each idle for
// ten cycles: the labels of the last two overhang the gutter.
func farCPUTrace(t *testing.T) *core.Trace {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, cpu := range []int32{3, 12345, trace.MaxCPUID} {
		if err := w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: 0, End: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGutterConcurrentFirstTiles: eight goroutines render and encode the
// first tiles of a shape no tile had, so they build its gutter and
// codes at once (the race detector watches); their bytes agree with
// each other and with an encode that uses no gutter.
func TestGutterConcurrentFirstTiles(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	cfg := TimelineConfig{Width: 433, Height: 171, Mode: ModeType, Labels: true}
	resetGutters()
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fb, _, err := Timeline(tr, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			var b bytes.Buffer
			if err := fb.EncodePNG(&b); err != nil {
				t.Error(err)
			}
			got[i] = b.Bytes()
		}()
	}
	wg.Wait()
	want, _, err := encodeLive(mustTimeline(t, tr, cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("goroutine %d encoded other bytes", i)
		}
	}
}

// TestGutterLivePath: a tile whose labels overhang the gutter, a tile
// drawn into after Timeline (the counter overlay), and the first plain
// tile of a shape, which records the gutter's code, read as many byte
// runs as an encode that uses no gutter: they take the live path. The
// next plain tile reads fewer.
func TestGutterLivePath(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		t.Fatal("missing counter")
	}
	far := farCPUTrace(t)
	cfg := TimelineConfig{Width: 800, Height: 300, Mode: ModeState, Labels: true}
	resetGutters()
	overlaid := mustTimeline(t, tr, cfg)
	OverlayCounter(overlaid, tr, cfg, OverlayConfig{Counter: c, Rate: true, Color: CategoryColor(7)}, tr.CounterIndex())
	for _, tc := range []struct {
		name string
		fb   *Framebuffer
		live bool
	}{
		{"first plain", mustTimeline(t, tr, cfg), true},
		{"next plain", mustTimeline(t, tr, cfg), false},
		{"overlay", overlaid, true},
		{"far CPU ids", mustTimeline(t, far, cfg), true},
	} {
		n, err := encodeWork(tc.fb)
		if err != nil {
			t.Fatal(err)
		}
		_, live, err := encodeLive(tc.fb)
		if err != nil {
			t.Fatal(err)
		}
		if (n == live) != tc.live || n > live {
			t.Errorf("%s tile: %d byte runs read, %d without the gutter", tc.name, n, live)
		}
	}
}

// TestGutterCodes: tiles of one shape use its gutter across modes and
// windows, which number TextColor differently on the wire and pack at
// different bit depths; each encodes, warm, to the bytes of an encode
// that uses no gutter, and the shape holds a code for each numbering.
func TestGutterCodes(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	span := tr.Span.Duration()
	resetGutters()
	var gt *gutter
	for mode := ModeState; mode <= ModeNUMAHeat; mode++ {
		for _, part := range []int64{1, 3, 40, 700} {
			cfg := TimelineConfig{Width: 640, Height: 300, Mode: mode, Labels: true}
			if part > 1 {
				cfg.Start = tr.Span.Start + span/3
				cfg.End = cfg.Start + span/part
			}
			fb := mustTimeline(t, tr, cfg)
			if gt = fb.gutter; gt == nil {
				t.Fatal("a labelled tile has no gutter")
			}
			want, _, err := encodeLive(fb)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encoded(t, fb), want) {
				t.Errorf("%v tile at 1/%d of the span: the gutter's code encodes other bytes", mode, part)
			}
		}
	}
	texts := map[[2]uint]bool{}
	for _, gc := range gt.codes {
		texts[[2]uint{gc.depth, uint(gc.text)}] = true
	}
	depths := map[uint]bool{}
	for k := range texts {
		depths[k[0]] = true
	}
	if len(texts) <= len(depths) {
		t.Errorf("%d codes at %d bit depths: no depth numbers TextColor two ways", len(texts), len(depths))
	}
}

// TestGutterShapesStayWarm: the shapes a hub of two traces asks for,
// each as the viewer's page does (the exact 1100x420 tile and the coarse
// one a level of 3 makes, 137 wide), and one trace's first four CPUs
// alike, six shapes in all, stay in the cache as the windows move: past
// the first window, every tile finds its shape's gutter, and walking
// the windows again records no code.
func TestGutterShapesStayWarm(t *testing.T) {
	traces := []*core.Trace{atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA), noisyTrace(t, 24)}
	resetGutters()
	seen := map[*gutter]bool{}
	codes := func() (n int) {
		for gt := range seen {
			n += len(gt.codes)
		}
		return n
	}
	var walked [2]int
	for walk := range walked {
		for window := range int64(6) {
			for i, tr := range append(traces, traces[0]) {
				for _, w := range []int{1100, 1100 >> 3} {
					span := tr.Span.Duration()
					cfg := TimelineConfig{Width: w, Height: 420, Mode: ModeState, Labels: true,
						Start: tr.Span.Start + span/8*window, End: tr.Span.Start + span/8*(window+2)}
					if i == 2 {
						cfg.CPUs = []int32{0, 1, 2, 3}
					}
					fb := mustTimeline(t, tr, cfg)
					if (walk > 0 || window > 0) && !seen[fb.gutter] {
						t.Fatalf("walk %d, window %d, trace %d, %d wide: the tile's shape has no gutter kept", walk, window, i, w)
					}
					seen[fb.gutter] = true
					encoded(t, fb)
				}
			}
		}
		walked[walk] = codes()
	}
	if len(seen) != 6 || walked[1] != walked[0] {
		t.Errorf("%d gutters kept for 6 shapes; %d codes after the first walk, %d after the second", len(seen), walked[0], walked[1])
	}
}

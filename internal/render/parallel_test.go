package render

import (
	"bytes"
	"sync"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/trace"
)

// TestTimelineParallelMatchesSequential is the golden-image equality
// test: for every timeline mode, and for label/filter variations, the
// parallel renderer must produce a framebuffer byte-identical to the
// sequential one, with identical draw-call accounting.
func TestTimelineParallelMatchesSequential(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 8, 4, openstream.SchedRandom)
	f := filter.ByTypeNames(tr, "seidel_block")
	cfgs := []TimelineConfig{
		{Width: 640, Height: 200, Mode: ModeState},
		{Width: 640, Height: 200, Mode: ModeState, Labels: true},
		{Width: 400, Height: 37, Mode: ModeState, Labels: true}, // rowH < glyph height
		{Width: 640, Height: 200, Mode: ModeHeat},
		{Width: 640, Height: 200, Mode: ModeHeat, Filter: f, Shades: 5},
		{Width: 640, Height: 200, Mode: ModeType},
		{Width: 640, Height: 200, Mode: ModeNUMARead},
		{Width: 640, Height: 200, Mode: ModeNUMAWrite},
		{Width: 640, Height: 200, Mode: ModeNUMAHeat},
		// The same CPU twice: numa-heat's cursor is a row's, and the
		// sequential rendering walks both rows with one pixelizer.
		{Width: 640, Height: 200, Mode: ModeNUMAHeat, CPUs: []int32{3, 3, 1, 3}},
		{Width: 640, Height: 200, Mode: ModeNUMAHeat, CPUs: []int32{3, 3, 1, 3}, Filter: f},
	}
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		t.Fatal("missing branch-miss counter")
	}
	// sameRows reports whether rows a and b of a len(cfg.CPUs)-row
	// rendering hold the same pixels.
	sameRows := func(fb *Framebuffer, cfg TimelineConfig, a, b int) bool {
		pix, stride, rowH := fb.RGBA().Pix, fb.RGBA().Stride, fb.H()/len(cfg.CPUs)
		return bytes.Equal(pix[a*rowH*stride:(a+1)*rowH*stride], pix[b*rowH*stride:(b+1)*rowH*stride])
	}
	for _, cfg := range cfgs {
		seqFB, seqStats, err := timeline(tr, cfg, 1)
		if err != nil {
			t.Fatalf("%v sequential: %v", cfg.Mode, err)
		}
		for _, workers := range []int{2, 4, 8} {
			parFB, parStats, err := timeline(tr, cfg, workers)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", cfg.Mode, workers, err)
			}
			if !bytes.Equal(seqFB.RGBA().Pix, parFB.RGBA().Pix) {
				t.Errorf("mode %v labels=%v workers=%d: pixels differ from sequential rendering",
					cfg.Mode, cfg.Labels, workers)
			}
			if seqStats != parStats {
				t.Errorf("mode %v workers=%d: stats = %+v, want %+v", cfg.Mode, workers, parStats, seqStats)
			}
			if seqFB.Ops != parFB.Ops {
				t.Errorf("mode %v workers=%d: ops = %d, want %d", cfg.Mode, workers, parFB.Ops, seqFB.Ops)
			}
		}
		if cfg.CPUs == nil {
			continue
		}
		// A CPU selected twice renders twice the same, and so does its
		// overlay.
		for _, overlaid := range []bool{false, true} {
			if overlaid {
				OverlayCounter(seqFB, tr, cfg, OverlayConfig{Counter: c, Rate: true, Color: AnnotationColor}, tr.CounterIndex())
			}
			if !sameRows(seqFB, cfg, 0, 1) || !sameRows(seqFB, cfg, 0, 3) {
				t.Errorf("mode %v filter=%v overlay=%v: the rows of CPU 3, selected three times, differ", cfg.Mode, cfg.Filter != nil, overlaid)
			}
			if sameRows(seqFB, cfg, 0, 2) {
				t.Errorf("mode %v overlay=%v: CPU 3's row equals CPU 1's; the comparison above is vacuous", cfg.Mode, overlaid)
			}
		}
	}
}

// TestTimelineParallelZoomed checks byte-identity on a zoomed window
// with an explicit CPU subset (the interactive pan/zoom path).
func TestTimelineParallelZoomed(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 8, 4, openstream.SchedRandom)
	span := tr.Span.Duration()
	cfg := TimelineConfig{
		Width: 500, Height: 120,
		Start: tr.Span.Start + span/4,
		End:   tr.Span.End - span/4,
		CPUs:  []int32{0, 2, 3},
		Mode:  ModeState,
	}
	seqFB, seqStats, err := timeline(tr, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	parFB, parStats, err := timeline(tr, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqFB.RGBA().Pix, parFB.RGBA().Pix) || seqStats != parStats {
		t.Error("zoomed parallel rendering differs from sequential")
	}
}

// TestTimelineConcurrentRenders renders all six modes from concurrent
// goroutines sharing one trace and one counter index; under -race
// this proves rendering is safe for concurrent viewer requests.
func TestTimelineConcurrentRenders(t *testing.T) {
	tr := atmtest.KMeansTrace(t, 16, 200, 3, false)
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		t.Fatal("missing branch-miss counter")
	}
	ci := tr.CounterIndex()
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for round := 0; round < 4; round++ {
		for m := ModeState; m <= ModeNUMAHeat; m++ {
			wg.Add(1)
			go func(m Mode) {
				defer wg.Done()
				cfg := TimelineConfig{Width: 300, Height: 80, Mode: m}
				fb, _, err := Timeline(tr, cfg)
				if err != nil {
					errs <- err
					return
				}
				OverlayCounter(fb, tr, cfg, OverlayConfig{
					Counter: c, Rate: true, Color: CategoryColor(3),
				}, ci)
			}(m)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTimelineNUMAFirstUseConcurrent: eight goroutines render NUMA-read
// and NUMA-write tiles of a trace no one has asked before, so the first
// of them builds the per-task home rows while the others wait for them;
// under -race this proves the lazy build safe. Every tile must equal the
// same tile of a live snapshot of the run, which resolves each task's
// accesses per answer instead.
func TestTimelineNUMAFirstUseConcurrent(t *testing.T) {
	cold := atmtest.SeidelTrace(t, 8, 4, openstream.SchedRandom)
	live := atmtest.SeidelLiveTrace(t, 8, 4, openstream.SchedRandom, 4)
	mid := live.Span.Start + live.Span.Duration()/2
	var cfgs []TimelineConfig
	for _, mode := range []Mode{ModeNUMARead, ModeNUMAWrite} {
		cfgs = append(cfgs,
			TimelineConfig{Width: 300, Height: 80, Mode: mode},
			TimelineConfig{Width: 300, Height: 80, Mode: mode, Start: mid, End: mid + live.Span.Duration()/16})
	}
	want := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		fb, _, err := Timeline(live, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fb.RGBA().Pix
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cfgs {
				i := (g + k) % len(cfgs)
				fb, _, err := Timeline(cold, cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(fb.RGBA().Pix, want[i]) {
					t.Errorf("goroutine %d: %v tile over [%d, %d) differs from the live snapshot's", g, cfgs[i].Mode, cfgs[i].Start, cfgs[i].End)
				}
			}
		}()
	}
	wg.Wait()
}

package render

import (
	"bytes"
	"image/color"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/annotations"
	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/metrics"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/regress"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/trace"
)

func TestFramebufferBasics(t *testing.T) {
	fb := NewFramebuffer(10, 10)
	red := color.RGBA{0xff, 0, 0, 0xff}
	fb.FillRect(2, 3, 4, 5, red)
	if fb.At(2, 3) != red || fb.At(5, 7) != red {
		t.Error("fill rect missed interior")
	}
	if fb.At(1, 3) == red || fb.At(6, 3) == red {
		t.Error("fill rect leaked")
	}
	// Clipping.
	fb.FillRect(-5, -5, 100, 100, red)
	if fb.At(0, 0) != red || fb.At(9, 9) != red {
		t.Error("clipped fill missed corners")
	}
	fb.FillRect(20, 20, 5, 5, red) // fully off-screen: no panic
	fb.Line(-5, -5, 15, 15, red)   // clipped line: no panic
	if fb.At(5, 5) != red {
		t.Error("diagonal line missed")
	}
}

func TestPPMAndPNGOutput(t *testing.T) {
	fb := NewFramebuffer(4, 3)
	var ppm bytes.Buffer
	if err := fb.WritePPM(&ppm); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ppm.String(), "P6\n4 3\n255\n") {
		t.Errorf("PPM header wrong: %.20q", ppm.String())
	}
	if want := len("P6\n4 3\n255\n") + 4*3*3; ppm.Len() != want {
		t.Errorf("PPM size = %d, want %d", ppm.Len(), want)
	}
	var png bytes.Buffer
	if err := fb.EncodePNG(&png); err != nil {
		t.Fatal(err)
	}
	if png.Len() == 0 || !bytes.HasPrefix(png.Bytes(), []byte("\x89PNG")) {
		t.Error("PNG signature missing")
	}
}

func TestDrawText(t *testing.T) {
	fb := NewFramebuffer(100, 20)
	fb.DrawText(0, 0, "CPU 42", TextColor)
	found := false
	for y := 0; y < 8 && !found; y++ {
		for x := 0; x < 40 && !found; x++ {
			if fb.At(x, y) == TextColor {
				found = true
			}
		}
	}
	if !found {
		t.Error("text drew nothing")
	}
	if TextWidth("abc") != 3*GlyphWidth {
		t.Error("text width wrong")
	}
}

func TestPalettes(t *testing.T) {
	if HeatShade(0, 10) != (color.RGBA{255, 255, 255, 255}) {
		t.Errorf("heat 0 = %v, want white", HeatShade(0, 10))
	}
	dark := HeatShade(1, 10)
	if dark.R >= 200 || dark.G != 0 || dark.B != 0 {
		t.Errorf("heat 1 = %v, want dark red", dark)
	}
	// Quantization: nearby fractions share a shade.
	if HeatShade(0.52, 2) != HeatShade(0.9, 2) {
		t.Error("2-shade heatmap must merge upper half")
	}
	// NUMA heat: local is blue-ish, remote pink-ish.
	local, remote := NUMAHeatShade(0), NUMAHeatShade(1)
	if local.B <= local.R {
		t.Errorf("local shade %v not blue", local)
	}
	if remote.R <= remote.B {
		t.Errorf("remote shade %v not pink", remote)
	}
	// Category colors are distinct for small indexes.
	seen := map[color.RGBA]bool{}
	for i := 0; i < 16; i++ {
		c := CategoryColor(i)
		if seen[c] {
			t.Fatalf("category color %d duplicates an earlier one", i)
		}
		seen[c] = true
	}
	// Out-of-range clamps.
	_ = HeatShade(-1, 10)
	_ = HeatShade(2, 0)
	_ = NUMAHeatShade(-1)
	_ = NUMAHeatShade(2)
	_ = CategoryColor(-3)
}

func TestTimelineModes(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	for mode := ModeState; mode <= ModeNUMAHeat; mode++ {
		fb, st, err := Timeline(tr, TimelineConfig{Width: 200, Height: 64, Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if fb.W() != 200 || fb.H() != 64 {
			t.Fatalf("%v: wrong dimensions", mode)
		}
		if st.PixelColumns == 0 || st.Rects == 0 {
			t.Errorf("%v: no work done (%+v)", mode, st)
		}
		// Aggregation: rectangles must be fewer than pixel columns.
		if st.Rects >= st.PixelColumns {
			t.Errorf("%v: aggregation ineffective: %d rects for %d columns", mode, st.Rects, st.PixelColumns)
		}
		// Some non-background pixels must exist.
		nonBg := 0
		for y := 0; y < fb.H(); y++ {
			for x := 0; x < fb.W(); x++ {
				if fb.At(x, y) != Background {
					nonBg++
				}
			}
		}
		if nonBg == 0 {
			t.Errorf("%v: rendered nothing", mode)
		}
	}
}

func TestTimelineValidation(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 3, 2, openstream.SchedRandom)
	if _, _, err := Timeline(tr, TimelineConfig{Width: 0, Height: 10}); err == nil {
		t.Error("zero width accepted")
	}
	if _, _, err := Timeline(tr, TimelineConfig{Width: 1 << 31, Height: 10}); err == nil {
		t.Error("a width past 32-bit columns accepted")
	}
	if _, _, err := Timeline(tr, TimelineConfig{Width: 10, Height: 10, Start: 100, End: 50}); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, _, err := Timeline(tr, TimelineConfig{Width: 10, Height: 10, CPUs: []int32{}}); err == nil {
		t.Error("empty CPU set accepted")
	}
	if _, err := ParseMode("state"); err != nil {
		t.Error(err)
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode parsed")
	}
}

func TestAggregationReducesOps(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 6, 4, openstream.SchedRandom)
	cfg := TimelineConfig{Width: 300, Height: 64, Mode: ModeState}
	_, stOpt, err := Timeline(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, stNaive, err := NaiveTimelineState(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stOpt.Rects*2 >= stNaive.Rects {
		t.Errorf("optimized %d rects not well below naive %d", stOpt.Rects, stNaive.Rects)
	}
}

func TestHeatmapFilter(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedRandom)
	blocks := filter.ByTypeNames(tr, apps.SeidelBlockType)
	full, _, err := Timeline(tr, TimelineConfig{Width: 200, Height: 32, Mode: ModeHeat})
	if err != nil {
		t.Fatal(err)
	}
	filtered, _, err := Timeline(tr, TimelineConfig{Width: 200, Height: 32, Mode: ModeHeat, Filter: blocks})
	if err != nil {
		t.Fatal(err)
	}
	bg := func(fb *Framebuffer) int {
		n := 0
		for y := 0; y < fb.H(); y++ {
			for x := 0; x < fb.W(); x++ {
				if fb.At(x, y) == Background {
					n++
				}
			}
		}
		return n
	}
	if bg(filtered) <= bg(full) {
		t.Error("filtering must expose more background")
	}
}

// TestCounterOverlay: the naive overlay, the Section VI-B ablation's
// baseline, draws. (The optimized overlay is held to the oracle by
// internal/ui's TestServedEqualsOracle.)
func TestCounterOverlay(t *testing.T) {
	tr := atmtest.KMeansTrace(t, 8, 1000, 3, false)
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		t.Fatal("missing counter")
	}
	cfg := TimelineConfig{Width: 300, Height: 80, Mode: ModeHeat}
	fb, _, err := Timeline(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ci := tr.CounterIndex()
	olc := color.RGBA{0x00, 0xff, 0x00, 0xff}
	st := OverlayCounter(fb, tr, cfg, OverlayConfig{Counter: c, Rate: true, Color: olc, Naive: true}, ci)
	if st.Rects == 0 {
		t.Error("naive overlay drew nothing")
	}
}

// TestOverlayBelowFold: 64 CPUs at h=50 is one pixel a row and 50
// rows drawn — /render accepts it. What lies below the fold is not
// marked on some other CPU's row, not counted as drawn, and not
// queried.
func TestOverlayBelowFold(t *testing.T) {
	const nCPU, h = 64, 50
	tr := &core.Trace{CPUs: make([]core.CPUData, nCPU), Span: core.Interval{Start: 0, End: 1000}}
	for c := range tr.CPUs {
		tr.CPUs[c].ID = int32(c)
		tr.CPUs[c].States.Rows = []trace.StateEvent{{CPU: int32(c), State: trace.StateIdle, Start: 0, End: 1000}}
	}
	cfg := TimelineConfig{Width: 300, Height: h, Mode: ModeState, Labels: true}
	fb, _, err := Timeline(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	marked := func() (n int) {
		for y := 0; y < fb.H(); y++ {
			for x := 0; x < fb.W(); x++ {
				if fb.At(x, y) == AnnotationColor {
					n++
				}
			}
		}
		return n
	}
	below := &annotations.Set{}
	below.Add(annotations.Annotation{Time: 500, CPU: 60, Text: "below the fold"})
	if drawn := OverlayAnnotations(fb, tr, cfg, below); drawn != 0 || marked() != 0 {
		t.Errorf("annotation on CPU 60 of %d at h=%d: %d drawn, %d marker pixels; its row is not in the picture", nCPU, h, drawn, marked())
	}
	last := &annotations.Set{}
	last.Add(annotations.Annotation{Time: 500, CPU: h - 1, Text: "last visible row"})
	if drawn := OverlayAnnotations(fb, tr, cfg, last); drawn != 1 || marked() == 0 {
		t.Errorf("annotation on the last visible row: %d drawn, %d marker pixels", drawn, marked())
	}

	// The counter overlay: rows past the fold are not queried, and the
	// rows above it look as they do when nothing is below them.
	km := atmtest.KMeansTrace(t, 8, 1000, 3, false)
	c, ok := km.CounterByName(trace.CounterBranchMisses)
	if !ok {
		t.Fatal("missing counter")
	}
	cpus := make([]int32, nCPU)
	for i := range cpus {
		cpus[i] = int32(i % km.NumCPUs())
	}
	overlaid := func(cpus []int32) (*Framebuffer, Stats) {
		cfg := TimelineConfig{Width: 300, Height: h, Mode: ModeState, CPUs: cpus}
		fb, _, err := Timeline(km, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fb, OverlayCounter(fb, km, cfg, OverlayConfig{Counter: c, Rate: true, Color: AnnotationColor}, km.CounterIndex())
	}
	all, allStats := overlaid(cpus)
	top, topStats := overlaid(cpus[:h])
	if allStats.PixelColumns != h*300 || allStats != topStats {
		t.Errorf("overlay over %d CPUs at h=%d: stats %+v, want those of its %d visible rows %+v", nCPU, h, allStats, h, topStats)
	}
	if allStats.Rects == 0 || !bytes.Equal(all.RGBA().Pix, top.RGBA().Pix) {
		t.Errorf("overlay over %d CPUs differs from the overlay over the %d that fit (%d lines drawn)", nCPU, h, allStats.Rects)
	}
}

func TestRateTreeValues(t *testing.T) {
	tr := atmtest.KMeansTrace(t, 4, 500, 2, false)
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		t.Fatal("missing counter")
	}
	ci := tr.CounterIndex()
	for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
		tree := ci.RateTree(c, cpu)
		if tree.Len() == 0 {
			continue
		}
		mn, mx, ok := tree.MinMaxIndex(0, tree.Len())
		if !ok {
			continue
		}
		if mn < 0 {
			t.Errorf("cpu %d: negative misprediction rate %d", cpu, mn)
		}
		if mx == 0 {
			continue
		}
		// Rates are per kilocycle, fixed point; sanity bound: below
		// 1000 mispredictions per kilocycle.
		if float64(mx)/core.RateScale > 1000 {
			t.Errorf("cpu %d: absurd rate %f", cpu, float64(mx)/core.RateScale)
		}
	}
	// The index caches trees.
	if ci.RateTree(c, 0) != ci.RateTree(c, 0) {
		t.Error("rate tree not cached")
	}
	if ci.Tree(c, 0) != ci.Tree(c, 0) {
		t.Error("tree not cached")
	}
}

func TestPlotSeries(t *testing.T) {
	s := metrics.Series{
		Name:   "test",
		Times:  []int64{0, 10, 20, 30},
		Values: []float64{0, 5, 2, 8},
	}
	fb, err := PlotSeries(PlotConfig{Width: 200, Height: 100, Title: "IDLE"}, s)
	if err != nil {
		t.Fatal(err)
	}
	if fb.W() != 200 {
		t.Error("wrong size")
	}
	if _, err := PlotSeries(PlotConfig{}, s); err == nil {
		t.Error("zero dimensions accepted")
	}
	// Empty series: axes only, no crash.
	if _, err := PlotSeries(PlotConfig{Width: 100, Height: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPlotScatter(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	fit, err := regress.Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := PlotScatter(PlotConfig{Width: 200, Height: 150, Title: "FIG19"}, xs, ys, &fit)
	if err != nil {
		t.Fatal(err)
	}
	if fb.H() != 150 {
		t.Error("wrong size")
	}
	if _, err := PlotScatter(PlotConfig{Width: 100, Height: 100}, xs, ys[:2], nil); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestRenderMatrix(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	m := stats.CommMatrixOf(tr, stats.ReadsAndWrites, tr.Span.Start, tr.Span.End+1)
	fb := RenderMatrix(m, 12)
	if fb.W() < m.N*12 {
		t.Error("matrix framebuffer too small")
	}
}

// TestTimelineFarCPURow: a trace whose one state sits on the largest CPU
// id the decoder admits renders that CPU's row, and a timeline of every
// CPU — a million rows without states — still renders.
func TestTimelineFarCPURow(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := w.WriteState(trace.StateEvent{CPU: trace.MaxCPUID, State: trace.StateIdle, Start: 0, End: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fb, _, err := Timeline(tr, TimelineConfig{Width: 20, Height: 4, CPUs: []int32{trace.MaxCPUID}})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < fb.W(); x++ {
		if got := fb.At(x, 0); got != StateColor(trace.StateIdle) {
			t.Fatalf("pixel %d of the far CPU's row = %v, want the idle colour", x, got)
		}
	}
	if _, _, err := Timeline(tr, TimelineConfig{Width: 20, Height: 64}); err != nil {
		t.Fatalf("timeline of every CPU: %v", err)
	}
}

func TestASCIITimeline(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 2, openstream.SchedRandom)
	out := ASCIITimeline(tr, 60, 8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("rows = %d, want 8", len(lines))
	}
	for _, l := range lines {
		if len(l) != 60 {
			t.Fatalf("row width = %d, want 60", len(l))
		}
	}
	if !strings.Contains(out, "#") {
		t.Error("no task execution rendered")
	}
	if StateChar(trace.StateIdle) != '.' || StateChar(trace.WorkerState(99)) != '?' {
		t.Error("state chars wrong")
	}
}

package render

import (
	"bytes"
	"math"
	"testing"

	"github.com/openstream/aftermath/internal/annotations"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/metrics"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/trace"
)

// TestTimelineAllocations pins as counts what a tile allocates over a
// sixteenth of a 16×8 Seidel run's span — a state tile, a typemap tile
// plain and types= filtered — and over the whole span in the NUMA heat
// mode, without labels and with, rendered on one worker and on two: the
// framebuffer (its palette inside it), its scanlines, the type index
// and the rows' runs, nothing a query, a run or a pixel. A row's walk
// (core.DomRow) and its batch of runs live on rowRuns' stack; a walk or
// a batch that escaped would cost an allocation a row (+16 here). Each
// is pinned cold, the first tile of its shape, which draws its labels
// and keeps them as the shape's label gutter, and warm, the second,
// which copies the gutter's heads; without labels the two are one.
func TestTimelineAllocations(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 16, 8, openstream.SchedNUMA)
	span := tr.Span.Duration()
	start := tr.Span.Start + span/3
	for _, c := range []struct {
		mode                   Mode
		filtered, full, labels bool
		workers                int
		cold, warm             float64
	}{
		{ModeState, false, false, false, 1, 105, 105},
		{ModeState, false, false, false, 2, 110, 110},
		{ModeType, false, false, false, 1, 75, 75},
		{ModeType, false, false, false, 2, 80, 80},
		{ModeType, true, false, false, 1, 76, 76},
		{ModeType, true, false, false, 2, 81, 81},
		{ModeNUMAHeat, false, true, false, 1, 142, 142},
		{ModeNUMAHeat, false, true, false, 2, 147, 147},
		{ModeState, false, false, true, 1, 106, 102},
		{ModeState, false, false, true, 2, 111, 107},
		{ModeType, false, false, true, 1, 77, 73},
		{ModeType, false, false, true, 2, 82, 78},
		{ModeType, true, false, true, 1, 78, 74},
		{ModeType, true, false, true, 2, 83, 79},
		{ModeNUMAHeat, false, true, true, 1, 147, 143},
		{ModeNUMAHeat, false, true, true, 2, 152, 148},
	} {
		cfg := TimelineConfig{Width: 900, Height: 380, Mode: c.mode, Labels: c.labels, Start: start, End: start + span/16}
		if c.full {
			cfg.Start, cfg.End = 0, 0
		}
		if c.filtered {
			cfg.Filter = filter.ByTypeNames(tr, "seidel_block")
		}
		render := func() {
			if _, _, err := timeline(tr, cfg, c.workers); err != nil {
				t.Fatal(err)
			}
		}
		cold := testing.AllocsPerRun(10, func() {
			resetGutters()
			render()
		})
		if warm := testing.AllocsPerRun(10, render); cold != c.cold || warm != c.warm {
			t.Errorf("a %v tile (filtered %v, full span %v, labels %v) on %d workers allocates %.0f times cold and %.0f warm, want %.0f and %.0f",
				c.mode, c.filtered, c.full, c.labels, c.workers, cold, warm, c.cold, c.warm)
		}
	}
}

// TestDrawnAllocations pins as counts what a drawn picture allocates
// from its first drawing call to its PNG bytes: a 1000x400 state tile
// with labels on one worker, plain, with the counter overlay and with
// annotations, at the full span, an eighth and a sixty-fourth of a
// 16x8 Seidel run; the matrix of a 4x3 run at a cell of 14; and the
// 800x220 plot of the 16x8 run's idle workers. Drawing splices runs
// into scanlines whose heads are carved from a per-framebuffer arena,
// so a picture costs a handful of allocations, not one a scanline. A
// tile is pinned cold, the first of its shape, which keeps the label
// gutter (and, plain, records the gutter's code at the tile's bit
// depth), and warm, the second, which copies the gutter's heads. before
// is the count before label gutters were kept: a warm tile allocates no
// more, and a cold one at most one more (the cache's lists, made anew
// after the reset). The counts are the plain build's.
func TestDrawnAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves the encoder's buffers to the heap")
	}
	tr := atmtest.SeidelTrace(t, 16, 8, openstream.SchedNUMA)
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		t.Fatal("missing counter")
	}
	span := tr.Span.Duration()
	numa := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	m := stats.CommMatrixOf(numa, stats.ReadsAndWrites, numa.Span.Start, numa.Span.End+1)
	idle := metrics.WorkersInState(tr, trace.StateIdle, 200)
	var out bytes.Buffer
	out.Grow(1 << 20)
	encode := func(fb *Framebuffer) {
		out.Reset()
		if err := fb.EncodePNG(&out); err != nil {
			t.Fatal(err)
		}
	}
	const plain, overlay, annotated = 0, 1, 2
	tile := func(part int64, draw int) func() {
		cfg := TimelineConfig{Width: 1000, Height: 400, Mode: ModeState, Labels: true}
		if part > 1 {
			cfg.Start = tr.Span.Start + span/3
			cfg.End = cfg.Start + span/part
		}
		marks := &annotations.Set{}
		marks.Add(annotations.Annotation{Time: tr.Span.Start + span/3 + span/part/2, CPU: -1, Text: "global"})
		marks.Add(annotations.Annotation{Time: tr.Span.Start + span/3 + span/part/3, CPU: 2, Text: "row"})
		return func() {
			fb, _, err := timeline(tr, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			switch draw {
			case overlay:
				OverlayCounter(fb, tr, cfg, OverlayConfig{Counter: c, Rate: true, Color: CategoryColor(7)}, tr.CounterIndex())
			case annotated:
				if OverlayAnnotations(fb, tr, cfg, marks) == 0 {
					t.Fatal("no annotation drawn")
				}
			}
			encode(fb)
		}
	}
	for _, c := range []struct {
		name               string
		draw               func()
		cold, warm, before float64
	}{
		{"plain tile, full span", tile(1, plain), 110, 101, 109},
		{"plain tile, 1/8", tile(8, plain), 117, 108, 116},
		{"plain tile, 1/64", tile(64, plain), 94, 85, 93},
		{"overlay tile, full span", tile(1, overlay), 110, 107, 113},
		{"overlay tile, 1/8", tile(8, overlay), 116, 112, 118},
		{"overlay tile, 1/64", tile(64, overlay), 92, 89, 95},
		{"annotated tile, full span", tile(1, annotated), 111, 108, 116},
		{"annotated tile, 1/8", tile(8, annotated), 118, 115, 123},
		{"annotated tile, 1/64", tile(64, annotated), 95, 92, 99},
		{"matrix", func() { encode(RenderMatrix(m, 14)) }, 7, 7, 15},
		{"plot", func() {
			fb, err := PlotSeries(PlotConfig{Width: 800, Height: 220, Title: "IDLE"}, idle)
			if err != nil {
				t.Fatal(err)
			}
			encode(fb)
		}, 10, 10, 18},
	} {
		cold := testing.AllocsPerRun(10, func() {
			resetGutters()
			c.draw()
		})
		if warm := testing.AllocsPerRun(10, c.draw); cold != c.cold || warm != c.warm || cold > c.before+1 || warm > c.before {
			t.Errorf("%s allocates %.0f times cold and %.0f warm, want %.0f and %.0f (before label gutters: %.0f)", c.name, cold, warm, c.cold, c.warm, c.before)
		}
	}
}

// TestTypemapUndeclaredType: a task whose type the trace does not
// declare — an execution whose task record never arrived, on a trace
// whose types are 1 and 2 — is painted in the color of an unknown
// state, not in the first declared type's.
func TestTypemapUndeclaredType(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTaskType(trace.TaskType{ID: 1, Name: "alpha"}))
	must(w.WriteTaskType(trace.TaskType{ID: 2, Name: "beta"}))
	must(w.WriteTask(trace.Task{ID: 1, Type: 1}))
	must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Start: 0, End: 1000, Task: 1}))
	must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Start: 1000, End: 2000, Task: 2}))
	must(w.Flush())
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fb, _, err := Timeline(tr, TimelineConfig{Width: 200, Height: 8, Start: 0, End: 2000, Mode: ModeType})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fb.At(50, 0), CategoryColor(0); got != want {
		t.Errorf("task 1, of type alpha: %v, want alpha's %v", got, want)
	}
	if got, want := fb.At(150, 0), StateColor(trace.WorkerState(trace.NumWorkerStates)); got != want {
		t.Errorf("task 2, of no declared type: %v, want the unknown color %v (alpha's is %v)", got, want, CategoryColor(0))
	}
}

// TestTimelineExtremeTimestamps is the MaxInt64/2 regression test for
// the pixel->time mapping: with span*width > 2^63, the old
// span*x/width arithmetic wrapped and colored pixels from garbage
// windows. The trace has idle in its first half and task execution in
// its second; the naive and ASCII renderers must put them each on its
// side.
func TestTimelineExtremeTimestamps(t *testing.T) {
	base := int64(math.MaxInt64 / 2)
	span := int64(1) << 58
	mid := base + span/2
	tr := &core.Trace{
		CPUs: []core.CPUData{{States: core.Column[trace.StateEvent]{Rows: []trace.StateEvent{
			{CPU: 0, State: trace.StateIdle, Start: base, End: mid},
			{CPU: 0, State: trace.StateTaskExec, Task: 1, Start: mid, End: base + span},
		}}}},
		Span: core.Interval{Start: base, End: base + span},
	}
	// (Timeline's own tiles at such windows are held to the oracle by
	// internal/ui's TestServedEqualsOracle.) The naive ablation renderer
	// shares the overflow-prone mapping ((ev.Start-start)*width
	// overflows just the same).
	fb, _, err := NaiveTimelineState(tr, TimelineConfig{Width: 100, Height: 8, Mode: ModeState})
	if err != nil {
		t.Fatal(err)
	}
	if fb.At(25, 0) != StateColor(trace.StateIdle) || fb.At(75, 0) != StateColor(trace.StateTaskExec) {
		t.Error("naive renderer misplaced events at extreme timestamps")
	}

	// And the ASCII renderer (same per-pixel mapping).
	out := ASCIITimeline(tr, 60, 1)
	if out[10] != StateChar(trace.StateIdle) || out[50] != StateChar(trace.StateTaskExec) {
		t.Errorf("ASCII timeline misplaced events at extreme timestamps: %q", out)
	}

	// A span wider than 2^63-1 cycles maps to no column: Timeline and
	// the naive renderer refuse it with one error, and the ASCII
	// renderer draws nothing, as for an empty span.
	wide := &core.Trace{
		CPUs: []core.CPUData{{States: core.Column[trace.StateEvent]{Rows: []trace.StateEvent{
			{CPU: 0, State: trace.StateIdle, Start: math.MinInt64, End: math.MinInt64 + 10},
			{CPU: 0, State: trace.StateTaskExec, Task: 1, Start: math.MaxInt64 - 10, End: math.MaxInt64},
		}}}},
		Span: core.Interval{Start: math.MinInt64, End: math.MaxInt64},
	}
	cfg := TimelineConfig{Width: 100, Height: 8, Mode: ModeState}
	_, _, want := Timeline(wide, cfg)
	if want == nil {
		t.Fatal("Timeline drew a span more than 2^63-1 cycles wide")
	}
	if _, _, err := NaiveTimelineState(wide, cfg); err == nil || err.Error() != want.Error() {
		t.Errorf("naive renderer over a span more than 2^63-1 cycles wide: %v, want Timeline's %v", err, want)
	}
	if out := ASCIITimeline(wide, 60, 1); out != "" {
		t.Errorf("ASCII timeline over a span more than 2^63-1 cycles wide: %q, want none", out)
	}
}

// TestNaiveTimelineWindowStraddle: events overlapping the window
// bounds must clamp to it (not map to off-plot columns), and the
// naive renderer must honor the same label gutter as the optimized
// one, so the Section VI-B ablation compares like with like.
func TestNaiveTimelineWindowStraddle(t *testing.T) {
	tr := &core.Trace{
		CPUs: []core.CPUData{{States: core.Column[trace.StateEvent]{Rows: []trace.StateEvent{
			{CPU: 0, State: trace.StateIdle, Start: 0, End: 1000},
			{CPU: 0, State: trace.StateTaskExec, Task: 1, Start: 1000, End: 2000},
		}}}},
		Span: core.Interval{Start: 0, End: 2000},
	}
	cfg := TimelineConfig{
		Width: 200, Height: 8, Mode: ModeState, Labels: true,
		Start: 900, End: 1100, // both events straddle a bound
	}
	naive, st, err := NaiveTimelineState(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rects != 2 {
		t.Errorf("rects = %d, want 2", st.Rects)
	}
	opt, _, err := Timeline(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gutter := TextWidth("CPU 000 ")
	plotW := cfg.Width - gutter
	idle, exec := StateColor(trace.StateIdle), StateColor(trace.StateTaskExec)
	// The idle event clamps to [900, 1000) -> plot columns [0, plotW/2);
	// the exec event fills the rest. Nothing may leak into the gutter.
	for _, fb := range []*Framebuffer{naive, opt} {
		if got := fb.At(gutter, 0); got != idle {
			t.Errorf("first plot column = %v, want idle (straddling event not clamped)", got)
		}
		if got := fb.At(gutter+plotW/2+1, 0); got != exec {
			t.Errorf("second half = %v, want exec", got)
		}
		if got := fb.At(gutter-1, 0); got == idle || got == exec {
			t.Errorf("state color leaked into the label gutter")
		}
	}
	// Geometry parity: naive and optimized agree pixel-for-pixel here
	// (disjoint events, one per half).
	if !bytes.Equal(naive.RGBA().Pix, opt.RGBA().Pix) {
		t.Error("naive and optimized renderings differ on the straddle window")
	}
}

// TestTimelineLabelsThinRows golden-tests a 200-CPU rendering 100px
// tall: rows are thinner than the font, so labels draw on a sparse
// subset of rows. Every label must stay inside its own row band
// [rowTop, rowTop+GlyphHeight) — the unguarded centering offset used
// to shift thin-row labels above their row (cropping row 0 and
// bleeding into the rows above) — and the parallel rendering must
// remain byte-identical to the sequential one.
func TestTimelineLabelsThinRows(t *testing.T) {
	const nCPU = 200
	tr := &core.Trace{CPUs: make([]core.CPUData, nCPU)}
	for c := 0; c < nCPU; c++ {
		tr.CPUs[c].States.Rows = []trace.StateEvent{
			{CPU: int32(c), State: trace.StateIdle, Start: 0, End: 1000},
		}
	}
	tr.Span = core.Interval{Start: 0, End: 1000}
	cfg := TimelineConfig{Width: 400, Height: 100, Mode: ModeState, Labels: true}

	seqFB, _, err := timeline(tr, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	parFB, _, err := timeline(tr, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqFB.RGBA().Pix, parFB.RGBA().Pix) {
		t.Error("thin-row labeled rendering differs between worker counts")
	}

	rowH := seqFB.H() / nCPU
	if rowH < 1 {
		rowH = 1
	}
	if rowH >= GlyphHeight {
		t.Fatalf("test wants thin rows, got rowH=%d", rowH)
	}
	labeled := func(row int) bool { return row%(GlyphHeight/rowH+1) == 0 }
	gutter := TextWidth("CPU 000 ")
	// Collect text pixels in the gutter and check each lies inside the
	// band of a labeled row.
	found := 0
	for y := 0; y < seqFB.H(); y++ {
		rowText := false
		for x := 0; x < gutter; x++ {
			if seqFB.At(x, y) == TextColor {
				rowText = true
				found++
			}
		}
		if !rowText {
			continue
		}
		ok := false
		for row := 0; row*rowH < seqFB.H(); row++ {
			if labeled(row) && y >= row*rowH && y < row*rowH+GlyphHeight {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("label pixels at y=%d outside every labeled row band", y)
		}
	}
	if found == 0 {
		t.Error("no label text rendered at all")
	}
	// Row 0's label must not be cropped at the top: its glyphs start
	// exactly at the row top.
	top := false
	for x := 0; x < gutter; x++ {
		if seqFB.At(x, 0) == TextColor {
			top = true
		}
	}
	if !top {
		t.Error("row 0 label cropped at the framebuffer top")
	}
}

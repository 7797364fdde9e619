package render

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/trace"
)

// synthStateTrace hand-builds a trace of random disjoint state
// intervals: nCPU rows starting at base, each with n events across
// the worker states (task-execution events carry task IDs), with
// occasional gaps and zero-length intervals. Events last up to 30
// cycles times scale, gaps up to 4 times scale. shuffled marks one CPU
// whose intervals overlap — the unindexable fallback case.
func synthStateTrace(rng *rand.Rand, nCPU, n int, base, scale int64, shuffled bool) *core.Trace {
	tr := &core.Trace{CPUs: make([]core.CPUData, nCPU)}
	var lo, hi int64
	for c := 0; c < nCPU; c++ {
		t := base + int64(rng.Intn(50))*scale
		states := make([]trace.StateEvent, 0, n)
		for i := 0; i < n; i++ {
			t += int64(rng.Intn(4)) * scale
			d := int64(rng.Intn(30)) * scale
			if rng.Intn(16) == 0 {
				d = 0
			}
			st := trace.WorkerState(rng.Intn(trace.NumWorkerStates))
			ev := trace.StateEvent{CPU: int32(c), State: st, Start: t, End: t + d}
			if st == trace.StateTaskExec {
				ev.Task = trace.TaskID(rng.Intn(5) + 1)
			}
			states = append(states, ev)
			t += d
		}
		if shuffled && c == nCPU-1 && len(states) > 2 {
			// Make the last CPU overlap: stretch an early event over
			// its successors (starts stay sorted, so StatesIn still
			// "works"; the index must refuse and fall back).
			states[0].End = states[len(states)/2].End + 5
		}
		tr.CPUs[c].States.Rows = states
		if c == 0 || states[0].Start < lo {
			lo = states[0].Start
		}
		if e := states[len(states)-1].End; c == 0 || e > hi {
			hi = e
		}
	}
	tr.Span = core.Interval{Start: lo, End: hi + 1}
	return tr
}

// scanDominance answers the renderer's per-pixel questions for one CPU
// with the pre-index renderer's inner loop: every event StatesIn
// returns for the pixel, first strictly-greater clipped cover wins.
// It is the reference the tests render through the timeline's resolver
// seam.
type scanDominance struct {
	tr  *core.Trace
	cpu int32
}

func scanResolver(tr *core.Trace) func(int32) dominance {
	return func(cpu int32) dominance { return scanDominance{tr, cpu} }
}

func (s scanDominance) dominant(t0, t1 trace.Time, execOnly bool, keep func(trace.TaskID) bool) (trace.StateEvent, bool) {
	var best trace.StateEvent
	var bestCover trace.Time
	for _, ev := range s.tr.StatesIn(s.cpu, t0, t1) {
		if execOnly && (ev.State != trace.StateTaskExec || keep != nil && !keep(ev.Task)) {
			continue
		}
		a, b := ev.Start, ev.End
		if a < t0 {
			a = t0
		}
		if b > t1 {
			b = t1
		}
		if cover := b - a; cover > bestCover {
			bestCover, best = cover, ev
		}
	}
	return best, bestCover > 0
}

// A scan sees its pixel and nothing after it: until is always t1, so
// rendering through it asks once per column — the per-pixel reference
// the run sweep is held to. It ignores the row's cursor and names none.
func (s scanDominance) DominantStateUntil(_ int, t0, t1 trace.Time) (trace.StateEvent, bool, trace.Time, int) {
	ev, ok := s.dominant(t0, t1, false, nil)
	return ev, ok, t1, 0
}

func (s scanDominance) DominantExec(_ int, t0, t1 trace.Time, keep func(trace.TaskID) bool) (trace.StateEvent, bool, trace.Time, int) {
	ev, ok := s.dominant(t0, t1, true, keep)
	return ev, ok, t1, 0
}

// denseStateTrace hand-builds a trace whose every CPU row carries
// `events` short alternating state intervals — the dense-window shape
// where a column's dominance query answers from the pyramid's upper
// levels. Durations come from a deterministic LCG so runs are
// reproducible.
func denseStateTrace(nCPU, events int) *core.Trace {
	tr := &core.Trace{CPUs: make([]core.CPUData, nCPU)}
	var hi int64
	for c := range tr.CPUs {
		states := make([]trace.StateEvent, events)
		t := int64(0)
		seed := uint32(c + 1)
		for i := range states {
			seed = seed*1664525 + 1013904223
			d := int64(seed%5) + 1
			st := trace.StateIdle
			var task trace.TaskID
			if i%2 == 0 {
				st = trace.StateTaskExec
				task = trace.TaskID(i + 1)
			}
			states[i] = trace.StateEvent{CPU: int32(c), State: st, Task: task, Start: t, End: t + d}
			t += d
		}
		tr.CPUs[c].States.Rows = states
		if t > hi {
			hi = t
		}
	}
	tr.Span = core.Interval{Start: 0, End: hi}
	return tr
}

// TestTimelineIndexMatchesScan is the golden equality test of the
// dominance index and of the row sweep built on its horizons: for
// every timeline mode, over simulated and randomized synthetic traces
// (including extreme-coordinate and unindexable ones) with randomized
// windows and filters, rendering through the trace's dominance index
// (pyramid-served, or scanned inside core for the filtered and
// unindexable cases) must produce a framebuffer byte-identical to
// rendering the same rows through the per-pixel event scan
// (scanDominance, which reports no horizon and so is asked about every
// column), with identical draw-call accounting. The windows go where
// the sweep does its stepping: deep enough that one event spans tens
// to hundreds of columns, and narrower in cycles than the plot is in
// columns, where pixelWindow widens each column to a cycle and
// neighbours overlap.
func TestTimelineIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seidel := atmtest.SeidelTrace(t, 6, 3, openstream.SchedRandom)
	f := filter.ByTypeNames(seidel, "seidel_block")

	// One event over the whole span, one over its middle, and nothing.
	const soloBase, soloSpan = 1 << 40, 1 << 30
	solo := &core.Trace{
		CPUs: []core.CPUData{
			{States: core.Column[trace.StateEvent]{Rows: []trace.StateEvent{{CPU: 0, State: trace.StateTaskExec, Task: 1, Start: soloBase, End: soloBase + soloSpan}}}},
			{States: core.Column[trace.StateEvent]{Rows: []trace.StateEvent{{CPU: 1, State: trace.StateSync, Start: soloBase + soloSpan/3, End: soloBase + soloSpan/2}}}},
			{},
		},
		Span: core.Interval{Start: soloBase, End: soloBase + soloSpan},
	}

	type tcase struct {
		name string
		tr   *core.Trace
		f    *filter.TaskFilter
		// event is the length of a typical event, which the deep windows
		// are sized by.
		event int64
	}
	cases := []tcase{
		{"seidel", seidel, nil, seidel.Span.Duration() / 500},
		{"seidel-filtered", seidel, f, seidel.Span.Duration() / 500},
		{"synthetic", synthStateTrace(rng, 6, 800, 0, 1, false), nil, 15},
		{"extreme-base", synthStateTrace(rng, 4, 500, math.MaxInt64/2, 1, false), nil, 15},
		{"unindexable-cpu", synthStateTrace(rng, 4, 400, 1000, 1, true), nil, 15},
		{"empty-cpu", &core.Trace{CPUs: make([]core.CPUData, 3), Span: core.Interval{Start: 0, End: 100}}, nil, 10},
		{"wide-1e3", synthStateTrace(rng, 6, 800, 0, 1000, false), nil, 15_000},
		{"wide-1e5", synthStateTrace(rng, 4, 300, 77, 35_000, false), nil, 500_000},
		{"wide-extreme-base", synthStateTrace(rng, 4, 300, math.MaxInt64/2, 35_000, false), nil, 500_000},
		{"wide-unindexable-cpu", synthStateTrace(rng, 3, 300, 1000, 1000, true), nil, 15_000},
		{"single-event-row", solo, nil, soloSpan},
		{"dense", denseStateTrace(2, 1<<18), nil, 3},
	}
	const (
		fullSpan  = 0
		anyWindow = 3 // trials 1..3
		deep      = 6 // trials 4..6: a few events wide
		subCycle  = 8 // trials 7..8: fewer cycles than columns
	)
	for _, tc := range cases {
		span := tc.tr.Span.Duration()
		for mode := ModeState; mode <= ModeNUMAHeat; mode++ {
			for trial := 0; trial <= subCycle; trial++ {
				cfg := TimelineConfig{
					Width:  90 + rng.Intn(300),
					Height: 30 + rng.Intn(100),
					Mode:   mode,
					Filter: tc.f,
					Labels: trial%2 == 0,
				}
				if tc.name == "dense" {
					// ~10k events a full-span column: every column's
					// query climbs past the pyramid's first level.
					cfg.Width = 24
					if cfg.Labels {
						cfg.Width += TextWidth("CPU 000 ")
					}
				}
				if trial > fullSpan && span > 2 {
					off := rng.Int63n(span)
					cfg.Start = tc.tr.Span.Start + off
					width := span - off
					switch {
					case trial > deep:
						width = min(width, int64(cfg.Width))
					case trial > anyWindow:
						width = min(width, 8*tc.event)
					}
					cfg.End = cfg.Start + 1 + rng.Int63n(width)
				}
				idx, idxStats, err := Timeline(tc.tr, cfg)
				if err != nil {
					t.Fatalf("%s/%v: %v", tc.name, mode, err)
				}
				scan, scanStats, err := timeline(tc.tr, cfg, par.Workers(), scanResolver(tc.tr))
				if err != nil {
					t.Fatalf("%s/%v scan: %v", tc.name, mode, err)
				}
				if !bytes.Equal(idx.RGBA().Pix, scan.RGBA().Pix) {
					t.Errorf("%s/%v trial %d (window [%d,%d), %d columns): indexed pixels differ from event scan",
						tc.name, mode, trial, cfg.Start, cfg.End, cfg.Width)
				}
				if idxStats != scanStats {
					t.Errorf("%s/%v: stats %+v != scan stats %+v", tc.name, mode, idxStats, scanStats)
				}
			}
		}
	}
}

// TestTimelineAllocations pins as counts what a state and a typemap tile
// allocate over a sixteenth of a 16×8 Seidel run's span, rendered on
// one worker and on two: the framebuffer, the type index and the rows'
// runs, nothing a query or a pixel. The rows' dominance cursors are ints
// handed through the dominance interface by value; by pointer they
// would escape, one allocation a row (+16 here).
func TestTimelineAllocations(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 16, 8, openstream.SchedNUMA)
	span := tr.Span.Duration()
	start := tr.Span.Start + span/3
	for _, c := range []struct {
		mode    Mode
		workers int
		want    float64
	}{
		{ModeState, 1, 109},
		{ModeState, 2, 114},
		{ModeType, 1, 77},
		{ModeType, 2, 82},
	} {
		cfg := TimelineConfig{Width: 900, Height: 380, Mode: c.mode, Start: start, End: start + span/16}
		render := func() {
			if _, _, err := timeline(tr, cfg, c.workers, indexResolver(tr)); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(10, render); got != c.want {
			t.Errorf("a %v tile on %d workers allocates %.0f times, want %.0f", c.mode, c.workers, got, c.want)
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

// TestColumnInverse: lastColumnBy is the exact inverse of pixelWindow
// — the last column whose window ends at or before until — from plots
// of one column to the widest /render accepts, over spans from fewer
// cycles than columns (every window widened to a cycle) to 2^58
// cycles at the far end of the time axis (span*x overflows int64).
func TestColumnInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, w := range []int{1, 2, 952, 4000} {
		spans := []int64{int64(w) - 1, int64(w), int64(w) + 1, 3 * int64(w) / 2, 7 * int64(w), 1_000_003, 1 << 40, 1 << 58}
		for _, span := range spans {
			if span < 1 {
				continue
			}
			for _, start := range []int64{0, -span / 2, math.MaxInt64/2 - 12345} {
				end := start + span
				// The brute-force inverse, one pass over the columns:
				// ends[x] is column x's t1.
				ends := make([]int64, w)
				for x := range ends {
					_, ends[x] = pixelWindow(start, span, x, w)
				}
				check := func(until int64) {
					t.Helper()
					want := -1
					for want+1 < w && ends[want+1] <= until {
						want++
					}
					if got := lastColumnBy(start, end, until, w); got != want {
						t.Fatalf("w=%d span=%d start=%d: lastColumnBy(until=start+%d) = %d, want %d", w, span, start, until-start, got, want)
					}
				}
				// Every column boundary and its neighbours, then
				// random instants, then everything past the end.
				for x := 0; x < w; x += max(1, w/97) {
					for d := int64(-1); d <= 1; d++ {
						if u := ends[x] + d; u > start {
							check(u)
						}
					}
				}
				for i := 0; i < 200; i++ {
					check(start + 1 + rng.Int63n(span))
				}
				check(end)
				check(end + 1)
				check(math.MaxInt64)
			}
		}
	}
}

// TestTimelineExtremeTimestamps is the MaxInt64/2 regression test for
// the pixel->time mapping: with span*width > 2^63, the old
// span*x/width arithmetic wrapped and colored pixels from garbage
// windows. The trace has idle in its first half and task execution in
// its second; every pixel must land on the correct side.
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
	const w = 100
	for name, dom := range map[string]func(int32) dominance{"index": indexResolver(tr), "scan": scanResolver(tr)} {
		fb, _, err := timeline(tr, TimelineConfig{Width: w, Height: 8, Mode: ModeState}, par.Workers(), dom)
		if err != nil {
			t.Fatal(err)
		}
		idle, exec := StateColor(trace.StateIdle), StateColor(trace.StateTaskExec)
		for x := 0; x < w; x++ {
			want := idle
			if x >= w/2 {
				want = exec
			}
			if got := fb.At(x, 0); got != want {
				t.Fatalf("%s: pixel %d = %v, want %v (pixel->time mapping overflowed)", name, x, got, want)
			}
		}
	}

	// The naive ablation renderer shares the overflow-prone mapping
	// ((ev.Start-start)*width overflows just the same).
	fb, _, err := NaiveTimelineState(tr, TimelineConfig{Width: w, Height: 8, Mode: ModeState})
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

	seqFB, _, err := timeline(tr, cfg, 1, indexResolver(tr))
	if err != nil {
		t.Fatal(err)
	}
	parFB, _, err := timeline(tr, cfg, 4, indexResolver(tr))
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

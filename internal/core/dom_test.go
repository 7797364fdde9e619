package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/openstream/aftermath/internal/mragg"
	"github.com/openstream/aftermath/internal/tmath"
	"github.com/openstream/aftermath/internal/trace"
)

// bruteDominant reimplements the renderer's sequential scan (first
// strictly-greater cover wins) over StatesIn, optionally restricted
// to task-execution states and, among those, to the tasks keep admits.
func bruteDominant(tr *Trace, cpu int32, t0, t1 trace.Time, execOnly bool, keep func(trace.TaskID) bool) (trace.StateEvent, bool) {
	var best trace.StateEvent
	var bestCover trace.Time
	for _, ev := range tr.StatesIn(cpu, t0, t1) {
		if execOnly && ev.State != trace.StateTaskExec {
			continue
		}
		if keep != nil && !keep(ev.Task) {
			continue
		}
		s, e := ev.Start, ev.End
		if s < t0 {
			s = t0
		}
		if e > t1 {
			e = t1
		}
		if cover := e - s; cover > bestCover {
			bestCover, best = cover, ev
		}
	}
	return best, bestCover > 0
}

func bruteCover(tr *Trace, cpu int32, state trace.WorkerState, t0, t1 trace.Time) trace.Time {
	var in trace.Time
	for _, ev := range tr.StatesIn(cpu, t0, t1) {
		if ev.State != state {
			continue
		}
		s, e := ev.Start, ev.End
		if s < t0 {
			s = t0
		}
		if e > t1 {
			e = t1
		}
		if e > s {
			in += e - s
		}
	}
	return in
}

// checkDomAgainstScan compares every DomCPU answer on a snapshot
// against the brute-force scans over StatesIn on randomized windows of
// random CPUs, one past the trace's included.
func checkDomAgainstScan(t *testing.T, ctx string, tr *Trace, rng *rand.Rand, queries int) {
	t.Helper()
	if tr.Span.Duration() <= 0 {
		return
	}
	span := tr.Span.Duration()
	for q := 0; q < queries; q++ {
		cpu := int32(rng.Intn(tr.NumCPUs() + 1)) // +1: out-of-range CPU
		t0 := tr.Span.Start - 10 + rng.Int63n(span+20)
		checkDomWindow(t, ctx, tr, rng, cpu, t0, t0+rng.Int63n(span/3+2))
	}
}

// checkDomWindow compares every DomCPU answer for one window —
// pyramid-served or scanned, the caller cannot tell and must not need
// to — against the brute-force scans over StatesIn: the dominant state,
// the dominant task execution unfiltered and under a random keep
// predicate along a row walk over a plot of the window, the cover of
// every state including one past the worker states, and DomCPU.scan
// itself, which has to agree whether or not it is what answered.
func checkDomWindow(t *testing.T, ctx string, tr *Trace, rng *rand.Rand, cpu int32, t0, t1 trace.Time) {
	t.Helper()
	dc := tr.DomIndex().CPU(tr, cpu)
	ev, ok, _ := dc.DominantState(t0, t1)
	wantEv, wantOK := bruteDominant(tr, cpu, t0, t1, false, nil)
	if ok != wantOK || ev != wantEv {
		t.Fatalf("%s: DominantState(%d, %d, %d) = (%+v, %v), scan wants (%+v, %v)",
			ctx, cpu, t0, t1, ev, ok, wantEv, wantOK)
	}
	if leaf, cover, _ := dc.scan(t0, t1, -1, nil); cover > 0 != wantOK || wantOK && *dc.leaves.At(leaf) != wantEv {
		t.Fatalf("%s: DomCPU.scan(%d, %d, %d) = (leaf %d, %d), StatesIn wants (%+v, %v)", ctx, cpu, t0, t1, leaf, cover, wantEv, wantOK)
	}
	// A row walk over a plot of [t0, t1) answers every column as the
	// scan of the column's window does: the dominant state, and the
	// dominant task execution unfiltered and under a random keep
	// predicate.
	mod, rem := trace.TaskID(rng.Intn(4)+1), trace.TaskID(rng.Intn(2))
	keep := func(id trace.TaskID) bool { return id%mod >= rem }
	for _, q := range []struct {
		exec bool
		keep func(trace.TaskID) bool
	}{{false, nil}, {true, nil}, {true, keep}} {
		if t1 <= t0 {
			break
		}
		cols := tmath.Columns{Start: t0, End: t1, W: 1 + rng.Intn(40)}
		row, at := dc.Row(cols, q.exec, q.keep), 0
		buf := make([]mragg.Run, 0, 1+rng.Intn(4))
		for runs := row.Next(buf); len(runs) > 0; runs = row.Next(buf) {
			for _, run := range runs {
				if run.X0 != at || run.X1 <= run.X0 {
					t.Fatalf("%s: cpu %d: run [%d, %d) after column %d of %v", ctx, cpu, run.X0, run.X1, at, cols)
				}
				ev := row.Event(run.Leaf)
				for x := run.X0; x < run.X1; x++ {
					a, b := cols.Window(x)
					wantEv, wantOK := bruteDominant(tr, cpu, a, b, q.exec, q.keep)
					if (ev != nil) != wantOK || ev != nil && *ev != wantEv {
						t.Fatalf("%s: cpu %d: column %d [%d, %d) of %v (exec %v, filtered %v) answers %+v, the scan wants (%+v, %v)",
							ctx, cpu, x, a, b, cols, q.exec, q.keep != nil, ev, wantEv, wantOK)
					}
				}
				at = run.X1
			}
		}
		if at != cols.W {
			t.Fatalf("%s: cpu %d: the walk stopped at column %d of %v", ctx, cpu, at, cols)
		}
	}
	checkStateTimes(t, ctx, tr, dc, cpu, t0, t1)
	// A row of adjacent windows cut from [t0, t1), empty ones included.
	bounds := []trace.Time{t0}
	for w := rng.Intn(8); w >= 0; w-- {
		bounds = append(bounds, bounds[len(bounds)-1]+rng.Int63n(max(t1-t0, 0)/4+2))
	}
	covers := make([]trace.Time, len(bounds)-1)
	for k := 0; k <= trace.NumWorkerStates; k++ { // ==: out-of-range state
		st := trace.WorkerState(k)
		dc.StateCovers(st, bounds, covers)
		for i, got := range covers {
			if want := bruteCover(tr, cpu, st, bounds[i], bounds[i+1]); got != want {
				t.Fatalf("%s: StateCovers(%d, %v, %v) window %d = %d, scan wants %d", ctx, cpu, st, bounds, i, got, want)
			}
		}
		cover := dc.StateCover(st, t0, t1)
		if want := bruteCover(tr, cpu, st, t0, t1); cover != want {
			t.Fatalf("%s: StateCover(%d, %v, %d, %d) = %d, scan wants %d", ctx, cpu, st, t0, t1, cover, want)
		}
		if _, _, total := dc.scan(t0, t1, k, nil); total != cover {
			t.Fatalf("%s: DomCPU.scan(%d, %v, %d, %d) sums %d, StateCover says %d", ctx, cpu, st, t0, t1, total, cover)
		}
	}
}

// TestDomIndexBatchMatchesScan: the eagerly built index of a batch
// load answers exactly like the event scans.
func TestDomIndexBatchMatchesScan(t *testing.T) {
	tr := loadLive(t) // cold batch load of the live test stream
	rng := rand.New(rand.NewSource(3))
	checkDomAgainstScan(t, "batch", tr, rng, 600)
}

// loadLive cold-loads the liveTestBytes stream as a batch trace.
func loadLive(t *testing.T) *Trace {
	t.Helper()
	tr, err := FromReader(bytes.NewReader(liveTestBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDomIndexLiveMatchesScan drives the incremental append path: a
// Live trace fed in random batch sizes, with every published
// snapshot's (seeded, mragg-append-extended) index checked against
// brute-force scans, and against a cold load of the same prefix.
func TestDomIndexLiveMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lv := NewLive()
	var pending []trace.StateEvent
	nextStart := make([]int64, 4)
	for i := 0; i < 3000; i++ {
		cpu := rng.Intn(4)
		st := trace.WorkerState(rng.Intn(trace.NumWorkerStates))
		d := int64(rng.Intn(20))
		ev := trace.StateEvent{CPU: int32(cpu), State: st, Start: nextStart[cpu], End: nextStart[cpu] + d}
		if st == trace.StateTaskExec {
			ev.Task = trace.TaskID(i + 1)
		}
		nextStart[cpu] += d + int64(rng.Intn(3))
		pending = append(pending, ev)
		if len(pending) >= rng.Intn(400)+50 || i == 2999 {
			b := &trace.RecordBatch{States: pending}
			if err := lv.Append(b); err != nil {
				t.Fatal(err)
			}
			pending = nil
			snap, _ := lv.Publish()
			checkDomAgainstScan(t, "live", snap, rng, 120)
		}
	}
}

// TestDomIndexLiveOutOfOrder: a producer that violates per-CPU order
// dirties the CPU; its snapshots must still answer correctly (lazy
// rebuild over the repaired arrays or scan fallback).
func TestDomIndexLiveOutOfOrder(t *testing.T) {
	lv := NewLive()
	b1 := &trace.RecordBatch{States: []trace.StateEvent{
		{CPU: 0, State: trace.StateIdle, Start: 100, End: 200},
		{CPU: 0, State: trace.StateTaskExec, Task: 1, Start: 200, End: 260},
	}}
	if err := lv.Append(b1); err != nil {
		t.Fatal(err)
	}
	lv.Publish()
	// Out of order: starts before the previous tail.
	b2 := &trace.RecordBatch{States: []trace.StateEvent{
		{CPU: 0, State: trace.StateSync, Start: 0, End: 50},
	}}
	if err := lv.Append(b2); err != nil {
		t.Fatal(err)
	}
	snap, _ := lv.Publish()
	rng := rand.New(rand.NewSource(5))
	checkDomAgainstScan(t, "out-of-order", snap, rng, 300)
	// The repaired snapshot is sorted, so its lazily built index must
	// actually be used (indexed == true) and agree.
	ev, ok, indexed := snap.DomIndex().CPU(snap, 0).DominantState(0, 300)
	if !indexed || !ok {
		t.Fatalf("repaired snapshot unindexable: ok=%v indexed=%v", ok, indexed)
	}
	if ev.State != trace.StateIdle {
		t.Errorf("dominant over [0,300) = %v, want idle", ev.State)
	}

	// A third batch after the dirty flag: the dead chain must not be
	// extended incorrectly either.
	b3 := &trace.RecordBatch{States: []trace.StateEvent{
		{CPU: 0, State: trace.StateIdle, Start: 300, End: 400},
	}}
	if err := lv.Append(b3); err != nil {
		t.Fatal(err)
	}
	snap, _ = lv.Publish()
	checkDomAgainstScan(t, "out-of-order-2", snap, rng, 300)
}

// scanCaseStates generates n state events for one CPU starting at
// base: sorted starts, every worker state plus one value past them
// (indexed in the all-states set only, so its cover must be scanned),
// task IDs on executions. overlap stretches every 97th interval over
// its successors, which makes the CPU unindexable and StatesIn's
// binary search approximate — the case where the scan must visit
// exactly StatesIn's window to stay equal to it.
func scanCaseStates(rng *rand.Rand, cpu int32, n int, base int64, overlap bool) []trace.StateEvent {
	states := make([]trace.StateEvent, 0, n)
	at := base
	for i := 0; i < n; i++ {
		st := trace.WorkerState(rng.Intn(trace.NumWorkerStates + 1))
		d := int64(rng.Intn(25))
		ev := trace.StateEvent{CPU: cpu, State: st, Start: at, End: at + d}
		if st == trace.StateTaskExec {
			ev.Task = trace.TaskID(rng.Intn(9) + 1)
		}
		if overlap && i%97 == 5 {
			ev.End += 400
		}
		at += d + int64(rng.Intn(3))
		states = append(states, ev)
	}
	return states
}

// TestDomIndexScannedMatchesScan pins the answers the pyramids cannot
// serve, where the decision now lives: a CPU with overlapping
// intervals (no pyramid at all) beside a well-formed one, as a
// hand-built trace, a batch load and a spilled live snapshot whose
// random windows straddle part boundaries — so DomCPU.scan walks the
// segmented columns, for the unindexable CPU on every query and for
// the indexed one on filtered and out-of-range-state queries.
func TestDomIndexScannedMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 3000
	cpus := [][]trace.StateEvent{
		scanCaseStates(rng, 0, n, 50, false),
		scanCaseStates(rng, 1, n, 0, true),
	}
	assertShape := func(ctx string, tr *Trace) {
		t.Helper()
		if _, _, indexed := tr.DomIndex().CPU(tr, 0).DominantState(tr.Span.Start, tr.Span.End); !indexed {
			t.Fatalf("%s: well-formed CPU is not pyramid-served", ctx)
		}
		if _, _, indexed := tr.DomIndex().CPU(tr, 1).DominantState(tr.Span.Start, tr.Span.End); indexed {
			t.Fatalf("%s: overlapping CPU claims a pyramid", ctx)
		}
	}

	hand := newTrace()
	hand.CPUs = []CPUData{{States: Column[trace.StateEvent]{Rows: cpus[0]}}, {States: Column[trace.StateEvent]{Rows: cpus[1]}}}
	hand.Span = Interval{Start: 0, End: cpus[1][n-1].End + 400}
	assertShape("hand-built", hand)
	checkDomAgainstScan(t, "hand-built", hand, rng, 400)

	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, states := range cpus {
		for _, ev := range states {
			if err := w.WriteState(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	batch, err := FromReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertShape("batch", batch)
	checkDomAgainstScan(t, "batch", batch, rng, 400)

	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	defer lv.Close()
	var snap *Trace
	for _, cut := range [][2]int{{0, 700}, {700, 1500}, {1500, 2900}, {2900, n}} {
		b := &trace.RecordBatch{}
		b.States = append(b.States, cpus[0][cut[0]:cut[1]]...)
		b.States = append(b.States, cpus[1][cut[0]:cut[1]]...)
		snap = publishSettled(t, lv, b)
	}
	if st, ok := snap.SpillStats(); !ok || st.Segments < 2 {
		t.Fatalf("snapshot not spilled into parts: %+v ok %v", st, ok)
	}
	for cpu := int32(0); cpu < 2; cpu++ {
		if dc := snap.DomIndex().CPU(snap, cpu); dc.leaves.Cols() < 2 {
			t.Fatalf("cpu %d resolves through %d columns, want a segmented view", cpu, dc.leaves.Cols())
		}
	}
	assertShape("spilled", snap)
	checkDomAgainstScan(t, "spilled", snap, rng, 600)
}

// checkStateTimes holds DomCPU.StateTimes over [t0, t1) to the eight
// StateCovers and to the scan.
func checkStateTimes(t *testing.T, ctx string, tr *Trace, dc *DomCPU, cpu int32, t0, t1 trace.Time) {
	t.Helper()
	var times [trace.NumWorkerStates]trace.Time
	dc.StateTimes(t0, t1, &times)
	for k, got := range times {
		st := trace.WorkerState(k)
		if want := dc.StateCover(st, t0, t1); got != want || got != bruteCover(tr, cpu, st, t0, t1) {
			t.Fatalf("%s: StateTimes(%d, %d, %d)[%v] = %d, StateCover says %d, the scan %d",
				ctx, cpu, t0, t1, st, got, want, bruteCover(tr, cpu, st, t0, t1))
		}
	}
}

// TestStateTimesSweepBoundary: a window of at most 2·arity events is
// answered by one sweep over them, a wider one by the states' prefix
// sums, and either way StateTimes is the eight StateCovers. Windows of
// 2·arity−1, 2·arity and 2·arity+1 events, each starting and ending
// inside an event so that both are clipped, are checked on a batch
// load and on a spilled live snapshot (whose windows cross part
// boundaries), for a well-formed CPU and one with overlapping intervals
// (unindexable, scanned); events in a state past the worker states
// belong to no state's time.
func TestStateTimesSweepBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const n = 2000
	cpus := [][]trace.StateEvent{
		scanCaseStates(rng, 0, n, 50, false),
		scanCaseStates(rng, 1, n, 0, true),
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, states := range cpus {
		for _, ev := range states {
			if err := w.WriteState(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	batch, err := FromReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	defer lv.Close()
	var spilled *Trace
	for from := 0; from < n; from += 150 {
		b := &trace.RecordBatch{}
		for _, states := range cpus {
			b.States = append(b.States, states[from:min(from+150, n)]...)
		}
		spilled = publishSettled(t, lv, b)
	}
	if dc := spilled.DomIndex().CPU(spilled, 0); dc.leaves.Cols() < 4 {
		t.Fatalf("precondition: cpu 0 resolves through %d columns, want a segmented view", dc.leaves.Cols())
	}
	wide := 2 * mragg.DefaultArity
	for _, tr := range []*Trace{batch, spilled} {
		for cpu := int32(0); cpu < 2; cpu++ {
			dc, evs := tr.DomIndex().CPU(tr, cpu), cpus[cpu]
			if indexed := dc.all != nil; indexed != (cpu == 0) {
				t.Fatalf("precondition: cpu %d indexed %v", cpu, indexed)
			}
			checked := 0
			for i := 0; i+wide+1 < n && checked < 60; i += 1 + rng.Intn(40) {
				for _, m := range []int{wide - 1, wide, wide + 1} {
					first, last := evs[i], evs[i+m-1]
					if first.End-first.Start < 2 || last.End-last.Start < 2 {
						continue
					}
					// [t0, t1) overlaps events i … i+m-1 of a well-formed
					// CPU, clipping the first and the last.
					t0, t1 := first.Start+1, last.End-1
					if cpu == 0 {
						if lo, hi := stateWindow(evs, t0, t1); hi-lo != m {
							t.Fatalf("precondition: window [%d, %d) holds %d events, want %d", t0, t1, hi-lo, m)
						}
					}
					checkStateTimes(t, fmt.Sprintf("%d-event window", m), tr, dc, cpu, t0, t1)
					checked++
				}
			}
			if checked < 30 {
				t.Fatalf("cpu %d: only %d windows checked", cpu, checked)
			}
		}
	}
}

// sameSet asserts two dominance sets are structurally identical: refs,
// prefix sums and every pyramid level, node for node.
func sameSet(t *testing.T, ctx string, got, want *mragg.Set) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: set presence %v, want %v", ctx, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	gr, gp, gy := got.Columns()
	wr, wp, wy := want.Columns()
	if !slices.Equal(gr, wr) || !slices.Equal(gp, wp) || (gp == nil) != (wp == nil) {
		t.Fatalf("%s: refs or prefix sums differ", ctx)
	}
	if gy.Arity() != wy.Arity() || gy.Len() != wy.Len() || len(gy.Levels()) != len(wy.Levels()) {
		t.Fatalf("%s: pyramid shape differs", ctx)
	}
	for l := range wy.Levels() {
		if !slices.Equal(gy.Levels()[l], wy.Levels()[l]) {
			t.Fatalf("%s: pyramid level %d differs", ctx, l)
		}
	}
}

func sameDomSets(t *testing.T, ctx string, got, want domSets) {
	t.Helper()
	sameSet(t, ctx+": all-states set", got.all, want.all)
	for k := range want.byState {
		sameSet(t, fmt.Sprintf("%s: state %d set", ctx, k), got.byState[k], want.byState[k])
	}
}

// TestDomIndexOneConstructionPath: the eager batch build, the lazy
// build of a hand-assembled trace, a segmented build and a live chain
// extended over several epochs (plain and spilled) all go through
// domChain.extend, so the same states give structurally identical
// pyramids whichever way they arrived — and a batch build allocates a
// bounded number of times.
func TestDomIndexOneConstructionPath(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var states []trace.StateEvent
	at := int64(0)
	for i := 0; i < 9000; i++ {
		// One state value past the worker states: such events index
		// into the all-states set only.
		st := trace.WorkerState(rng.Intn(trace.NumWorkerStates + 1))
		d := int64(rng.Intn(30))
		ev := trace.StateEvent{State: st, Start: at, End: at + d}
		if st == trace.StateTaskExec {
			ev.Task = trace.TaskID(i + 1)
		}
		at += d + int64(rng.Intn(3))
		states = append(states, ev)
	}

	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, ev := range states {
		if err := w.WriteState(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	batch, err := FromReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := batch.DomIndex().CPU(batch, 0)
	if want.all == nil || want.all.Len() != len(states) {
		t.Fatalf("batch index missing or short")
	}

	lazyTr := newTrace()
	lazyTr.CPUs = []CPUData{{States: Column[trace.StateEvent]{Rows: states}}}
	sameDomSets(t, "lazy", lazyTr.DomIndex().CPU(lazyTr, 0).domSets, want.domSets)

	// Counted, then allocated: a batch build makes the sets, two columns
	// for each state present and the pyramid levels, whatever the number
	// of events — where append-grown columns made some 170 allocations,
	// and pyramids that stored partial blocks 54.
	allocs := testing.AllocsPerRun(5, func() {
		var e DomCPU
		e.build(mragg.Over(states))
	})
	limit := 45.0
	if raceEnabled {
		limit = 71
	}
	t.Logf("a batch build of %d states: %.0f allocations", len(states), allocs)
	if allocs > limit {
		t.Errorf("a batch build of %d states made %.0f allocations, want at most %.0f", len(states), allocs, limit)
	}

	var segs DomCPU
	segs.build(mragg.Over(states[:100], nil, states[100:4097], states[4097:]))
	sameDomSets(t, "segmented", segs.domSets, want.domSets)
	if segs.leaves.Cols() != 3 || *segs.leaves.At(4097) != states[4097] {
		t.Fatalf("segmented view resolves leaves wrong")
	}

	for _, spill := range []bool{false, true} {
		lv := NewLive()
		if spill {
			lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
		}
		var snap *Trace
		for _, cut := range [][2]int{{0, 1}, {1, 64}, {64, 5000}, {5000, len(states)}} {
			snap = publishSettled(t, lv, &trace.RecordBatch{States: states[cut[0]:cut[1]]})
		}
		ctx := fmt.Sprintf("live (spill=%v)", spill)
		if _, ok := snap.SpillStats(); ok != spill {
			t.Fatalf("%s: spill state %v", ctx, ok)
		}
		sameDomSets(t, ctx, snap.DomIndex().CPU(snap, 0).domSets, want.domSets)
		lv.Close()
	}
}

// domOverhead is what one CPU's dominance sets own: everything the
// index costs beyond the state events it reads through its view.
func domOverhead(dc *DomCPU) (bytes int64) {
	if dc.all != nil {
		bytes = dc.all.OverheadBytes()
	}
	for _, s := range dc.byState {
		if s != nil {
			bytes += s.OverheadBytes()
		}
	}
	return bytes
}

// TestDomIndexOverhead holds the index to what an index may cost: on
// the Seidel fixture everything the dominance sets own is at most 0.45
// of the state arrays they index — 4 B of refs and 8 B of prefix sums a
// state plus two pyramids, 12.5 of 32 B. With its own copies of every
// interval's bounds, once for all states and again per state, it was
// 1.66. This is the core.dom_overhead_ratio the harness will report as
// a layer metric beside mmtree.overhead_ratio.
func TestDomIndexOverhead(t *testing.T) {
	tr, err := FromReader(bytes.NewReader(seidelStream(t, 12, 6)))
	if err != nil {
		t.Fatal(err)
	}
	var index, states int64
	for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
		dc := tr.DomIndex().CPU(tr, cpu)
		if _, _, indexed := dc.DominantState(tr.Span.Start, tr.Span.End); !indexed {
			t.Fatalf("cpu %d is not pyramid-served", cpu)
		}
		index += domOverhead(dc)
		states += int64(len(tr.CPUs[cpu].States.Rows)) * int64(unsafe.Sizeof(trace.StateEvent{}))
	}
	if states == 0 {
		t.Fatal("fixture has no states")
	}
	ratio := float64(index) / float64(states)
	t.Logf("dominance index: %d bytes over %d bytes of states, ratio %.3f", index, states, ratio)
	if ratio > 0.45 {
		t.Errorf("the dominance index owns %d bytes over %d bytes of states: ratio %.2f, want at most 0.45", index, states, ratio)
	}
}

// segCaseStates is scanCaseStates without overlaps and with a pair of
// zero-length states sitting on each cut: the last event before it and
// the first after it both start and end at the cut's time.
func segCaseStates(rng *rand.Rand, cpu int32, n int, cuts []int) []trace.StateEvent {
	states := scanCaseStates(rng, cpu, n, 40, false)
	var shift int64
	for i := range states {
		ev := &states[i]
		ev.Start, ev.End = ev.Start-shift, ev.End-shift
		if slices.Contains(cuts, i) || slices.Contains(cuts, i+1) {
			shift += ev.End - ev.Start
			ev.End = ev.Start
		}
		if slices.Contains(cuts, i) {
			shift += ev.Start - states[i-1].End
			ev.Start, ev.End = states[i-1].End, states[i-1].End
		}
	}
	return states
}

// TestDomIndexSegmentedMatchesScan: index ≡ scan where the view is
// segmented. A live trace is frozen into four parts with a RAM tail
// behind them and queried (a) while the parts are still the heap rows
// the tails were, (b) once they are mmap views of their segment files,
// (c) after retention dropped the oldest parts and the chains were
// rebuilt over what is left, and (d) saved as one snapshot file and
// mapped back. Every DomCPU answer — and every horizon — is checked on
// seeded random windows and on windows around each part boundary,
// where zero-length states sit on both sides.
func TestDomIndexSegmentedMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const n = 4000
	cuts := []int{900, 1800, 2700, 3600}
	cpus := [][]trace.StateEvent{segCaseStates(rng, 0, n, cuts), segCaseStates(rng, 1, n, cuts)}
	for _, c := range cuts {
		if a, b := cpus[0][c-1], cpus[0][c]; a.Start != a.End || b.Start != b.End || a.End != b.Start {
			t.Fatalf("precondition: no zero-length pair on cut %d: %+v %+v", c, a, b)
		}
	}

	dir := t.TempDir()
	lv := NewLive()
	// Spilling on, but never on its own: the test freezes and installs.
	lv.SetRetention(RetentionPolicy{Dir: dir, SpillBytes: 1 << 40})
	defer lv.Close()
	type frozen struct {
		seg   *spillSeg
		parts []segPart
	}
	var parts []frozen
	var snap *Trace
	for k, from := 0, 0; k <= len(cuts); k++ {
		to := n
		if k < len(cuts) {
			to = cuts[k]
		}
		b := &trace.RecordBatch{}
		b.States = append(append(b.States, cpus[0][from:to]...), cpus[1][from:to]...)
		snap = publish(t, lv, b)
		if k < len(cuts) {
			lv.mu.Lock()
			seg, segParts := lv.freezeTailsLocked()
			lv.mu.Unlock()
			parts = append(parts, frozen{seg, segParts})
		}
		from = to
	}

	check := func(ctx string, tr *Trace, wantCols int, from int) {
		t.Helper()
		for cpu := int32(0); cpu < 2; cpu++ {
			dc := tr.DomIndex().CPU(tr, cpu)
			if _, _, indexed := dc.DominantState(tr.Span.Start, tr.Span.End); !indexed || dc.all.Len() != n-from {
				t.Fatalf("%s: cpu %d indexed %v over %d states, want %d", ctx, cpu, indexed, dc.all.Len(), n-from)
			}
			if dc.leaves.Cols() != wantCols {
				t.Fatalf("%s: cpu %d resolves through %d columns, want %d", ctx, cpu, dc.leaves.Cols(), wantCols)
			}
			for _, c := range cuts {
				at := cpus[cpu][c].Start
				for _, w := range [][2]trace.Time{
					{at, at}, {at - 1, at}, {at, at + 1}, {at - 1, at + 1},
					{at - 1 - rng.Int63n(40), at + 1 + rng.Int63n(40)},
					{at - 1 - rng.Int63n(4000), at + 1 + rng.Int63n(4000)},
				} {
					checkDomWindow(t, ctx, tr, rng, cpu, w[0], w[1])
				}
			}
		}
		checkDomAgainstScan(t, ctx, tr, rng, 400)
	}

	// (a) Frozen, not yet written: the parts are the heap rows.
	snap, _ = lv.Publish()
	for _, p := range snap.CPUs[0].States.parts {
		if p.seg.m != nil {
			t.Fatal("precondition: a part is mapped before its segment was installed")
		}
	}
	check("heap parts", snap, len(cuts)+1, 0)

	// (b) Written and installed: the same rows, mapped.
	for _, f := range parts {
		m, path, err := writeSegment(dir, f.seg.id, f.parts)
		lv.mu.Lock()
		lv.installLocked(f.seg, f.parts, m, path, err)
		lv.mu.Unlock()
	}
	mapped, _ := lv.Publish()
	if st, ok := mapped.SpillStats(); !ok || st.Err != "" || st.Pending != 0 {
		t.Fatalf("install: %+v", st)
	}
	for _, p := range mapped.CPUs[0].States.parts {
		if p.seg.m == nil {
			t.Fatal("precondition: a part is still heap rows after install")
		}
	}
	check("mapped parts", mapped, len(cuts)+1, 0)
	check("heap parts, after install", snap, len(cuts)+1, 0)

	// (d) One file, mapped back: a single column under the same sets.
	path := filepath.Join(dir, "whole.atms")
	if err := SaveStore(mapped, path); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("reopened", reopened, 1, 0)
	for cpu := int32(0); cpu < 2; cpu++ {
		sameDomSets(t, fmt.Sprintf("reopened cpu %d", cpu), reopened.DomIndex().CPU(reopened, cpu).domSets, mapped.DomIndex().CPU(mapped, cpu).domSets)
	}

	// (c) Retention drops the two oldest parts: logical indices shift,
	// the chains restart and are rebuilt through the segmented view.
	perSeg := int64(2 * 900 * unsafe.Sizeof(trace.StateEvent{}))
	lv.SetRetention(RetentionPolicy{Dir: dir, SpillBytes: 1 << 40, MaxBytes: 2*perSeg + perSeg/2})
	lv.Publish() // retention applies after a publish stored its snapshot
	dropped, _ := lv.Publish()
	if st, _ := dropped.SpillStats(); st.DroppedSegs != 2 || st.Segments != 2 {
		t.Fatalf("retention: %+v, want 2 segments dropped and 2 kept", st)
	}
	check("after drop", dropped, 3, cuts[1])
	check("mapped parts, after drop", mapped, len(cuts)+1, 0)
}

// TestSpillBoundCoversIndex: the memory bound of a spilling follow
// covers the dominance and the counter index. Once a CPU's states and a
// counter's samples on it have all left RAM, what a fresh snapshot's
// indexes own for them is at most 16 B a state — refs, prefix sums and
// pyramids, no copy of an interval — and 8.5 B a sample — rates and
// pyramids, no copy of a sample — and neither the snapshot nor the
// builder's chains hold on to the heap rows the events were before
// their segment was installed: dropping the one old snapshot that
// captured them frees them.
func TestSpillBoundCoversIndex(t *testing.T) {
	const n = 100_000
	b := &trace.RecordBatch{States: make([]trace.StateEvent, n), Samples: make([]trace.CounterSample, n), CounterIDs: []trace.CounterID{3}}
	for i := range b.States {
		b.States[i] = trace.StateEvent{State: trace.WorkerState(i % trace.NumWorkerStates), Start: int64(10 * i), End: int64(10*i + 7)}
		b.Samples[i] = trace.CounterSample{Counter: 3, Time: int64(10 * i), Value: int64(i * i % 1000)}
	}
	rows := int64(n * (unsafe.Sizeof(trace.StateEvent{}) + unsafe.Sizeof(trace.CounterSample{})))
	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	defer lv.Close()
	old := publishSettled(t, lv, b) // captures the tail; the publish then spills it, Close waits for the install
	b = nil
	fresh, _ := lv.Publish()
	if st, ok := fresh.SpillStats(); !ok || st.Segments != 1 || st.Pending != 0 || len(fresh.CPUs[0].States.Rows) != 0 {
		t.Fatalf("precondition: cpu 0 not fully spilled: %+v, %d states in RAM", st, len(fresh.CPUs[0].States.Rows))
	}
	dc := fresh.DomIndex().CPU(fresh, 0)
	if _, _, indexed := dc.DominantState(0, 10*n); !indexed || dc.all.Len() != n {
		t.Fatalf("fully spilled cpu indexed %v over %d states", indexed, dc.all.Len())
	}
	got := domOverhead(dc)
	t.Logf("index of %d spilled states: %d bytes, %.2f a state", n, got, float64(got)/n)
	if got > 16*n {
		t.Errorf("the index of %d spilled states owns %d bytes, %.1f a state: want at most 16", n, got, float64(got)/n)
	}
	c := fresh.Counters[0]
	if len(c.PerCPU[0].Rows) != 0 || c.NumSamples(0) != n {
		t.Fatalf("precondition: %d of %d samples still in RAM", len(c.PerCPU[0].Rows), c.NumSamples(0))
	}
	ci := fresh.CounterIndex()
	vt, rt := ci.Tree(c, 0), ci.RateTree(c, 0)
	if _, _, ok := vt.MinMax(0, 10*n); !ok || vt.Len() != n || rt.Len() != n-1 {
		t.Fatalf("fully spilled pair indexed over %d and %d entries", vt.Len(), rt.Len())
	}
	got = vt.OverheadBytes() + rt.OverheadBytes()
	t.Logf("trees of %d spilled samples: %d bytes, %.2f a sample", n, got, float64(got)/n)
	if got*2 > 17*n {
		t.Errorf("the trees of %d spilled samples own %d bytes, %.2f a sample: want at most 8.5", n, got, float64(got)/n)
	}

	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	runtime.KeepAlive(old)
	old = nil
	if freed := before - heap(); freed < rows*9/10 {
		t.Errorf("dropping the pre-install snapshot freed %d bytes, want the tails' %d: the heap rows are still referenced", freed, rows)
	}
	runtime.KeepAlive(fresh)
}

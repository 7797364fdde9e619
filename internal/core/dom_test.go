package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/openstream/aftermath/internal/mragg"
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

// checkDomAgainstScan compares every DomCPU answer on a snapshot —
// pyramid-served or scanned, the caller cannot tell and must not need
// to — against the brute-force scans over StatesIn, over randomized
// windows: the dominant state, the dominant task execution unfiltered
// and under a random keep predicate, and the cover of every state
// including one past the worker states.
func checkDomAgainstScan(t *testing.T, ctx string, tr *Trace, rng *rand.Rand, queries int) {
	t.Helper()
	if tr.Span.Duration() <= 0 {
		return
	}
	di := tr.DomIndex()
	span := tr.Span.Duration()
	for q := 0; q < queries; q++ {
		cpu := int32(rng.Intn(tr.NumCPUs() + 1)) // +1: out-of-range CPU
		dc := di.CPU(tr, cpu)
		t0 := tr.Span.Start - 10 + rng.Int63n(span+20)
		t1 := t0 + rng.Int63n(span/3+2)
		ev, ok, _ := dc.DominantState(t0, t1)
		wantEv, wantOK := bruteDominant(tr, cpu, t0, t1, false, nil)
		if ok != wantOK || ev != wantEv {
			t.Fatalf("%s: DominantState(%d, %d, %d) = (%+v, %v), scan wants (%+v, %v)",
				ctx, cpu, t0, t1, ev, ok, wantEv, wantOK)
		}
		// A horizon past t1 promises the same answer for every window
		// inside [t0, until): try one, and the last cycle before until.
		within := func(what string, until trace.Time, execOnly bool, ev trace.StateEvent, ok bool) {
			if until <= t1 {
				return
			}
			hi := min(until, tr.Span.End+10)
			a := t0 + rng.Int63n(hi-t0)
			b := a + 1 + rng.Int63n(hi-a)
			for _, w := range [][2]trace.Time{{a, b}, {hi - 1, hi}} {
				if wantEv, wantOK := bruteDominant(tr, cpu, w[0], w[1], execOnly, nil); ok != wantOK || ev != wantEv {
					t.Fatalf("%s: %s(%d, %d, %d) = (%+v, %v) until %d, but the scan of [%d, %d) wants (%+v, %v)",
						ctx, what, cpu, t0, t1, ev, ok, until, w[0], w[1], wantEv, wantOK)
				}
			}
		}
		if uev, uok, until := dc.DominantStateUntil(t0, t1); uev != ev || uok != ok || until < t1 {
			t.Fatalf("%s: DominantStateUntil(%d, %d, %d) = (%+v, %v, %d), DominantState says (%+v, %v)",
				ctx, cpu, t0, t1, uev, uok, until, ev, ok)
		} else {
			within("DominantStateUntil", until, false, ev, ok)
		}
		mod, rem := trace.TaskID(rng.Intn(4)+1), trace.TaskID(rng.Intn(2))
		for _, keep := range []func(trace.TaskID) bool{nil, func(id trace.TaskID) bool { return id%mod >= rem }} {
			ev, ok, until := dc.DominantExec(t0, t1, keep)
			wantEv, wantOK = bruteDominant(tr, cpu, t0, t1, true, keep)
			if ok != wantOK || ev != wantEv {
				t.Fatalf("%s: DominantExec(%d, %d, %d, filtered=%v) = (%+v, %v), scan wants (%+v, %v)",
					ctx, cpu, t0, t1, keep != nil, ev, ok, wantEv, wantOK)
			}
			if keep != nil && until != t1 {
				t.Fatalf("%s: filtered DominantExec(%d, %d, %d) claims a horizon %d; a scan has none", ctx, cpu, t0, t1, until)
			}
			within("DominantExec", until, true, ev, ok)
		}
		for k := 0; k <= trace.NumWorkerStates; k++ { // ==: out-of-range state
			st := trace.WorkerState(k)
			cover := dc.StateCover(st, t0, t1)
			if want := bruteCover(tr, cpu, st, t0, t1); cover != want {
				t.Fatalf("%s: StateCover(%d, %v, %d, %d) = %d, scan wants %d", ctx, cpu, st, t0, t1, cover, want)
			}
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
			b := &trace.RecordBatch{States: pending, MaxCPU: 3}
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
	b1 := &trace.RecordBatch{MaxCPU: 0, States: []trace.StateEvent{
		{CPU: 0, State: trace.StateIdle, Start: 100, End: 200},
		{CPU: 0, State: trace.StateTaskExec, Task: 1, Start: 200, End: 260},
	}}
	if err := lv.Append(b1); err != nil {
		t.Fatal(err)
	}
	lv.Publish()
	// Out of order: starts before the previous tail.
	b2 := &trace.RecordBatch{MaxCPU: 0, States: []trace.StateEvent{
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
	b3 := &trace.RecordBatch{MaxCPU: 0, States: []trace.StateEvent{
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
	hand.CPUs = []CPUData{{States: cpus[0]}, {States: cpus[1]}}
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
	lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1, Sync: true})
	defer lv.Close()
	var snap *Trace
	for _, cut := range [][2]int{{0, 700}, {700, 1500}, {1500, 2900}, {2900, n}} {
		b := &trace.RecordBatch{MaxCPU: 1}
		b.States = append(b.States, cpus[0][cut[0]:cut[1]]...)
		b.States = append(b.States, cpus[1][cut[0]:cut[1]]...)
		snap = publish(t, lv, b)
	}
	if st, ok := snap.SpillStats(); !ok || st.Segments < 2 {
		t.Fatalf("snapshot not spilled into parts: %+v ok %v", st, ok)
	}
	for cpu := int32(0); cpu < 2; cpu++ {
		if dc := snap.DomIndex().CPU(snap, cpu); len(dc.segs) < 2 {
			t.Fatalf("cpu %d resolves through %d columns, want a segmented view", cpu, len(dc.segs))
		}
	}
	assertShape("spilled", snap)
	checkDomAgainstScan(t, "spilled", snap, rng, 600)
}

// sameSet asserts two dominance sets are structurally identical: leaf
// columns, prefix sums and every pyramid level, node for node.
func sameSet(t *testing.T, ctx string, got, want *mragg.Set) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: set presence %v, want %v", ctx, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	gs, ge, gp, gr, gy := got.Columns()
	ws, we, wp, wr, wy := want.Columns()
	if !slices.Equal(gs, ws) || !slices.Equal(ge, we) || !slices.Equal(gp, wp) || !slices.Equal(gr, wr) {
		t.Fatalf("%s: leaf columns differ", ctx)
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
// pyramids whichever way they arrived.
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
	lazyTr.CPUs = []CPUData{{States: states}}
	sameDomSets(t, "lazy", lazyTr.DomIndex().CPU(lazyTr, 0).domSets, want.domSets)

	var segs DomCPU
	segs.build(states[:100], nil, states[100:4097], states[4097:])
	sameDomSets(t, "segmented", segs.domSets, want.domSets)
	if len(segs.segs) != 3 || segs.stateAt(4097) != states[4097] {
		t.Fatalf("segmented view resolves leaves wrong")
	}

	for _, spill := range []bool{false, true} {
		lv := NewLive()
		if spill {
			lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1, Sync: true})
		}
		var snap *Trace
		for _, cut := range [][2]int{{0, 1}, {1, 64}, {64, 5000}, {5000, len(states)}} {
			snap = publish(t, lv, &trace.RecordBatch{States: states[cut[0]:cut[1]]})
		}
		ctx := fmt.Sprintf("live (spill=%v)", spill)
		if _, ok := snap.SpillStats(); ok != spill {
			t.Fatalf("%s: spill state %v", ctx, ok)
		}
		sameDomSets(t, ctx, snap.DomIndex().CPU(snap, 0).domSets, want.domSets)
		lv.Close()
	}
}

package core

import (
	"slices"
	"sync"

	"github.com/openstream/aftermath/internal/mragg"
	"github.com/openstream/aftermath/internal/tmath"
	"github.com/openstream/aftermath/internal/trace"
)

// DomIndex holds the multi-resolution dominance pyramids over each
// CPU's state intervals (internal/mragg), the state-interval
// counterpart of the counter min/max tree index. A timeline row asks
// it once — DomCPU.Row walks the row's columns left to right in one
// pass over the CPU's events, jumping what one event or one gap
// answers — and the derived metrics' window sums ("how long was this
// CPU in state s?") cost O(log events): a narrow window's for every
// state in one sweep over its events (StateTimes), a row of adjacent
// windows' in one pass over a state's intervals (StateCovers). Every
// answer is exactly the sequential scan's.
//
// The index holds summaries, not a second copy of the states: per CPU
// the all-states pyramid, and per worker state the refs of its
// intervals, their cover prefix sums and a pyramid — 12.5 bytes a
// state against the 32 of the event. Interval bounds are read through
// the DomCPU's view of the state column itself (mragg.Leaves), also
// where it is a spilled live CPU's parts and tail, so what a state
// costs in RAM after it was spilled is its share of the index and
// nothing else.
//
// The index holds one entry per row of its trace, made with the trace.
// Safe for concurrent use: each CPU's pyramid is built exactly once,
// on first request, and different CPUs build in parallel. Batch loads
// build every CPU with states eagerly at index time; live snapshots
// and OpenStore seed entries with pyramids built before (mragg append
// mode, or the stored ones). A CPU whose state intervals violate the
// format's disjoint-sorted guarantee gets no pyramid — its DomCPU
// answers from the event scan instead, so malformed traces degrade in
// speed, never in correctness, and no caller has to know which CPUs
// those are. CPU resolves one CPU's entry, to be queried lock-free.
type DomIndex struct {
	cpus []DomCPU // by row
}

// DomCPU is one CPU's built pyramids and the view of the state array
// under them; its query methods are lock-free and safe for concurrent
// use. A nil all set marks the CPU unindexable (disordered or
// overlapping state intervals): its queries are answered by scan.
type DomCPU struct {
	once sync.Once
	// leaves is the CPU's sorted state array — one array, or a spilled
	// live CPU's parts then its RAM tail, as captured by the snapshot
	// this entry belongs to. The sets own no interval: they read their
	// leaves here and resolve their answers back into it.
	leaves mragg.Leaves
	domSets
}

// domSets is one CPU's pyramids, shared by the published DomCPU and
// the live builder's domChain. They hold summaries only and are bound
// to no view: each query passes the one it reads through.
type domSets struct {
	// all is the identity set over every state interval.
	all *mragg.Set
	// byState[s] is the subset of the intervals in state s: refs into
	// the logical state array, cover prefix sums and a pyramid;
	// byState[StateTaskExec] doubles as the task-execution dominance
	// set.
	byState [trace.NumWorkerStates]*mragg.Set
}

// emptySets returns the pyramids of a CPU without state events — where
// every chain starts — built once and shared (sets are immutable): every
// CPU that has no states, and every chain, starts from the same ones.
var emptySets = sync.OnceValue(func() domSets {
	sets := domSets{all: mragg.All(0)}
	for k := range sets.byState {
		sets.byState[k] = mragg.Sub(0)
	}
	return sets
})

// domChain is the one way a CPU's pyramids get built: sets covering
// the first n logical state events, extended in mragg append mode so
// the cost is proportional to the appended events. A batch build is a
// chain extended once from empty; the live builder keeps one chain per
// CPU across epochs and extends it through the view each publish
// captures — the chain itself references no event, so it never keeps a
// part's heap rows alive once the part is an mmap view or aged out. The
// builder restarts a chain from empty when its column's logical
// indices change: a drop ages the leading states out, a publish sorts a
// column that took late states. A CPU whose intervals overlap goes
// dead: it holds no pyramids and is not extended again until such a
// restart, and its snapshots fall back to the lazy build, which finds
// the same overlap and leaves their queries to DomCPU.scan.
type domChain struct {
	domSets
	n    int
	dead bool
}

// extend grows every set to cover lv, the view the chain covers the
// first ch.n events of. Out-of-range states are left out of the
// per-state sets (their events still participate in the all-states set,
// just not in per-state queries). A state's new members are appended to
// its set's refs in place, counted first so that the column grows at
// most once: a batch build allocates each column once, at its size; the
// live chain's columns grow by amortized append.
func (ch *domChain) extend(lv *mragg.Leaves) {
	if ch.dead || lv.Len() == ch.n {
		return
	}
	if ch.all == nil {
		ch.domSets = emptySets()
	}
	all := ch.all.Extend(lv)
	if all == nil {
		// Dead chains free their pyramids: nothing will ever be seeded
		// with them again.
		*ch = domChain{dead: true}
		return
	}
	ch.all = all
	var counts [trace.NumWorkerStates]int
	lv.Each(ch.n, func(_ int, ev *trace.StateEvent) {
		if k := int(ev.State); k < trace.NumWorkerStates {
			counts[k]++
		}
	})
	var refs [trace.NumWorkerStates][]int32
	for k, n := range counts {
		refs[k], _, _ = ch.byState[k].Columns()
		refs[k] = slices.Grow(refs[k], n)
	}
	lv.Each(ch.n, func(i int, ev *trace.StateEvent) {
		if k := int(ev.State); k < trace.NumWorkerStates {
			refs[k] = append(refs[k], int32(i))
		}
	})
	for k := range ch.byState {
		ch.byState[k] = ch.byState[k].Append(lv, refs[k])
	}
	ch.n = lv.Len()
}

// newDomIndex returns an index of n entries, one per row, each built
// on first use.
func newDomIndex(n int) *DomIndex {
	return &DomIndex{cpus: make([]DomCPU, n)}
}

// seed installs prebuilt pyramids over leaves as a row's entry. Seeding
// precedes any reader: a seeded entry is new.
func (di *DomIndex) seed(row int, leaves mragg.Leaves, sets domSets) {
	e := &di.cpus[row]
	e.leaves, e.domSets = leaves, sets
	e.once.Do(func() {})
}

// CPU returns the built pyramids for a row, building them from the
// trace's sorted state array on first use; the returned DomCPU queries
// lock-free. Rows outside the trace yield an empty, indexed entry,
// mirroring StatesIn's nil result.
func (di *DomIndex) CPU(tr *Trace, cpu int32) *DomCPU {
	if cpu < 0 || int(cpu) >= len(di.cpus) {
		return &DomCPU{domSets: emptySets()}
	}
	e := &di.cpus[cpu]
	e.once.Do(func() { e.build(tr.stateLeaves(cpu)) })
	return e
}

// build constructs the entry's pyramids over the CPU's state array on
// first use: one sorted array for batch loads and hand-built traces,
// spilled parts then the RAM tail for a live CPU whose chain is dead.
// Disordered or overlapping intervals leave all == nil: queries scan
// the columns.
func (e *DomCPU) build(leaves mragg.Leaves) {
	e.leaves = leaves
	var ch domChain
	ch.extend(&e.leaves)
	if ch.n == 0 && !ch.dead {
		// No events: an empty but indexed entry.
		ch.domSets = emptySets()
	}
	e.domSets = ch.domSets
}

// scan is the one event loop behind every query the pyramids cannot
// serve: unindexable CPUs and out-of-range states. Per column it visits
// exactly StatesIn's window (the same binary search, approximate on
// overlapping intervals), restricted to one state (any when state < 0)
// and to the tasks keep admits (all when nil), and returns the leaf of
// the first event of strictly greatest clipped cover with that cover,
// and the sum of the positive clipped covers.
func (e *DomCPU) scan(t0, t1 trace.Time, state int, keep func(trace.TaskID) bool) (best int, bestCover, total trace.Time) {
	for k := 0; k < e.leaves.Cols(); k++ {
		col := e.leaves.Col(k)
		lo, hi := stateWindow(col, t0, t1)
		for i := lo; i < hi; i++ {
			ev := &col[i]
			if state >= 0 && int(ev.State) != state {
				continue
			}
			if keep != nil && !keep(ev.Task) {
				continue
			}
			cover := min(ev.End, t1) - max(ev.Start, t0)
			if cover > bestCover {
				bestCover, best = cover, e.leaves.Start(k)+i
			}
			if cover > 0 {
				total += cover
			}
		}
	}
	return best, bestCover, total
}

// DominantState returns the state event covering the largest part of
// [t0, t1): the first of strictly greatest cover in event order, as one
// column of a row walk. indexed only reports whether a pyramid served
// the answer (false on a CPU with malformed interval order, which is
// scanned); the answer is the same either way.
func (e *DomCPU) DominantState(t0, t1 trace.Time) (ev trace.StateEvent, ok, indexed bool) {
	if t1 > t0 {
		row, run := e.Row(tmath.Columns{Start: t0, End: t1, W: 1}, false, nil), [1]mragg.Run{}
		if p := row.Event(row.Next(run[:0])[0].Leaf); p != nil {
			ev, ok = *p, true
		}
	}
	return ev, ok, e.all != nil
}

// DomRow is one timeline row's walk over a DomCPU: see DomCPU.Row.
type DomRow struct {
	e    *DomCPU
	walk mragg.Walk
	// An unindexable CPU is scanned column by column instead: x is the
	// next of w columns.
	cur         tmath.Cursor
	x, w, state int
	keep        func(trace.TaskID) bool
}

// Row returns the walk over the columns of cols answering, per column,
// the dominant state event, or with exec the dominant task execution
// among those keep admits (all when nil). The pyramids serve it where
// the CPU has them, the filter applied to the events the walk reads.
// A plot of one column may be as wide as int64 allows.
func (e *DomCPU) Row(cols tmath.Columns, exec bool, keep func(trace.TaskID) bool) DomRow {
	set, state := e.all, -1
	if exec {
		set, state = e.byState[trace.StateTaskExec], int(trace.StateTaskExec)
	}
	r := DomRow{e: e, cur: cols.Cursor(), w: cols.W, state: state, keep: keep}
	if set != nil {
		r.walk = set.Walk(&e.leaves, cols, keep)
	}
	return r
}

// Next appends the row's next runs of columns to runs, as many as its
// capacity holds, and returns it: empty once every column is answered
// (mragg.Walk.Next). A run's leaf is the CPU's event Event names.
func (r *DomRow) Next(runs []mragg.Run) []mragg.Run {
	if r.e.all != nil {
		return r.walk.Next(runs)
	}
	for ; r.x < r.w && len(runs) < cap(runs); r.x++ {
		t0, t1 := r.cur.Window(r.x)
		leaf, cover, _ := r.e.scan(t0, t1, r.state, r.keep)
		if cover <= 0 {
			leaf = -1
		}
		runs = append(runs, mragg.Run{X0: r.x, X1: r.x + 1, Leaf: leaf})
	}
	return runs
}

// Event returns the event of a run's leaf, nil for none. It is the
// trace's own and must not be modified.
func (r *DomRow) Event(leaf int) *trace.StateEvent {
	if leaf < 0 {
		return nil
	}
	return r.e.leaves.At(leaf)
}

// Work returns what the walk has read so far; a scanned row counts
// nothing.
func (r *DomRow) Work() mragg.Work { return r.walk.Work() }

// StateCover returns the total time the CPU spent in state within
// [t0, t1): the sum of the clipped covers of its intervals in that
// state, from the state's pyramid when it has one.
func (e *DomCPU) StateCover(state trace.WorkerState, t0, t1 trace.Time) trace.Time {
	if int(state) < trace.NumWorkerStates {
		if set := e.byState[state]; set != nil {
			return set.Cover(&e.leaves, t0, t1)
		}
	}
	_, _, total := e.scan(t0, t1, int(state), nil)
	return total
}

// StateTimes adds to out[s] the time the CPU spent in each worker state
// s within [t0, t1), what StateCover answers for each, in one call. A
// window holding at most 2·arity events is one sweep over them in the
// all-states set (mragg.Set.Sweep); a wider one is read off each state's
// prefix sums, and an unindexable CPU is scanned.
func (e *DomCPU) StateTimes(t0, t1 trace.Time, out *[trace.NumWorkerStates]trace.Time) {
	if e.all != nil && e.all.Sweep(&e.leaves, t0, t1, out[:]) {
		return
	}
	for st := range out {
		out[st] += e.StateCover(trace.WorkerState(st), t0, t1)
	}
}

// StateCovers writes to out[i] the time the CPU spent in state within
// [bounds[i], bounds[i+1]), StateCover's answer, for each adjacent
// window of the non-decreasing bounds: from the state's set in one pass
// over its members (mragg.Set.Covers), by a scan per window where the
// CPU or the state has none.
func (e *DomCPU) StateCovers(state trace.WorkerState, bounds, out []trace.Time) {
	if int(state) < trace.NumWorkerStates {
		if set := e.byState[state]; set != nil {
			set.Covers(&e.leaves, bounds, out)
			return
		}
	}
	for i := range out {
		_, _, out[i] = e.scan(bounds[i], bounds[i+1], int(state), nil)
	}
}

// DomIndex returns the trace's shared dominance index, creating it on
// first use. Safe for concurrent callers. Batch loads build it at index
// time; live snapshots and OpenStore seed it; hand-built traces get a
// lazily filled one, sized by their CPUs at the first call.
func (tr *Trace) DomIndex() *DomIndex {
	tr.domOnce.Do(func() {
		tr.dom = newDomIndex(len(tr.CPUs))
	})
	return tr.dom
}

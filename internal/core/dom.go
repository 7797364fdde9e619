package core

import (
	"sort"
	"sync"

	"github.com/openstream/aftermath/internal/mragg"
	"github.com/openstream/aftermath/internal/trace"
)

// DomIndex holds the multi-resolution dominance pyramids over each
// CPU's state intervals (internal/mragg) — the state-interval
// counterpart of the counter min/max tree index. It answers the
// renderer's per-pixel questions ("which state/task-execution
// interval covers the largest part of this pixel?") and the derived
// metrics' window sums ("how long was this CPU in state s during
// this window?") in O(log events) instead of scanning every
// overlapping event, with answers exactly equal to the sequential
// scans they replace.
//
// Safe for concurrent use: each CPU's pyramid is built exactly once,
// on first request, and different CPUs build in parallel. Batch loads
// build every CPU eagerly at index time; live snapshots are seeded
// with incrementally extended pyramids (mragg append mode). A CPU
// whose state intervals violate the format's disjoint-sorted
// guarantee gets no pyramid — its DomCPU answers from the event scan
// instead, so malformed traces degrade in speed, never in correctness,
// and no caller has to know which CPUs those are.
//
// CPU resolves one CPU's pyramids behind a single lock acquisition;
// query loops (one per pixel, one per metric window) should resolve
// once per CPU and query the returned DomCPU lock-free.
type DomIndex struct {
	mu      sync.Mutex
	entries map[int32]*DomCPU
}

// DomCPU is one CPU's built pyramids and the state array under them;
// its query methods are lock-free and safe for concurrent use. A nil
// all set marks the CPU unindexable (disordered or overlapping state
// intervals): its queries are answered by scan.
type DomCPU struct {
	once sync.Once
	// states is the CPU's sorted state array the pyramids were built
	// over (dominant leaves resolve back into it). For spilled live
	// traces the array is segmented instead: segs lists the non-empty
	// columns in time order and cum their cumulative start offsets, so
	// leaf i resolves to segs[k][i-cum[k]]. segs wins when non-nil
	// (see over).
	states []trace.StateEvent
	segs   [][]trace.StateEvent
	cum    []int
	domSets
}

// domSets is one CPU's pyramids, shared by the published DomCPU and
// the live builder's domChain.
type domSets struct {
	// all spans every state interval; leaf i is the i-th logical state
	// event.
	all *mragg.Set
	// byState[s] spans only the intervals in state s, with refs back
	// into the logical state array; byState[StateTaskExec] doubles as
	// the task-execution dominance set.
	byState [trace.NumWorkerStates]*mragg.Set
}

// domChain is the one way a CPU's pyramids get built: sets covering
// the first n logical state events, extended in mragg append mode so
// the cost is proportional to the appended events. A batch build is a
// chain extended once from empty; the live builder keeps one chain per
// CPU across epochs. A CPU whose intervals are disordered or overlap
// goes dead: it holds no pyramids and is never extended again, and
// its snapshots fall back to the lazy per-snapshot build (or, if
// still invalid, to DomCPU.scan).
type domChain struct {
	domSets
	n    int
	dead bool
}

// appendSet extends s by the given intervals; a nil s is the chain
// start.
func appendSet(s *mragg.Set, starts, ends []int64, refs []int32) *mragg.Set {
	if s == nil {
		return mragg.Build(starts, ends, refs, 0)
	}
	return s.Append(starts, ends, refs)
}

// extend appends win, the state events at logical indices
// [ch.n, ch.n+len(win)), to every set. Out-of-range states are left
// out of the per-state sets (their events still participate in the
// all-states set, just not in per-state queries).
func (ch *domChain) extend(win []trace.StateEvent) {
	if ch.dead {
		return
	}
	starts := make([]int64, len(win))
	ends := make([]int64, len(win))
	var perStarts, perEnds [trace.NumWorkerStates][]int64
	var perRefs [trace.NumWorkerStates][]int32
	for j := range win {
		starts[j], ends[j] = win[j].Start, win[j].End
		k := int(win[j].State)
		if k >= trace.NumWorkerStates {
			continue
		}
		perStarts[k] = append(perStarts[k], win[j].Start)
		perEnds[k] = append(perEnds[k], win[j].End)
		perRefs[k] = append(perRefs[k], int32(ch.n+j))
	}
	all := appendSet(ch.all, starts, ends, nil)
	if all == nil {
		// Dead chains free their pyramids: nothing will ever be seeded
		// with them again.
		*ch = domChain{dead: true}
		return
	}
	ch.all = all
	for k := range ch.byState {
		// Subsets of a disjoint sorted set stay disjoint and sorted,
		// so these appends cannot fail.
		ch.byState[k] = appendSet(ch.byState[k], perStarts[k], perEnds[k], perRefs[k])
	}
	ch.n += len(win)
}

// stateAt resolves logical state index i against the single array or
// the segmented view.
func (e *DomCPU) stateAt(i int32) trace.StateEvent {
	if e.segs == nil {
		return e.states[i]
	}
	k := sort.Search(len(e.cum), func(j int) bool { return e.cum[j] > int(i) }) - 1
	return e.segs[k][int(i)-e.cum[k]]
}

// NewDomIndex returns an empty index; entries build lazily per CPU.
func NewDomIndex() *DomIndex {
	return &DomIndex{entries: make(map[int32]*DomCPU)}
}

// entry returns the guarded slot for a CPU, creating it under the map
// lock; the pyramids build outside the lock so CPUs build in parallel.
func (di *DomIndex) entry(cpu int32) *DomCPU {
	di.mu.Lock()
	e, ok := di.entries[cpu]
	if !ok {
		e = &DomCPU{}
		di.entries[cpu] = e
	}
	di.mu.Unlock()
	return e
}

// seed installs a prebuilt entry for a CPU. The batch indexer uses it
// to publish the eagerly built pyramids; the live ingest path uses it
// to hand each snapshot the incrementally extended ones.
func (di *DomIndex) seed(cpu int32, e *DomCPU) {
	slot := di.entry(cpu)
	slot.once.Do(func() {
		slot.states = e.states
		slot.segs = e.segs
		slot.cum = e.cum
		slot.domSets = e.domSets
	})
}

// CPU returns the built pyramids for a CPU (building them from the
// trace's sorted state array on first use — one lock acquisition;
// the returned DomCPU queries lock-free). CPUs outside the trace
// yield an empty, indexed entry, mirroring StatesIn's nil result.
func (di *DomIndex) CPU(tr *Trace, cpu int32) *DomCPU {
	e := di.entry(cpu)
	e.once.Do(func() { e.build(tr.stateCols(cpu)...) })
	return e
}

// build constructs the entry's pyramids over the CPU's state array,
// given as its time-ordered column list: one sorted array for batch
// and unspilled traces; spilled parts then the RAM tail for a spilled
// CPU whose incremental chain is unavailable (dirty producer,
// post-drop rebuild). Empty columns are allowed. Disordered or
// overlapping intervals leave all == nil: queries scan the columns.
func (e *DomCPU) build(cols ...[]trace.StateEvent) {
	var ch domChain
	for _, s := range cols {
		if len(s) > 0 {
			ch.extend(s)
		}
	}
	if ch.n == 0 && !ch.dead {
		// No events: an empty but indexed entry.
		ch.domSets = emptySets()
	}
	e.over(cols...)
	e.domSets = ch.domSets
}

// emptySets returns the pyramids of a CPU without state events, built
// once and shared (sets are immutable): CPU ids are sparse, and a sweep
// over all of them may ask for a million such CPUs.
var emptySets = sync.OnceValue(func() domSets {
	var ch domChain
	ch.extend(nil)
	return ch.domSets
})

// over sets the leaf array the pyramids resolve into, given as its
// time-ordered column list: a single non-empty column resolves leaves
// directly, more go through the segmented view.
func (e *DomCPU) over(cols ...[]trace.StateEvent) {
	at := 0
	for _, s := range cols {
		if len(s) == 0 {
			continue
		}
		switch {
		case at == 0:
			e.states = s
		case e.segs == nil:
			e.segs, e.cum = [][]trace.StateEvent{e.states, s}, []int{0, at}
		default:
			e.segs, e.cum = append(e.segs, s), append(e.cum, at)
		}
		at += len(s)
	}
}

// scan is the one event loop behind every query the pyramids cannot
// serve: unindexable CPUs, out-of-range states and filtered
// task-execution queries. Per column it visits exactly StatesIn's
// window (the same binary search, approximate on overlapping
// intervals), restricted to one state (any when state < 0) and to the
// tasks keep admits (all when nil), and returns the first event of
// strictly greatest clipped cover with that cover, and the sum of the
// positive clipped covers.
func (e *DomCPU) scan(t0, t1 trace.Time, state int, keep func(trace.TaskID) bool) (best trace.StateEvent, bestCover, total trace.Time) {
	for k := 0; k < max(len(e.segs), 1); k++ {
		col := e.states
		if e.segs != nil {
			col = e.segs[k]
		}
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
				bestCover, best = cover, *ev
			}
			if cover > 0 {
				total += cover
			}
		}
	}
	return best, bestCover, total
}

// DominantState returns the state event covering the largest part of
// [t0, t1): the first of strictly greatest cover in event order.
// indexed only reports whether a pyramid served the answer (false on
// a CPU with malformed interval order, which is scanned); the answer
// is the same either way.
func (e *DomCPU) DominantState(t0, t1 trace.Time) (ev trace.StateEvent, ok, indexed bool) {
	ev, ok, _ = e.DominantStateUntil(t0, t1)
	return ev, ok, e.all != nil
}

// DominantStateUntil is DominantState for callers walking adjacent
// windows, such as a row of pixels. until is mragg's horizon: when
// until > t1, every window [a, b) with t0 <= a < b <= until has this
// same answer, so none of them needs asking. A scanned answer knows no
// horizon and says t1.
func (e *DomCPU) DominantStateUntil(t0, t1 trace.Time) (ev trace.StateEvent, ok bool, until trace.Time) {
	if e.all == nil {
		ev, cover, _ := e.scan(t0, t1, -1, nil)
		return ev, cover > 0, t1
	}
	idx, _, ok, until := e.all.Dominant(t0, t1)
	if !ok {
		return trace.StateEvent{}, false, until
	}
	return e.stateAt(int32(idx)), true, until
}

// DominantExec is DominantStateUntil restricted to task-execution
// intervals, and further to the tasks keep admits. A nil keep is the
// unfiltered query the pyramid serves; the match set of a filter is
// not known to the index, so a non-nil keep scans (until == t1).
func (e *DomCPU) DominantExec(t0, t1 trace.Time, keep func(trace.TaskID) bool) (ev trace.StateEvent, ok bool, until trace.Time) {
	set := e.byState[trace.StateTaskExec]
	if set == nil || keep != nil {
		ev, cover, _ := e.scan(t0, t1, int(trace.StateTaskExec), keep)
		return ev, cover > 0, t1
	}
	idx, _, ok, until := set.Dominant(t0, t1)
	if !ok {
		return trace.StateEvent{}, false, until
	}
	return e.stateAt(int32(set.Ref(idx))), true, until
}

// StateCover returns the total time the CPU spent in state within
// [t0, t1): the sum of the clipped covers of its intervals in that
// state, from the state's pyramid when it has one.
func (e *DomCPU) StateCover(state trace.WorkerState, t0, t1 trace.Time) trace.Time {
	if int(state) < trace.NumWorkerStates {
		if set := e.byState[state]; set != nil {
			return set.Cover(t0, t1)
		}
	}
	_, _, total := e.scan(t0, t1, int(state), nil)
	return total
}

// DomIndex returns the trace's shared dominance index, creating it on
// first use. Safe for concurrent callers. Batch loads seed it eagerly
// at index time; live snapshots seed it with incrementally extended
// pyramids; hand-built traces get a lazily filled one.
func (tr *Trace) DomIndex() *DomIndex {
	tr.domOnce.Do(func() {
		tr.dom = NewDomIndex()
	})
	return tr.dom
}

// Package mragg implements a multi-resolution dominance index over
// disjoint time intervals, the state-interval counterpart of the
// min/max sample trees in internal/mmtree. The renderer asks per pixel
// column "which interval covers the largest part of [t0, t1)?", and a
// pyramid answers: each level stores, per bucket of arity children,
// the maximum interval duration below it and the leftmost interval
// achieving it. Only the first and the last interval of a window can
// be clipped, so its dominant interval is the best of (clipped first,
// range-max over the middle, clipped last), tie-broken toward the
// lowest index: exactly the sequential first-strictly-greater scan.
//
// A timeline row asks its index once. Set.Walk answers every column of
// a row in one left-to-right pass over the members and yields runs of
// columns, each with the leaf that answers it: a member covering a
// column whole answers every column up to its end and a gap every
// column up to the next member's start, so the walk jumps them; a
// column holding several members scans its middle when it holds at
// most 2·arity of them and reads it off the pyramid otherwise. A row
// costs O(min(members in view, columns · log n)), and Work counts the
// members read and the range queries made. A filtered walk applies its
// filter to every member it scans and never asks the pyramid.
//
// The index holds summaries, never a copy of an interval: the events
// are read where they live, through a Leaves view (one array, or a
// live column's spilled parts then its RAM tail) handed to every query.
// The identity set (All) spans every leaf of the view and owns its
// pyramid alone. A subset (Sub) picks leaves by ascending refs — one
// worker state's intervals — and owns refs, the prefix sums of their
// durations and a pyramid: 12 bytes an interval plus 16/(arity-1).
// Prefix sums answer "how much of [t0, t1) is covered?" (the derived
// metrics of paper Section III-A) in O(log n), less what the window
// clips off its first and last member (Cover); a row of adjacent
// windows is one left-to-right pass, each window's first member sought
// from the last window's (Covers). A window of at most 2·arity members
// — the rule by which a walk scans a window's middle — is cheaper
// swept: the identity set's Sweep adds every member's clipped cover to
// its state's sum, every state's time in one pass. A subset searches its
// own members through refs: a subset of a disjoint sorted set keeps its
// order (TestRankMapping).
//
// The intervals must be disjoint and sorted, as the trace format
// guarantees per CPU. Extend verifies it and returns nil when a
// producer broke it; the sets' owner (core.DomCPU) then scans instead,
// so a malformed trace degrades in speed, never in correctness. The
// pyramid is an agg.Tree[Node] of (max duration, lowest achieving leaf)
// summaries, combined toward the larger duration and then the lower
// index — commutative and idempotent, so any range decomposition gives
// the same answer.
package mragg

import (
	"fmt"
	"slices"

	"github.com/openstream/aftermath/internal/agg"
	"github.com/openstream/aftermath/internal/tmath"
	"github.com/openstream/aftermath/internal/trace"
)

// DefaultArity is the pyramid fan-out. Smaller than mmtree's 100: a
// dominance query scans up to 2·arity buckets per level, and state
// pyramids are built eagerly at load time, so the balance tilts
// toward cheaper queries; a pyramid stays at 16/(64-1) ≈ 0.25 bytes a
// leaf.
const DefaultArity = 64

// Leaves is the view of a CPU's state events the sets read their
// intervals through: agg's column view (one array for a batch or
// store-backed trace; the spilled parts then the RAM tail for a live
// one).
type Leaves struct {
	agg.Leaves[trace.StateEvent]
}

// Over returns the view of the given time-ordered column list; empty
// columns are skipped.
func Over(cols ...[]trace.StateEvent) Leaves {
	return Leaves{agg.Over(cols...)}
}

// ordered reports whether leaves [from, Len()) keep the disjoint-sorted
// invariant after leaf from-1: no negative-length interval, and none
// beginning before the previous one ended — which keeps starts and ends
// non-decreasing too.
func (lv *Leaves) ordered(from int) bool {
	prevEnd, has, ok := int64(0), from > 0, true
	if has {
		prevEnd = lv.At(from - 1).End
	}
	lv.Each(from, func(_ int, ev *trace.StateEvent) {
		if ev.End < ev.Start || has && ev.Start < prevEnd {
			ok = false
		}
		prevEnd, has = ev.End, true
	})
	return ok
}

// Set is an immutable dominance/cover index over intervals of a Leaves
// view: every leaf (All) or the leaves refs picks (Sub). It holds no
// reference to the view or its events.
type Set struct {
	// refs maps member i of a subset to its leaf in the view, ascending;
	// nil in the identity set, whose member i is leaf i.
	refs []int32
	// prefix[i] is the total duration of a subset's members [0, i),
	// len(refs)+1 long; nil in the identity set — that is what tells
	// the two apart.
	prefix []int64
	// pyramid summarizes, per bucket of arity children, the maximum
	// duration among the members below it and the lowest member index
	// achieving it.
	pyramid agg.Tree[Node]
}

func orDefault(arity int) int {
	if arity < 2 {
		return DefaultArity
	}
	return arity
}

// All returns the empty identity set; Extend grows it over a view.
// Arity values below 2 fall back to DefaultArity.
func All(arity int) *Set {
	return &Set{pyramid: agg.NewTree[Node](orDefault(arity))}
}

// Sub returns the empty subset; Append adds members.
func Sub(arity int) *Set {
	return &Set{prefix: []int64{0}, pyramid: agg.NewTree[Node](orDefault(arity))}
}

// Node is the aggregation summary: the maximum interval duration in a
// leaf run and the lowest leaf index achieving it. Its memory image is
// what the columnar store persists per pyramid node, hence the
// explicit padding: dumped bytes must not depend on what the
// allocator left between Arg and the next node.
type Node struct {
	Max int64
	Arg int32
	_   int32
}

// viewAgg presents a view's event durations to the agg.Agg contract:
// the leaves of the identity set's pyramid.
type viewAgg Leaves

// sumAgg presents a subset's member durations, read off its prefix
// sums.
type sumAgg Set

// Zero implements agg.Agg.
func (a *viewAgg) Zero() Node { return Node{Arg: -1} }

// Zero implements agg.Agg.
func (a *sumAgg) Zero() Node { return Node{Arg: -1} }

// Leaf implements agg.Agg.
func (a *viewAgg) Leaf(i int) Node {
	ev := (*Leaves)(a).At(i)
	return Node{Max: ev.End - ev.Start, Arg: int32(i)}
}

// Leaf implements agg.Agg.
func (a *sumAgg) Leaf(i int) Node { return Node{Max: a.prefix[i+1] - a.prefix[i], Arg: int32(i)} }

// Combine implements agg.Agg: the larger duration wins, ties break
// toward the lower leaf index — the first-strictly-greater scan's
// choice.
func (a *viewAgg) Combine(x, y Node) Node { return combine(x, y) }

// Combine implements agg.Agg.
func (a *sumAgg) Combine(x, y Node) Node { return combine(x, y) }

func combine(x, y Node) Node {
	if y.Max > x.Max || (y.Max == x.Max && y.Arg < x.Arg) {
		return y
	}
	return x
}

// Extend returns the identity set over every leaf of lv, which must be
// the view s covers with leaves added at its end — the live ingest's
// amortized extension, mirroring mmtree.Tree.Append; a build is the
// empty set extended once. It returns nil if the added leaves break the
// disjoint-sorted invariant. s stays valid and immutable: the pyramid
// only grows past its level lengths (agg.Tree.Extend), so sets form a
// linear chain — extend the latest set only.
func (s *Set) Extend(lv *Leaves) *Set {
	if s.prefix != nil {
		panic("mragg: Extend on a subset")
	}
	n := s.pyramid.Len()
	if lv.Len() == n {
		return s
	}
	if !lv.ordered(n) {
		return nil
	}
	return &Set{pyramid: s.pyramid.Extend((*viewAgg)(lv), lv.Len())}
}

// Append returns the subset of lv's leaves refs, which must be s's
// members with more appended: ascending, past s's last member, in a
// view the identity set has accepted (so nothing is left to verify).
// The caller appends the new members to s's own refs (Columns) in
// place, and Append extends the prefix sums and the pyramid the same
// way, amortized. s stays valid and immutable, as nothing below its
// lengths is written: subsets, too, form a linear chain.
func (s *Set) Append(lv *Leaves, refs []int32) *Set {
	if s.prefix == nil {
		panic("mragg: Append on the identity set")
	}
	n0 := len(s.refs)
	if len(refs) == n0 {
		return s
	}
	ns := &Set{refs: refs, prefix: slices.Grow(s.prefix, len(refs)-n0)}
	sum := s.prefix[n0]
	for _, r := range refs[n0:] {
		ev := lv.At(int(r))
		sum += ev.End - ev.Start
		ns.prefix = append(ns.prefix, sum)
	}
	ns.pyramid = s.pyramid.Extend((*sumAgg)(ns), len(refs))
	return ns
}

// Columns exposes the set's storage for serialization into the
// columnar store format: a subset's refs and prefix sums (both nil for
// the identity set) and the pyramid. The returned slices alias the
// set's storage and must not be mutated; only the head of a chain's
// refs may be appended to, to hand to Append.
func (s *Set) Columns() (refs []int32, prefix []int64, pyramid agg.Tree[Node]) {
	return s.refs, s.prefix, s.pyramid
}

// AdoptAll reconstructs an identity set from a pyramid previously
// produced by Columns — typically mmap-backed views of a store file —
// for a view of the given leaf count, without copying. The length
// relations a query indexes by are checked (agg.FromLevels has
// validated the pyramid's own shape); the disjoint-sorted invariant and
// the node contents are trusted.
func AdoptAll(leaves int, pyramid agg.Tree[Node]) (*Set, error) {
	if pyramid.Len() != leaves {
		return nil, fmt.Errorf("mragg: pyramid over %d leaves for %d state events", pyramid.Len(), leaves)
	}
	return &Set{pyramid: pyramid}, nil
}

// AdoptSub is AdoptAll for a subset. refs take part in every window a
// subset answers, so besides the lengths its two ends are checked
// against the view; that they ascend in between is trusted, like the
// order of the events. The resulting set is immutable like any other:
// both columns are clipped to their length, so a member appended to
// them reallocates instead of writing past the adopted column.
func AdoptSub(leaves int, refs []int32, prefix []int64, pyramid agg.Tree[Node]) (*Set, error) {
	n := len(refs)
	if len(prefix) != n+1 || pyramid.Len() != n {
		return nil, fmt.Errorf("mragg: %d refs, %d prefix sums and a pyramid over %d leaves do not describe one set",
			n, len(prefix), pyramid.Len())
	}
	if n > 0 && (refs[0] < 0 || int(refs[n-1]) >= leaves) {
		return nil, fmt.Errorf("mragg: refs [%d … %d] point outside %d state events", refs[0], refs[n-1], leaves)
	}
	return &Set{refs: refs[:n:n], prefix: prefix[: n+1 : n+1], pyramid: pyramid}, nil
}

// Len returns the number of intervals in the set.
func (s *Set) Len() int { return s.pyramid.Len() }

// OverheadBytes returns the memory the set owns: everything the index
// costs beyond the events it reads through the view.
func (s *Set) OverheadBytes() int64 {
	return int64(len(s.refs))*4 + int64(len(s.prefix))*8 + s.pyramid.OverheadBytes()
}

// reader reads a set's members through the view for one query or
// walk. It keeps the view's column of the last leaf read — searches
// close in on one column and walks move through it — so most reads are
// an index or two, and counts them in Work.
type reader struct {
	s    *Set
	lv   *Leaves
	refs []int32
	col  []trace.StateEvent // the view's column holding leaves [lo, lo+len(col))
	lo   int
	n    int
	wide int // the most middle members a window scans: 2·arity
	Work
}

// Work counts what a walk or a query did: the member intervals it read
// and the pyramid range queries it made.
type Work struct{ Members, Queries int }

func (s *Set) reader(lv *Leaves) reader {
	return reader{s: s, lv: lv, refs: s.refs, col: lv.Col(0), n: s.Len(), wide: 2 * s.pyramid.Arity()}
}

// at returns member i's interval.
func (r *reader) at(i int) *trace.StateEvent {
	r.Members++
	j := r.leaf(i) - r.lo
	if uint(j) >= uint(len(r.col)) {
		j = r.load(i)
	}
	return &r.col[j]
}

// load moves the reader to the column holding member i and returns i's
// index in it.
func (r *reader) load(i int) int {
	leaf := r.leaf(i)
	k := r.lv.Locate(leaf)
	r.col, r.lo = r.lv.Col(k), r.lv.Start(k)
	return leaf - r.lo
}

// leaf returns the leaf of member i.
func (r *reader) leaf(i int) int {
	if r.refs != nil {
		return int(r.refs[i])
	}
	return i
}

// search returns the first member in [i, hi) past t — ending after t,
// or with start, starting at or after t; both grow with the member
// index — or hi, and its interval: ev is member hi's, nil past the last.
func (r *reader) search(i, hi int, ev *trace.StateEvent, t int64, start bool) (int, *trace.StateEvent) {
	for i < hi {
		m := int(uint(i+hi) >> 1)
		if e := r.at(m); start && e.Start >= t || !start && e.End > t {
			hi, ev = m, e
		} else {
			i = m + 1
		}
	}
	return i, ev
}

// seek is search over [i, Len()) for a cursor moving forward, no member
// before i past t: it gallops out from i, paying O(log distance moved).
func (r *reader) seek(i int, t int64, start bool) (int, *trace.StateEvent) {
	for p, step := i, 1; p < r.n; p, step = p+step, step<<1 {
		if ev := r.at(p); start && ev.Start >= t || !start && ev.End > t {
			return r.search(i, p, ev, t, start)
		}
		i = p + 1
	}
	return r.search(i, r.n, nil, t, start)
}

// clip returns the length of ev's overlap with [t0, t1).
func clip(ev *trace.StateEvent, t0, t1 int64) int64 {
	return max(min(ev.End, t1)-max(ev.Start, t0), 0)
}

// rangeMax returns the maximum duration among members [lo, hi) and the
// lowest member index achieving it, via the generic pyramid walk.
func (s *Set) rangeMax(lv *Leaves, lo, hi int) Node {
	if s.prefix != nil {
		d, _ := s.pyramid.Query((*sumAgg)(s), lo, hi)
		return d
	}
	d, _ := s.pyramid.Query((*viewAgg)(lv), lo, hi)
	return d
}

// Run is a run of a row's columns [X0, X1) that one leaf of the view
// answers, or none when Leaf is -1.
type Run struct{ X0, X1, Leaf int }

// Walk is one row's pass over a set's members: see Set.Walk.
type Walk struct {
	r    reader
	cols tmath.Columns
	cur  tmath.Cursor
	keep func(trace.TaskID) bool
	// x is the next column, i its cursor — every member before i ends by
	// the column's start — and ev member i's interval, nil past the last.
	x, i  int
	ev    *trace.StateEvent
	dense bool // the last column's middle went to the pyramid
}

// Walk returns the walk over the columns of cols, a plot of the view
// lv that s was built over. It answers each column with the member of
// greatest clipped cover among those keep admits (all when nil), the
// first of them on a tie, or none when no member covers any of it: the
// sequential scan's answer (see the package doc). A plot of one column
// may span more than 2^63-1 cycles.
func (s *Set) Walk(lv *Leaves, cols tmath.Columns, keep func(trace.TaskID) bool) Walk {
	w := Walk{r: s.reader(lv), cols: cols, cur: cols.Cursor(), keep: keep}
	w.i, w.ev = w.r.search(0, w.r.n, nil, cols.Start, false)
	return w
}

// Next appends the row's next runs to runs, as many as its capacity
// holds, and returns it: empty once every column is answered. Runs are
// consecutive; two in a row may carry the same leaf.
func (w *Walk) Next(runs []Run) []Run {
	r, cur, x1, i, ev, dense, keep := &w.r, w.cur, w.x, w.i, w.ev, w.dense, w.keep
	for x1 < w.cols.W && len(runs) < cap(runs) {
		x0, leaf := x1, -1
		t0, t1 := cur.Window(x0)
		if ev != nil && ev.End <= t0 {
			i, ev = r.seek(i+1, t0, false)
		}
		switch x1 = x0 + 1; {
		case ev == nil:
			x1 = w.cols.W
		case ev.Start >= t1:
			x1 = w.cols.LastBy(ev.Start) + 1
		case ev.Start <= t0 && t1 <= ev.End:
			// Disjointness leaves it alone up to its end.
			x1 = w.cols.LastBy(ev.End) + 1
			if keep == nil || keep(ev.Task) {
				leaf = r.leaf(i)
			}
		default:
			lo := i
			var at int
			var last *trace.StateEvent
			if at, i, last, ev = r.weigh(i, ev, t0, t1, keep, dense); at >= 0 {
				leaf = r.leaf(at)
			}
			// The next window starts at t1 — columns narrower than a
			// cycle are one cycle wide, and one member covers such a
			// column whole if any does — so the last member is its first
			// if it reaches past t1.
			if dense = i-lo-2 > r.wide; last.End > t1 {
				i, ev = i-1, last
			}
		}
		runs = append(runs, Run{X0: x0, X1: x1, Leaf: leaf})
	}
	w.x, w.cur, w.i, w.ev, w.dense = x1, cur, i, ev, dense
	return runs
}

// Work returns what the walk has done so far.
func (w *Walk) Work() Work { return w.r.Work }

// Cover returns the total time of [t0, t1) covered by the intervals of
// a subset of lv: prefix sums over its members in the window, less what
// the window clips off the first and the last. Exact, O(log n). The
// identity set keeps no prefix sums and cannot be asked.
func (s *Set) Cover(lv *Leaves, t0, t1 int64) int64 {
	var out [1]int64
	s.Covers(lv, []int64{t0, t1}, out[:])
	return out[0]
}

// Covers writes to out[i] what Cover answers for window
// [bounds[i], bounds[i+1]), for each of the len(bounds)-1 adjacent
// windows the non-decreasing bounds cut, in one left-to-right pass: a
// window's first member is sought from the last window's last, its last
// galloping on from there, so a row of windows costs a search each over
// the members it moves past, not two over the whole set. Equal bounds
// make an empty window, which covers nothing; bounds that fall make an
// inverted one, which covers nothing either, and restart the pass.
func (s *Set) Covers(lv *Leaves, bounds, out []int64) {
	r := s.reader(lv)
	lo, hi := 0, 0
	if len(out) > 0 {
		lo, _ = r.search(0, r.n, nil, bounds[0], false)
	}
	for i := range out {
		t0, t1 := bounds[i], bounds[i+1]
		// Members before max(lo, hi-1) end by the last window's end, t0.
		var first *trace.StateEvent
		lo, first = r.seek(max(lo, hi-1), t0, false)
		hi, _ = r.seek(lo, t1, true)
		if out[i] = 0; lo >= hi || t1 <= t0 {
			// An inverted window can sit inside one interval, which then
			// is both bounds' answer; it covers nothing.
			if t1 < t0 {
				lo, hi = 0, 0 // bounds that fall restart the pass
			}
			continue
		}
		total := s.prefix[hi] - s.prefix[lo]
		if first.Start < t0 {
			total -= t0 - first.Start
		}
		if last := r.at(hi - 1); last.End > t1 {
			total -= last.End - t1
		}
		out[i] = total
	}
}

// Sweep adds to out[ev.State] the clipped cover of every leaf ev of
// the identity set overlapping [t0, t1) whose state indexes out, and
// reports true, when the window holds at most 2·arity leaves — the rule
// by which weigh scans a window's middle. A wider window is the
// subsets' prefix sums' to answer (Cover): Sweep adds nothing and
// reports false.
func (s *Set) Sweep(lv *Leaves, t0, t1 int64, out []int64) bool {
	if s.prefix != nil {
		panic("mragg: Sweep on a subset")
	}
	if t1 <= t0 {
		return true
	}
	r := s.reader(lv)
	lo, _ := r.search(0, r.n, nil, t0, false)
	end := lo + r.wide
	if end < r.n && r.at(end).Start < t1 {
		return false
	}
	hi, _ := r.search(lo, min(end, r.n), nil, t1, true)
	// Leaf i is member i: sweep the view's columns in place.
	for i := lo; i < hi; {
		r.at(i)
		col := r.col[i-r.lo : min(hi-r.lo, len(r.col))]
		for j := range col {
			if ev := &col[j]; int(ev.State) < len(out) {
				out[ev.State] += clip(ev, t0, t1)
			}
		}
		i += len(col)
	}
	return true
}

// weigh answers window [t0, t1) from its first member i, whose interval
// is ev. It returns the first member of strictly greatest clipped cover
// that keep admits, -1 for none; hi, the first member starting at or
// after t1; and the intervals of members hi-1 and hi (nil past the
// last). Only the first and the last member can be clipped, so the
// middle's covers are whole durations: unfiltered, a middle of more
// than 2·arity members is read off the pyramid — the scan stops short,
// right after the first member when the last window was as dense, and
// searches on for hi. A filter is unknown to the pyramid: with keep
// every member is scanned.
func (r *reader) weigh(i int, ev *trace.StateEvent, t0, t1 int64, keep func(trace.TaskID) bool, dense bool) (at, hi int, last, _ *trace.StateEvent) {
	stop, refs, col, off, lo := r.n, r.refs, r.col, r.lo, i
	if keep == nil && dense {
		stop = i + 1
	} else if keep == nil {
		stop = min(r.n, i+r.wide+2)
	}
	var best int64
	for at = -1; ; {
		c := clip(ev, t0, t1)
		if keep != nil && !keep(ev.Task) {
			c = 0
		}
		if c > best { // a conditional move, not a branch
			best, at = c, i
		}
		if last, i = ev, i+1; i == stop {
			break
		}
		// r.at(i), inlined while the member lies in col.
		j := i
		if refs != nil {
			j = int(refs[i])
		}
		if j -= off; uint(j) >= uint(len(col)) {
			j, col, off = r.load(i), r.col, r.lo
		}
		if ev = &col[j]; ev.Start >= t1 {
			r.Members += i - lo
			return at, i, last, ev
		}
	}
	if r.Members += i - lo - 1; i == r.n {
		return at, i, last, nil
	}
	// Members [mid, hi-1) are the rest of the middle, hi-1 the last.
	mid := i
	if hi, ev = r.seek(mid, t1, true); hi-lo-2 > r.wide {
		r.Queries++
		if d := r.s.rangeMax(r.lv, mid, hi-1); d.Max > best {
			best, at = d.Max, int(d.Arg)
		}
		mid = hi - 1
	}
	for j := mid; j < hi; j++ {
		if last = r.at(j); clip(last, t0, t1) > best {
			best, at = clip(last, t0, t1), j
		}
	}
	return at, hi, last, ev
}

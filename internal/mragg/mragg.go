// Package mragg implements a multi-resolution dominance index over
// disjoint time intervals — the state-interval counterpart of the
// min/max sample trees in internal/mmtree. The renderer's per-pixel
// question is "which interval covers the largest part of [t0, t1)?";
// answering it by scanning every overlapping event makes dense pixels
// cost O(events per pixel). This package answers it from a mip-level
// pyramid instead: each level stores, per bucket of arity children,
// the maximum interval duration below the bucket and the leftmost
// interval achieving it, so a query touches O(arity · log_arity n)
// buckets however many events the window covers.
//
// The decomposition is exact, not approximate: for a query window,
// only the first and last overlapping intervals can be clipped by the
// window; every other overlapping interval contributes its full
// duration. The dominant interval is therefore the best of (clipped
// first, range-max over the fully-contained middle, clipped last),
// tie-broken toward the lowest index — precisely the result of the
// sequential first-strictly-greater scan the renderer used, which is
// why replacing the scan keeps framebuffers byte-identical.
//
// The index holds summaries, never a copy of an interval. The
// intervals are a CPU's state events, read where they already live
// through a Leaves view (one array, or the spilled parts of a live
// column followed by its RAM tail), and every query is handed the view
// its set was built over. A Set is one of two shapes of one type. The
// identity set (All) spans every leaf of the view and owns its pyramid
// and nothing else. A subset (Sub) picks leaves by ascending refs —
// the intervals of one worker state — and owns refs, the prefix sums
// of their durations and a pyramid: 12 bytes an interval plus
// 16/(arity-1). Prefix sums answer "how much of [t0, t1) is covered?"
// (per worker state: the derived metrics of paper Section III-A) in
// O(log n), and give a subset's pyramid its leaf durations without
// chasing a ref. Both shapes find a window by one pair of searches over
// their own members, bounds read through refs for a subset: a subset of
// a disjoint sorted set keeps its order, so what they find is exactly
// the refs inside the view's window — without searching the whole view
// for it first, which costs a sparse state three times its own search
// (TestRankMapping holds the two equal).
//
// A dominance query takes a hint, from, and returns the next one: the
// window's first member. A caller asking about windows whose start
// never decreases — a row of pixels, left to right — passes each
// answer's next to the following query, whose lower bound then gallops
// forward from it in O(log distance) instead of searching every member.
// Any value is safe: the gallop is taken only when member from-1 ends
// at or before the window's start, which puts the window's first member
// at or past from; every other hint (0, past the end, or left over from
// a later window) runs the full search. The answer never depends on the
// hint, only its cost does.
//
// The index requires its intervals to be disjoint and sorted — the
// ordering the trace format guarantees per CPU. Extend verifies the
// invariant and returns nil when a producer violated it. The owner of
// the sets and of the events under them (core.DomCPU) answers such a
// CPU's queries from its event scan, so users of the index never branch
// on it and a malformed trace degrades to the old cost instead of a
// wrong answer.
//
// The pyramid is an instantiation of the generic aggregation framework
// in internal/agg: the summary is a (max duration, lowest achieving
// leaf index) Node, Combine keeps the larger duration tie-broken
// toward the lower index (commutative and idempotent, so any range
// decomposition yields byte-identical results), and an agg.Tree[Node]
// holds the levels.
package mragg

import (
	"fmt"
	"math"
	"slices"

	"github.com/openstream/aftermath/internal/agg"
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
// invariant after leaf from-1: starts non-decreasing, ends
// non-decreasing, no interval beginning before the previous one ended,
// and no negative-length intervals.
func (lv *Leaves) ordered(from int) bool {
	var prevStart, prevEnd int64
	has := from > 0
	if has {
		prev := lv.At(from - 1)
		prevStart, prevEnd = prev.Start, prev.End
	}
	ok := true
	lv.Each(from, func(_ int, ev *trace.StateEvent) {
		if ev.End < ev.Start || has && (ev.Start < prevStart || ev.End < prevEnd || ev.Start < prevEnd) {
			ok = false
		}
		prevStart, prevEnd, has = ev.Start, ev.End, true
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
// toward the lower leaf index. In build folds the left operand always
// carries the lower index, so ties keep the left summary — the
// first-strictly-greater semantics of the sequential scan this index
// replaces.
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
// the view s covers with leaves added at its end — the amortized
// extension mode of the live streaming ingest path, mirroring
// mmtree.Tree.Append; a build is the empty set extended once. Returns
// nil if the added leaves break the disjoint-sorted invariant (the
// caller then falls back to scanning).
//
// s itself stays valid and immutable: the pyramid only grows past its
// level lengths (agg.Tree.Extend), which s never reads past. As with
// mmtree, sets must form a linear chain — extend the latest set only.
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
// view the identity set has accepted (a subset of a disjoint sorted set
// is one itself, so nothing is left to verify). The caller appends the
// new members to s's own refs (Columns) in place, and Append extends
// the prefix sums and the pyramid the same way — amortized, each
// allocated once at its size when the chain starts empty. s stays valid
// and immutable, because nothing below its lengths is written; hence
// subsets, like identity sets, form a linear chain.
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

// leaf returns the leaf of member i.
func (s *Set) leaf(i int) int {
	if s.prefix == nil {
		return i
	}
	return int(s.refs[i])
}

// at returns member i's interval.
func (s *Set) at(lv *Leaves, i int) *trace.StateEvent { return lv.At(s.leaf(i)) }

// dur returns the duration of member i: a subset reads it off its
// prefix sums, chasing no ref.
func (s *Set) dur(lv *Leaves, i int) int64 {
	if s.prefix != nil {
		return s.prefix[i+1] - s.prefix[i]
	}
	ev := lv.At(i)
	return ev.End - ev.Start
}

// span returns the member range [lo, hi) overlapping [t0, t1): lo is
// the first member ending after t0, hi the first from lo on starting at
// or after t1. Both bounds grow with the member index, in a subset as
// in the view. The lower bound gallops forward from the hint when
// member from-1 ends at or before t0 — every member before it then does
// too — and is searched for among all members otherwise. The upper
// bound gallops from the lower one: a pixel's window holds few members
// however many the set does.
func (s *Set) span(lv *Leaves, from int, t0, t1 int64) (lo, hi int) {
	// Member i's interval, with what the set and the view fix hoisted
	// out of the probes: on a one-column view it is an index or two.
	one, refs, flat := lv.Col(0), s.refs, lv.Cols() <= 1
	cols := colCursor{lv: lv}
	at := func(i int) *trace.StateEvent {
		if refs != nil {
			i = int(refs[i])
		}
		if flat {
			return &one[i]
		}
		return cols.at(i)
	}
	n := s.Len()
	hi = n
	if 0 < from && from <= n && at(from-1).End <= t0 {
		step := 1
		for lo = from; lo+step <= n && at(lo+step-1).End <= t0; step <<= 1 {
			lo += step
		}
		hi = min(lo+step-1, n)
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); at(m).End > t0 {
			hi = m
		} else {
			lo = m + 1
		}
	}
	up, step := lo, 1
	for up+step <= n && at(up+step-1).Start < t1 {
		up += step
		step <<= 1
	}
	hi = min(up+step-1, n)
	for up < hi {
		if m := int(uint(up+hi) >> 1); at(m).Start >= t1 {
			hi = m
		} else {
			up = m + 1
		}
	}
	return lo, up
}

// colCursor reads the leaves of a view of several columns, keeping the
// column of the last leaf read: a search's probes close in on one
// column, so most of them skip the column lookup.
type colCursor struct {
	lv     *Leaves
	col    []trace.StateEvent
	lo, hi int // the logical range of col
}

func (c *colCursor) at(i int) *trace.StateEvent {
	if i < c.lo || i >= c.hi {
		k := c.lv.Locate(i)
		c.col, c.lo = c.lv.Col(k), c.lv.Start(k)
		c.hi = c.lo + len(c.col)
	}
	return &c.col[i-c.lo]
}

// clip returns the length of ev's overlap with [t0, t1).
func clip(ev *trace.StateEvent, t0, t1 int64) int64 {
	return max(min(ev.End, t1)-max(ev.Start, t0), 0)
}

// Dominant returns the leaf of lv — the view s was built over — whose
// interval covers the largest part of [t0, t1) among the set's, and
// that cover. Ties break toward the lowest index, and ok is false when
// no interval covers a positive amount — exactly the semantics of a
// sequential scan that keeps the first interval with a strictly greater
// cover.
//
// until tells how far the answer reaches, for callers walking
// adjacent windows: when until > t1, every window [a, b) with
// t0 <= a < b <= until has this same answer (the same leaf, or the same
// !ok). That is the case when one interval covers [t0, t1) whole —
// disjointness leaves it alone up to its end — and when nothing
// overlaps it, up to the next interval's start. Every other answer
// depends on where the window's edges fall and says until == t1.
//
// from is the hint and next the one to pass on (see the package doc):
// next is the window's first member, where the search for any window
// starting at or after t0 may begin. No value of from changes the
// answer.
func (s *Set) Dominant(lv *Leaves, from int, t0, t1 int64) (leaf int, cover int64, ok bool, until int64, next int) {
	lo, hi := s.span(lv, from, t0, t1)
	if lo >= hi {
		until = math.MaxInt64
		if lo < s.Len() {
			until = s.at(lv, lo).Start
		}
		return 0, 0, false, until, lo
	}
	// Only the first and last overlapping intervals can be clipped by
	// the window; the middle contributes full durations, walked when
	// they are few enough to beat setting up the pyramid walk and
	// answered by the pyramid otherwise. Taken in index order, a
	// strictly greater cover is the lowest index of the greatest.
	first := s.at(lv, lo)
	if hi-lo == 1 && first.Start <= t0 && t1 <= first.End && t0 < t1 {
		return s.leaf(lo), t1 - t0, true, first.End, lo
	}
	best, at := clip(first, t0, t1), lo
	if mlo, mhi := lo+1, hi-1; mhi-mlo > s.pyramid.Arity() {
		if d := s.rangeMax(lv, mlo, mhi); d.Max > best {
			best, at = d.Max, int(d.Arg)
		}
	} else {
		for i := mlo; i < mhi; i++ {
			if d := s.dur(lv, i); d > best {
				best, at = d, i
			}
		}
	}
	if hi-1 > lo {
		if c := clip(s.at(lv, hi-1), t0, t1); c > best {
			best, at = c, hi-1
		}
	}
	if best <= 0 {
		return 0, 0, false, t1, lo
	}
	return s.leaf(at), best, true, t1, lo
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

// Cover returns the total time of [t0, t1) covered by the intervals of
// a subset of lv: prefix sums over its members in the window, less what
// the window clips off the first and the last. Exact, O(log n). The
// identity set keeps no prefix sums and cannot be asked.
func (s *Set) Cover(lv *Leaves, t0, t1 int64) int64 {
	lo, hi := s.span(lv, 0, t0, t1)
	if lo >= hi || t1 <= t0 {
		// An inverted window can sit inside one interval, which then is
		// both bounds' answer; it covers nothing.
		return 0
	}
	total := s.prefix[hi] - s.prefix[lo]
	if first := lv.At(int(s.refs[lo])); first.Start < t0 {
		total -= t0 - first.Start
	}
	if last := lv.At(int(s.refs[hi-1])); last.End > t1 {
		total -= last.End - t1
	}
	return total
}

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
// first, pyramid range-max over the fully-contained middle, clipped
// last), tie-broken toward the lowest index — precisely the result of
// the sequential first-strictly-greater scan the renderer used, which
// is why replacing the scan keeps framebuffers byte-identical.
//
// A Set also carries prefix sums of interval durations, answering
// "how much of [t0, t1) is covered?" (per worker state: the derived
// metrics of paper Section III-A) in O(log n) with the same exactness
// argument.
//
// The index requires its intervals to be disjoint and sorted — the
// ordering the trace format guarantees per CPU and per event family.
// Build and Append verify the invariant and return nil when a
// producer violated it. The owner of the sets and of the events under
// them (core.DomCPU) answers such a CPU's queries from its event scan,
// so users of the index never branch on it and a malformed trace
// degrades to the old cost instead of a wrong answer.
//
// The pyramid is an instantiation of the generic aggregation framework
// in internal/agg: the summary is a (max duration, lowest achieving
// leaf index) Node, Combine keeps the larger duration tie-broken
// toward the lower index (commutative and idempotent, so any range
// decomposition yields byte-identical results), and an agg.Tree[Node]
// holds the levels. This package adds the interval leaf columns, the
// order validation, the clipped-edge handling and the prefix sums
// behind Cover.
package mragg

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/openstream/aftermath/internal/agg"
)

// DefaultArity is the pyramid fan-out. Smaller than mmtree's 100: a
// dominance query scans up to 2·arity buckets per level, and state
// pyramids are built eagerly at load time, so the balance tilts
// toward cheaper queries; the overhead stays ~2·16/(64·16) ≈ 3% of
// the leaf data.
const DefaultArity = 64

// Set is an immutable dominance/cover index over disjoint intervals
// sorted by start time.
type Set struct {
	starts []int64
	ends   []int64
	// refs optionally maps leaf i to an index in the caller's source
	// array (used for subset indexes, e.g. task-execution intervals
	// within a CPU's full state array); nil means identity.
	refs []int32
	// prefix[i] is the total duration of intervals [0, i); nil for the
	// empty set, else len(starts)+1 long.
	prefix []int64
	// pyramid summarizes, per bucket of arity children, the maximum
	// duration among the leaves below it and the lowest leaf index
	// achieving it.
	pyramid agg.Tree[Node]
}

// ordered reports whether appending (starts, ends) after an interval
// ending at prevEnd (with start prevStart) keeps the disjoint-sorted
// invariant: starts non-decreasing, ends non-decreasing, no interval
// beginning before the previous one ended, and no negative-length
// intervals.
func ordered(prevStart, prevEnd int64, has bool, starts, ends []int64) bool {
	for i := range starts {
		if ends[i] < starts[i] {
			return false
		}
		if has && (starts[i] < prevStart || ends[i] < prevEnd || starts[i] < prevEnd) {
			return false
		}
		prevStart, prevEnd, has = starts[i], ends[i], true
	}
	return true
}

// Build constructs a Set over intervals [starts[i], ends[i]), which
// must be disjoint and sorted by start; nil is returned otherwise
// (callers fall back to scanning). It is the empty set, appended to
// once. refs may be nil (identity) or give the source index of each
// leaf. Arity values below 2 fall back to DefaultArity. The input
// slices are retained, not copied.
func Build(starts, ends []int64, refs []int32, arity int) *Set {
	if arity < 2 {
		arity = DefaultArity
	}
	return (&Set{pyramid: agg.NewTree[Node](arity)}).Append(starts, ends, refs)
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

// domAgg adapts a Set's interval durations to the agg.Agg contract.
type domAgg Set

// Zero implements agg.Agg.
func (a *domAgg) Zero() Node { return Node{Arg: -1} }

// Leaf implements agg.Agg.
func (a *domAgg) Leaf(i int) Node { return Node{Max: a.ends[i] - a.starts[i], Arg: int32(i)} }

// Combine implements agg.Agg: the larger duration wins, ties break
// toward the lower leaf index. In build folds the left operand always
// carries the lower index, so ties keep the left summary — the
// first-strictly-greater semantics of the sequential scan this index
// replaces.
func (a *domAgg) Combine(x, y Node) Node {
	if y.Max > x.Max || (y.Max == x.Max && y.Arg < x.Arg) {
		return y
	}
	return x
}

// Append returns a Set over the concatenation of s's intervals and
// the given ones — the amortized extension mode of the live streaming
// ingest path, mirroring mmtree.Tree.Append. Returns nil if the
// appended intervals break the disjoint-sorted invariant (the caller
// then rebuilds or falls back to scanning). The empty set adopts the
// incoming slices (and refs presence) wholesale; this is how Build
// retains its inputs and how per-class chains bootstrap.
//
// s itself stays valid and immutable: pyramid levels are fresh
// arrays, and leaf storage is extended with append, which never
// touches elements below s's length. As with mmtree, sets must form a
// linear chain — append once per epoch to the latest set only.
func (s *Set) Append(starts, ends []int64, refs []int32) *Set {
	if len(starts) != len(ends) || (refs != nil && len(refs) != len(starts)) {
		panic("mragg: slice length mismatch")
	}
	if len(starts) == 0 {
		return s
	}
	n := len(s.starts)
	var prevStart, prevEnd int64
	if n > 0 {
		if (s.refs == nil) != (refs == nil) {
			panic("mragg: refs presence mismatch with existing set")
		}
		prevStart, prevEnd = s.starts[n-1], s.ends[n-1]
	}
	if !ordered(prevStart, prevEnd, n > 0, starts, ends) {
		return nil
	}
	ns := &Set{
		starts: extend(s.starts, starts),
		ends:   extend(s.ends, ends),
		refs:   extend(s.refs, refs),
		prefix: slices.Grow(s.prefix, len(starts)+1),
	}
	if n == 0 {
		ns.prefix = append(ns.prefix, 0)
	}
	for i := range starts {
		ns.prefix = append(ns.prefix, ns.prefix[n+i]+(ends[i]-starts[i]))
	}
	ns.pyramid = s.pyramid.Extend((*domAgg)(ns), len(ns.starts))
	return ns
}

// extend returns col followed by add; an empty column adopts add
// itself rather than copying it.
func extend[T any](col, add []T) []T {
	if len(col) == 0 {
		return add
	}
	return append(col, add...)
}

// Columns exposes the set's storage for serialization into the
// columnar store format: the interval columns, the optional leaf refs
// (nil means identity), the duration prefix sums and the pyramid. The
// returned slices alias the set's storage and must not be mutated.
func (s *Set) Columns() (starts, ends, prefix []int64, refs []int32, pyramid agg.Tree[Node]) {
	return s.starts, s.ends, s.prefix, s.refs, s.pyramid
}

// Adopt reconstructs a set from columns previously produced by
// Columns — typically mmap-backed views of a store file — without
// copying. Every length relation a query indexes by is checked
// (agg.FromLevels has validated the pyramid's own shape); the
// disjoint-sorted invariant and the node contents are trusted. The
// resulting set is immutable like any other: Append never mutates
// adopted columns because appends on full slices reallocate.
func Adopt(starts, ends, prefix []int64, refs []int32, pyramid agg.Tree[Node]) (*Set, error) {
	n := len(starts)
	wantPrefix := n + 1
	if n == 0 {
		wantPrefix = 0
	}
	if len(ends) != n || len(prefix) != wantPrefix || (refs != nil && len(refs) != n) || pyramid.Len() != n {
		return nil, fmt.Errorf("mragg: %d starts, %d ends, %d prefix sums, %d refs and a pyramid over %d leaves do not describe one set",
			n, len(ends), len(prefix), len(refs), pyramid.Len())
	}
	return &Set{starts: starts, ends: ends, refs: refs, prefix: prefix, pyramid: pyramid}, nil
}

// Len returns the number of intervals.
func (s *Set) Len() int { return len(s.starts) }

// Start and End return the bounds of interval i.
func (s *Set) Start(i int) int64 { return s.starts[i] }

// End returns the end of interval i.
func (s *Set) End(i int) int64 { return s.ends[i] }

// Ref returns the source index of leaf i (identity when the set was
// built without refs).
func (s *Set) Ref(i int) int {
	if s.refs == nil {
		return i
	}
	return int(s.refs[i])
}

// OverheadBytes returns the memory consumed by the pyramid levels and
// prefix sums beyond the leaf interval data.
func (s *Set) OverheadBytes() int64 {
	return int64(len(s.prefix))*8 + s.pyramid.OverheadBytes()
}

// span returns the leaf index range [lo, hi) of intervals overlapping
// [t0, t1) — identical to the binary searches of core.Trace.StatesIn.
func (s *Set) span(t0, t1 int64) (int, int) {
	lo := sort.Search(len(s.ends), func(i int) bool { return s.ends[i] > t0 })
	hi := sort.Search(len(s.starts), func(i int) bool { return s.starts[i] >= t1 })
	return lo, hi
}

// clip returns the length of interval i's overlap with [t0, t1).
func (s *Set) clip(i int, t0, t1 int64) int64 {
	a, b := s.starts[i], s.ends[i]
	if a < t0 {
		a = t0
	}
	if b > t1 {
		b = t1
	}
	if b <= a {
		return 0
	}
	return b - a
}

// Dominant returns the leaf index of the interval covering the
// largest part of [t0, t1) and that cover. Ties break toward the
// lowest index, and ok is false when no interval covers a positive
// amount — exactly the semantics of a sequential scan that keeps the
// first interval with a strictly greater cover.
//
// until tells how far the answer reaches, for callers walking
// adjacent windows: when until > t1, every window [a, b) with
// t0 <= a < b <= until has this same answer (the same idx, or the same
// !ok). That is the case when one interval covers [t0, t1) whole —
// disjointness leaves it alone up to its end — and when nothing
// overlaps it, up to the next interval's start. Every other answer
// depends on where the window's edges fall and says until == t1.
func (s *Set) Dominant(t0, t1 int64) (idx int, cover int64, ok bool, until int64) {
	lo, hi := s.span(t0, t1)
	if lo >= hi {
		until = math.MaxInt64
		if lo < len(s.starts) {
			until = s.starts[lo]
		}
		return 0, 0, false, until
	}
	if hi-lo == 1 && s.starts[lo] <= t0 && t1 <= s.ends[lo] && t0 < t1 {
		return lo, t1 - t0, true, s.ends[lo]
	}
	if hi-lo <= s.pyramid.Arity() {
		// Exact-scan fallback for narrow windows: few enough leaves
		// that walking them beats setting up the pyramid walk.
		idx, cover, ok = s.scan(lo, hi, t0, t1)
		return idx, cover, ok, t1
	}
	best, bestIdx := int64(0), -1
	take := func(cover int64, i int) {
		if cover > best || (cover == best && bestIdx >= 0 && i < bestIdx) {
			best, bestIdx = cover, i
		}
	}
	// Only the first and last overlapping intervals can be clipped by
	// the window; the middle contributes full durations, answered by
	// the pyramid.
	mlo, mhi := lo, hi
	if s.starts[lo] < t0 {
		take(s.clip(lo, t0, t1), lo)
		mlo = lo + 1
	}
	if s.ends[hi-1] > t1 {
		take(s.clip(hi-1, t0, t1), hi-1)
		mhi = hi - 1
	}
	if mlo < mhi {
		mx, arg := s.rangeMax(mlo, mhi)
		take(mx, arg)
	}
	if best <= 0 {
		return 0, 0, false, t1
	}
	return bestIdx, best, true, t1
}

// scan is the exact per-leaf evaluation over [lo, hi), used for
// narrow windows and as the reference the pyramid path must match.
func (s *Set) scan(lo, hi int, t0, t1 int64) (int, int64, bool) {
	best, bestIdx := int64(0), 0
	for i := lo; i < hi; i++ {
		if c := s.clip(i, t0, t1); c > best {
			best, bestIdx = c, i
		}
	}
	return bestIdx, best, best > 0
}

// rangeMax returns the maximum duration among leaves [lo, hi) and the
// lowest leaf index achieving it, via the generic pyramid walk.
func (s *Set) rangeMax(lo, hi int) (int64, int) {
	d, ok := s.pyramid.Query((*domAgg)(s), lo, hi)
	if !ok {
		return 0, -1
	}
	return d.Max, int(d.Arg)
}

// Cover returns the total time of [t0, t1) covered by the set's
// intervals: prefix sums over the fully-contained middle plus the
// clipped first and last interval. Exact, O(log n).
func (s *Set) Cover(t0, t1 int64) int64 {
	lo, hi := s.span(t0, t1)
	if lo >= hi {
		return 0
	}
	total := s.prefix[hi] - s.prefix[lo]
	if s.starts[lo] < t0 {
		total -= t0 - s.starts[lo]
	}
	if s.ends[hi-1] > t1 {
		total -= s.ends[hi-1] - t1
	}
	return total
}

// Package mmtree implements the n-ary min/max search tree Aftermath
// builds over each performance counter's samples (Section VI-B-c of
// the paper): for any time interval, the minimum and maximum counter
// value is found without scanning all samples, which makes rendering a
// counter at any zoom level proportional to the output resolution
// rather than the sample count.
//
// The tree is an instantiation of the generic aggregation framework in
// internal/agg: the summary is a (min, max) Node, Combine is the
// componentwise min/max (commutative and idempotent, so any range
// decomposition yields byte-identical results), and an agg.Tree[Node]
// holds the pyramid. This package adds the (time, value) leaf columns
// and the time-to-index searches.
//
// The default arity of 100 keeps the tree's memory overhead below 5%
// of the sample data, as in the paper.
package mmtree

import (
	"fmt"
	"sort"

	"github.com/openstream/aftermath/internal/agg"
)

// DefaultArity is the paper's tree arity.
const DefaultArity = 100

// Tree is an immutable n-ary min/max tree over (time, value) samples
// sorted by time.
type Tree struct {
	times   []int64
	values  []int64
	pyramid agg.Tree[Node]
}

// Node is the aggregation summary: the value range of a sample run.
// Its memory image is what the columnar store persists per pyramid
// node.
type Node struct{ Min, Max int64 }

// mmAgg adapts a Tree's sample values to the agg.Agg contract.
type mmAgg Tree

// Zero implements agg.Agg.
func (a *mmAgg) Zero() Node { return Node{} }

// Leaf implements agg.Agg.
func (a *mmAgg) Leaf(i int) Node { v := a.values[i]; return Node{v, v} }

// Combine implements agg.Agg: componentwise min/max.
func (a *mmAgg) Combine(x, y Node) Node {
	if y.Min < x.Min {
		x.Min = y.Min
	}
	if y.Max > x.Max {
		x.Max = y.Max
	}
	return x
}

// Build constructs a tree over samples sorted by non-decreasing time:
// the empty tree, appended to once. times and values must have equal
// length. Arity values below 2 fall back to DefaultArity. The input
// slices are retained, not copied.
func Build(times, values []int64, arity int) *Tree {
	if arity < 2 {
		arity = DefaultArity
	}
	return (&Tree{pyramid: agg.NewTree[Node](arity)}).Append(times, values)
}

// extend returns col followed by add. An empty column adopts add
// itself, which is how Build retains its inputs without copying.
func extend(col, add []int64) []int64 {
	if len(col) == 0 {
		return add
	}
	return append(col, add...)
}

// Append returns a tree over the concatenation of t's samples and the
// given (time, value) samples — the amortized extension mode used by
// the live streaming ingest path, which would otherwise rebuild every
// tree from scratch on each published snapshot.
//
// The returned tree is structurally identical to
// Build(allTimes, allValues, arity) over the concatenated sample
// sequence (see TestAppendEqualsBuild): agg.Tree.Extend copies
// internal blocks whose leaves are all old from t unchanged and
// recomputes only the partial tail block of each level plus the blocks
// covering new leaves, so an append of k samples costs
// O(k + levels·arity) plus one O(n/arity) header copy per level.
//
// t itself remains valid and immutable: internal levels are fresh
// arrays, and leaf storage is extended with append, which never
// touches elements below t's length. Consequently trees must form a
// linear chain — appending twice to the same tree would make both
// results share tail storage. The caller keeps exactly one live chain,
// as Build-then-Append-per-epoch naturally does.
func (t *Tree) Append(times, values []int64) *Tree {
	if len(times) != len(values) {
		panic("mmtree: times and values length mismatch")
	}
	if len(times) == 0 {
		return t
	}
	nt := &Tree{times: extend(t.times, times), values: extend(t.values, values)}
	nt.pyramid = t.pyramid.Extend((*mmAgg)(nt), len(nt.values))
	return nt
}

// Columns exposes the tree's storage for serialization into the
// columnar store format: the retained (time, value) sample columns and
// the pyramid. The returned slices alias the tree's storage and must
// not be mutated.
func (t *Tree) Columns() (times, values []int64, pyramid agg.Tree[Node]) {
	return t.times, t.values, t.pyramid
}

// Adopt reconstructs a tree from columns previously produced by
// Columns — typically mmap-backed views of a store file — without
// copying. The column lengths must agree with the pyramid's leaf
// count (agg.FromLevels has validated the pyramid's own shape); sample
// order and node contents are trusted. The resulting tree is immutable
// like any other: Append never mutates adopted columns because appends
// on full slices reallocate.
func Adopt(times, values []int64, pyramid agg.Tree[Node]) (*Tree, error) {
	if len(times) != len(values) || pyramid.Len() != len(values) {
		return nil, fmt.Errorf("mmtree: %d times, %d values and a pyramid over %d leaves do not describe one tree",
			len(times), len(values), pyramid.Len())
	}
	return &Tree{times: times, values: values, pyramid: pyramid}, nil
}

// Len returns the number of samples.
func (t *Tree) Len() int { return len(t.times) }

// Time returns the timestamp of sample i.
func (t *Tree) Time(i int) int64 { return t.times[i] }

// Value returns the value of sample i.
func (t *Tree) Value(i int) int64 { return t.values[i] }

// Arity returns the tree's arity.
func (t *Tree) Arity() int { return t.pyramid.Arity() }

// OverheadBytes returns the memory consumed by the tree's internal
// nodes (the paper keeps this below 5% of the sample data with arity
// 100).
func (t *Tree) OverheadBytes() int64 { return t.pyramid.OverheadBytes() }

// DataBytes returns the memory consumed by the samples themselves.
func (t *Tree) DataBytes() int64 {
	return int64(len(t.times)+len(t.values)) * 8
}

// MinMax returns the minimum and maximum sample value with time in
// [t0, t1). ok is false when the interval contains no sample.
func (t *Tree) MinMax(t0, t1 int64) (min, max int64, ok bool) {
	lo := sort.Search(len(t.times), func(i int) bool { return t.times[i] >= t0 })
	hi := sort.Search(len(t.times), func(i int) bool { return t.times[i] >= t1 })
	return t.MinMaxIndex(lo, hi)
}

// MinMaxIndex returns the minimum and maximum over samples with index
// in [lo, hi) (clamped), evaluated by the generic pyramid walk.
func (t *Tree) MinMaxIndex(lo, hi int) (min, max int64, ok bool) {
	s, ok := t.pyramid.Query((*mmAgg)(t), lo, hi)
	return s.Min, s.Max, ok
}

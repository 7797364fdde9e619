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
// holds the pyramid.
//
// A tree holds summaries, not a copy of the samples: it is a view of
// one (counter, CPU) sample column — one array, or a live column's
// spilled parts then its RAM tail (an agg.Leaves) — plus its pyramid.
// It comes in two shapes of one type. A value tree indexes the samples'
// values and owns its header and its pyramid only: at the default arity
// of 100 the pyramid is at most 16/99 bytes a sample, below 5% of the
// (time, value) data it indexes, as in the paper — and nothing at all
// below 100 samples, since a pyramid stores complete blocks only. A
// rate tree indexes the discrete derivative between consecutive
// samples — entry i spans samples i and i+1 — and owns the derived
// rates besides, 8 bytes an entry; the times are the column's.
package mmtree

import (
	"fmt"
	"unsafe"

	"github.com/openstream/aftermath/internal/agg"
	"github.com/openstream/aftermath/internal/trace"
)

// DefaultArity is the paper's tree arity.
const DefaultArity = 100

// Sample is one counter sample as its column holds it: its time and
// value. The counter and the CPU are the column's, not the sample's.
type Sample struct {
	Time  trace.Time
	Value int64
}

// Samples is the view of a sample column a tree reads.
type Samples = agg.Leaves[Sample]

// Tree is an immutable n-ary min/max tree over a time-sorted sample
// column: its values (a value tree) or the rates derived between them
// (a rate tree).
type Tree struct {
	col     Samples
	rate    bool
	rates   []int64 // a rate tree's entries; nil in a value tree
	pyramid agg.Tree[Node]
}

// Node is the aggregation summary: the value range of a sample run.
// Its memory image is what the columnar store persists per pyramid
// node.
type Node struct{ Min, Max int64 }

// valueAgg presents a value tree's leaves, read from the column, to
// the agg.Agg contract; rateAgg a rate tree's, read from its rates.
type (
	valueAgg Tree
	rateAgg  Tree
)

// Zero implements agg.Agg.
func (a *valueAgg) Zero() Node { return Node{} }

// Zero implements agg.Agg.
func (a *rateAgg) Zero() Node { return Node{} }

// Leaf implements agg.Agg.
func (a *valueAgg) Leaf(i int) Node { v := a.col.At(i).Value; return Node{v, v} }

// Leaf implements agg.Agg.
func (a *rateAgg) Leaf(i int) Node { v := a.rates[i]; return Node{v, v} }

// Combine implements agg.Agg: componentwise min/max.
func (a *valueAgg) Combine(x, y Node) Node { return combine(x, y) }

// Combine implements agg.Agg.
func (a *rateAgg) Combine(x, y Node) Node { return combine(x, y) }

func combine(x, y Node) Node {
	if y.Min < x.Min {
		x.Min = y.Min
	}
	if y.Max > x.Max {
		x.Max = y.Max
	}
	return x
}

func orDefault(arity int) int {
	if arity < 2 {
		return DefaultArity
	}
	return arity
}

// Values returns the empty value tree and Rates the empty rate tree;
// Append grows either. Arity values below 2 fall back to DefaultArity.
func Values(arity int) *Tree {
	return &Tree{pyramid: agg.NewTree[Node](orDefault(arity))}
}

// Rates returns the empty rate tree.
func Rates(arity int) *Tree {
	return &Tree{rate: true, pyramid: agg.NewTree[Node](orDefault(arity))}
}

// Build returns the value tree over every sample of col: the empty
// tree, appended to once.
func Build(col Samples, arity int) *Tree {
	return Values(arity).Append(col, nil)
}

// Append returns the tree over col, which must be the column t covers
// with samples added at its end — or the same samples in other storage,
// as when a live column's spilled part is swapped for its mapped
// segment file. A value tree covers every sample of col, and rates
// must be nil. A rate tree covers rates, its whole entry column: t's
// own rates (Columns) with the new entries appended, one per pair of
// consecutive samples of col (else Append panics) — the caller derives
// them from sample t.Len() on and appends them in place, amortized like
// the pyramid's levels. This is the amortized extension mode of the
// live streaming ingest path.
//
// The returned tree is structurally identical to one built over col in
// a single step (TestAppendEqualsBuild here, and core's
// TestCounterTreesMatchScan over live views): agg.Tree.Extend appends
// to each pyramid level the nodes whose blocks the new leaves complete
// and nothing else, so an append of k samples costs O(k + levels)
// amortized.
//
// t itself remains valid and immutable: the pyramid and the rates only
// grow past t's lengths, and t never reads past them. Consequently
// trees must form a linear chain — appending twice to the same tree
// would make both results share tail storage. The caller keeps exactly
// one live chain, as build-then-Append-per-epoch naturally does.
func (t *Tree) Append(col Samples, rates []int64) *Tree {
	nt := &Tree{col: col, rate: t.rate, rates: rates}
	n := col.Len()
	if t.rate {
		if n = len(rates); n != max(col.Len()-1, 0) {
			panic(fmt.Sprintf("mmtree: %d rates between %d samples", n, col.Len()))
		}
		nt.pyramid = t.pyramid.Extend((*rateAgg)(nt), n)
		return nt
	}
	if rates != nil {
		panic("mmtree: rates appended to a value tree")
	}
	nt.pyramid = t.pyramid.Extend((*valueAgg)(nt), n)
	return nt
}

// Columns exposes what the tree owns for serialization into the
// columnar store format: a rate tree's rates (nil for a value tree) and
// the pyramid. The returned slices alias the tree's storage and must
// not be mutated; only the head of a chain's rates may be appended to,
// to hand to Append.
func (t *Tree) Columns() (rates []int64, pyramid agg.Tree[Node]) {
	return t.rates, t.pyramid
}

// Adopt reconstructs a value tree over col from a pyramid previously
// produced by Columns — typically mmap-backed views of a store file —
// without copying. The pyramid must cover every sample (agg.FromLevels
// has validated its own shape); sample order and node contents are
// trusted.
func Adopt(col Samples, pyramid agg.Tree[Node]) (*Tree, error) {
	if pyramid.Len() != col.Len() {
		return nil, fmt.Errorf("mmtree: a pyramid over %d leaves for %d samples", pyramid.Len(), col.Len())
	}
	return &Tree{col: col, pyramid: pyramid}, nil
}

// AdoptRates is Adopt for a rate tree: rates and the pyramid must hold
// one entry per pair of consecutive samples. The resulting tree is
// immutable like any other: the rates are clipped to their length, so
// an entry appended to them reallocates instead of writing past the
// adopted column.
func AdoptRates(col Samples, rates []int64, pyramid agg.Tree[Node]) (*Tree, error) {
	n := len(rates)
	if want := max(col.Len()-1, 0); n != want || pyramid.Len() != want {
		return nil, fmt.Errorf("mmtree: %d rates and a pyramid over %d leaves for %d samples do not describe one rate tree",
			n, pyramid.Len(), col.Len())
	}
	return &Tree{col: col, rate: true, rates: rates[:n:n], pyramid: pyramid}, nil
}

// Len returns the number of entries: samples in a value tree, pairs of
// consecutive samples in a rate tree.
func (t *Tree) Len() int { return t.pyramid.Len() }

// Time returns the timestamp of entry i: sample i's, which starts
// entry i of a rate tree.
func (t *Tree) Time(i int) int64 { return t.col.At(i).Time }

// Value returns the value of entry i.
func (t *Tree) Value(i int) int64 {
	if t.rate {
		return t.rates[i]
	}
	return t.col.At(i).Value
}

// Arity returns the tree's arity.
func (t *Tree) Arity() int { return t.pyramid.Arity() }

// OverheadBytes returns the memory the tree owns: its header, its
// pyramid, and a rate tree's rates — everything the index costs beyond
// the samples it reads through its view.
func (t *Tree) OverheadBytes() int64 {
	return int64(unsafe.Sizeof(*t)) + int64(len(t.rates))*8 + t.pyramid.OverheadBytes()
}

// DataBytes returns the size of the (time, value) data the tree
// indexes, 16 bytes an entry.
func (t *Tree) DataBytes() int64 { return int64(t.Len()) * 16 }

// MinMax returns the minimum and maximum entry value with time in
// [t0, t1). ok is false when the interval contains no entry.
func (t *Tree) MinMax(t0, t1 int64) (min, max int64, ok bool) {
	lo := t.SeekTime(t0, 0)
	return t.MinMaxIndex(lo, t.SeekTime(t1, lo))
}

// SeekTime returns the first entry at or after from whose time is at or
// after x, Len() if there is none. From a cursor it gallops through the
// column it reads, so a cursor moving forward a pixel column at a time —
// an overlay row's, or a window's end found from its start — reads a
// few neighbouring samples, not log n scattered ones; from 0 it
// bisects.
func (t *Tree) SeekTime(x int64, from int) int {
	n := t.Len()
	if from >= n {
		return n
	}
	from = max(from, 0)
	col := &t.col
	last := func(k int) int64 { c := col.Col(k); return c[len(c)-1].Time }
	k, cols := col.Locate(from), col.Cols()
	j := from - col.Start(k)
	if last(k) < x {
		// The first later column whose last sample is at or after x
		// holds it.
		for hi := cols; k+1 < hi; {
			if m := int(uint(k+1+hi) >> 1); last(m) >= x {
				hi = m
			} else {
				k = m
			}
		}
		if k++; k == cols {
			return n
		}
		j = 0
	}
	// A rate tree's entries stop one short of its samples.
	s, at := col.Col(k), col.Start(k)
	return min(at+seek(s[:min(len(s), n-at)], x, j), n)
}

// seek returns the first index of s at or after from whose time is at
// or after x, len(s) if there is none. From inside s it gallops —
// probes at doubling distances, then a bisection of the last step; past
// 31 samples a wide window bisects the rest — and from s's start, with
// no cursor to start from, it bisects s.
func seek(s []Sample, x int64, from int) int {
	lo, hi := from, len(s)
	if from > 0 {
		hi = from
		for step := 1; hi < len(s) && s[hi].Time < x; step <<= 1 {
			lo, hi = hi+1, len(s)
			if step < 32 {
				hi = min(lo+step, len(s))
			}
		}
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s[m].Time >= x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// MinMaxIndex returns the minimum and maximum over entries with index
// in [lo, hi) (clamped), evaluated by the generic pyramid walk.
func (t *Tree) MinMaxIndex(lo, hi int) (min, max int64, ok bool) {
	var s Node
	if t.rate {
		s, ok = t.pyramid.Query((*rateAgg)(t), lo, hi)
	} else {
		s, ok = t.pyramid.Query((*valueAgg)(t), lo, hi)
	}
	return s.Min, s.Max, ok
}

package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/openstream/aftermath/internal/mmtree"
	"github.com/openstream/aftermath/internal/par"
)

// RateScale is the fixed-point scale for rate trees: rates are stored
// as events per kilocycle times RateScale.
const RateScale = 1 << 16

// CounterIndex is the min/max tree index of Section VI-B-c: a value
// and a rate tree per (counter, row). The trees live on the counter,
// one entry per row of its PerCPU, found by index, so CounterIndex
// holds nothing and every trace returns the same one. Safe for
// concurrent use: each tree is built once, on first request, and
// different trees build in parallel. A live snapshot and OpenStore seed
// their entries with the trees built before (mmtree append mode, or the
// stored ones); a row outside the table answers an empty tree.
//
// The index holds summaries, not a second copy of the samples: each
// tree is a view of the (counter, row) sample column it indexes — one
// array, or a spilled live column's parts then its RAM tail — plus its
// pyramid, and a rate tree owns its derived rates besides: 8 bytes a
// sample and two pyramids for the pair, against the 24 of the sample.
type CounterIndex struct{}

// counterIndex is the one CounterIndex: the trees are the counters'.
var counterIndex CounterIndex

// counterTrees is one row's entry among its counter's trees. A seeded
// entry holds its trees from the start; each once builds its tree only
// where the entry holds none.
type counterTrees struct {
	valueOnce, rateOnce sync.Once
	value, rate         *mmtree.Tree
}

// emptyTree is the tree of a row outside a counter's table, value and
// rate alike: it holds no entry.
var emptyTree = mmtree.Values(0)

// treesAt returns the counter's entry for row cpu, nil outside the
// table. A counter no loader sized gets one entry per row of its PerCPU
// here, at its first lookup.
func (c *Counter) treesAt(cpu int32) *counterTrees {
	c.treesOnce.Do(func() {
		if c.trees == nil {
			c.trees = make([]counterTrees, len(c.PerCPU))
		}
	})
	if cpu < 0 || int(cpu) >= len(c.trees) {
		return nil
	}
	return &c.trees[cpu]
}

// Tree returns the min/max tree over the counter's raw values on row
// cpu.
func (*CounterIndex) Tree(c *Counter, cpu int32) *mmtree.Tree {
	e := c.treesAt(cpu)
	if e == nil {
		return emptyTree
	}
	e.valueOnce.Do(func() {
		if e.value == nil {
			e.value = mmtree.Build(c.sampleLeaves(cpu), 0)
		}
	})
	return e.value
}

// RateTree returns the min/max tree over the counter's discrete
// derivative on row cpu, in fixed-point events per kilocycle: the
// constant interpolation per task of Figure 18 (counters are sampled
// immediately before and after each task execution, so the rate is
// constant over each execution).
func (*CounterIndex) RateTree(c *Counter, cpu int32) *mmtree.Tree {
	e := c.treesAt(cpu)
	if e == nil {
		return emptyTree
	}
	e.rateOnce.Do(func() {
		if e.rate == nil {
			e.rate = appendRates(mmtree.Rates(0), c.sampleLeaves(cpu))
		}
	})
	return e.rate
}

// appendRates extends a rate tree over col, the view of the column it
// covers with samples added, by the entries between consecutive samples
// of col from its last covered sample on — sample t.Len(), where its
// entry count is one short of the samples it covers: entry i covers
// [col[i].Time, col[i+1].Time) at rate(col[i], col[i+1]). The
// derivation is purely pairwise, so starting there yields exactly the
// entries a whole-column derivation would. They are appended to the
// tree's own rates, which grow like its pyramid levels: amortized along
// a chain, at their exact size in a build. The lazy build above and the
// live ingest path's incremental extension both end here, so a batch
// tree is a chain extended once from empty.
func appendRates(t *mmtree.Tree, col mmtree.Samples) *mmtree.Tree {
	rates, _ := t.Columns()
	if from, n := t.Len(), col.Len()-1-t.Len(); n > 0 {
		rates = slices.Grow(rates, n)
		prev := col.At(from)
		col.Each(from+1, func(_ int, s *Sample) {
			rates = append(rates, rate(prev, s))
			prev = s
		})
	}
	return t.Append(col, rates)
}

// rate returns the fixed-point rate between two samples,
// (b.Value - a.Value) * 1000 * RateScale / (b.Time - a.Time) events per
// kilocycle, and 0 unless b is later than a. The quotient is that of
// the exact 128-bit product, truncated toward zero as int64 division
// truncates and clamped to int64: the int64 expression wraps once
// |Δv| exceeds 2^63 / (1000 * RateScale), about 1.4e11, and equals this
// wherever it does not.
func rate(a, b *Sample) int64 {
	if b.Time <= a.Time {
		return 0
	}
	// Both differences are exact as unsigned magnitudes: the true values
	// lie in (-2^64, 2^64), and b.Time - a.Time is positive.
	dt := uint64(b.Time) - uint64(a.Time)
	neg := b.Value < a.Value
	dv := uint64(b.Value) - uint64(a.Value)
	if neg {
		dv = uint64(a.Value) - uint64(b.Value)
	}
	hi, lo := bits.Mul64(dv, 1000*RateScale)
	if hi >= dt {
		// The quotient needs more than 64 bits.
		return clampRate(math.MaxUint64, neg)
	}
	q, _ := bits.Div64(hi, lo, dt)
	return clampRate(q, neg)
}

// clampRate returns the magnitude q with its sign, clamped to int64.
func clampRate(q uint64, neg bool) int64 {
	if !neg {
		return int64(min(q, math.MaxInt64))
	}
	if q >= 1<<63 {
		return math.MinInt64
	}
	return -int64(q)
}

// CounterIndex returns the trace's counter tree index: the handle
// through which the trees on its counters are found.
func (tr *Trace) CounterIndex() *CounterIndex { return &counterIndex }

// BuildCounterIndex eagerly builds the value and rate trees for every
// (counter, row) pair with samples, spreading the work over up to
// workers goroutines (<= 0 selects a worker per GOMAXPROCS). Useful
// to warm the index right after loading, before serving viewer
// traffic; lazy first-use construction remains available without it.
func (tr *Trace) BuildCounterIndex(workers int) *CounterIndex {
	ci := tr.CounterIndex()
	if workers <= 0 {
		workers = par.Workers()
	}
	type job struct {
		c   *Counter
		cpu int32
	}
	var jobs []job
	for _, c := range tr.Counters {
		for cpu := range c.PerCPU {
			if c.NumSamples(int32(cpu)) > 0 {
				jobs = append(jobs, job{c, int32(cpu)})
			}
		}
	}
	par.Do(workers, len(jobs), func(i int) {
		ci.Tree(jobs[i].c, jobs[i].cpu)
		ci.RateTree(jobs[i].c, jobs[i].cpu)
	})
	return ci
}

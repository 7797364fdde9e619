package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/openstream/aftermath/internal/mmtree"
	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/trace"
)

// RateScale is the fixed-point scale for rate trees: rates are stored
// as events per kilocycle times RateScale.
const RateScale = 1 << 16

// CounterIndex holds one min/max tree per (counter, cpu, rate) triple
// — the index structure of Section VI-B-c. It is safe for concurrent
// use: each tree is built exactly once, on first request, and
// concurrent requests for different trees build in parallel. Traces
// own one shared index (see Trace.CounterIndex), so every renderer,
// overlay and viewer request reuses the same trees.
//
// The index holds summaries, not a second copy of the samples: each
// tree is a view of the (counter, CPU) sample column it indexes — one
// array, or a spilled live column's parts then its RAM tail — plus its
// pyramid, and a rate tree owns its derived rates besides: 8 bytes a
// sample and two pyramids for the pair, against the 24 of the sample.
type CounterIndex struct {
	mu      sync.Mutex
	entries map[counterCPU]*indexEntry
}

type counterCPU struct {
	counter uint64
	cpu     int32
	rate    bool
}

type indexEntry struct {
	once sync.Once
	tree *mmtree.Tree
}

// NewCounterIndex returns an empty index; trees build lazily, with
// mmtree's default arity.
func NewCounterIndex() *CounterIndex { return newCounterIndex(0) }

// newCounterIndex returns an empty index whose map has room for n keys:
// the trees its creator is about to seed.
func newCounterIndex(n int) *CounterIndex {
	return &CounterIndex{entries: make(map[counterCPU]*indexEntry, n)}
}

// entry returns the guarded slot for a key, creating it under the map
// lock; the tree itself is built outside the lock so different trees
// build concurrently.
func (ci *CounterIndex) entry(key counterCPU) *indexEntry {
	ci.mu.Lock()
	e, ok := ci.entries[key]
	if !ok {
		e = &indexEntry{}
		ci.entries[key] = e
	}
	ci.mu.Unlock()
	return e
}

// Tree returns the min/max tree over the counter's raw values on cpu.
func (ci *CounterIndex) Tree(c *Counter, cpu int32) *mmtree.Tree {
	e := ci.entry(counterCPU{uint64(c.Desc.ID), cpu, false})
	e.once.Do(func() { e.tree = mmtree.Build(c.sampleLeaves(cpu), 0) })
	return e.tree
}

// RateTree returns the min/max tree over the counter's discrete
// derivative on cpu, in fixed-point events per kilocycle: the constant
// interpolation per task of Figure 18 (counters are sampled
// immediately before and after each task execution, so the rate is
// constant over each execution).
func (ci *CounterIndex) RateTree(c *Counter, cpu int32) *mmtree.Tree {
	e := ci.entry(counterCPU{uint64(c.Desc.ID), cpu, true})
	e.once.Do(func() { e.tree = appendRates(mmtree.Rates(0), c.sampleLeaves(cpu)) })
	return e.tree
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
		col.Each(from+1, func(_ int, s *trace.CounterSample) {
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
func rate(a, b *trace.CounterSample) int64 {
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

// seed installs a prebuilt tree for a key, in e: an entry the caller
// provides, so that a caller seeding many keys hands them out of one
// slice. The live ingest path uses this to hand each published
// snapshot the incrementally extended trees (mmtree append mode)
// instead of letting the snapshot rebuild them from scratch, OpenStore
// to install the trees it adopted; unseeded keys still build lazily on
// first use. Seeding precedes any reader: a seeded key is new.
func (ci *CounterIndex) seed(key counterCPU, t *mmtree.Tree, e *indexEntry) {
	e.tree = t
	e.once.Do(func() {})
	ci.mu.Lock()
	ci.entries[key] = e
	ci.mu.Unlock()
}

// CounterIndex returns the trace's shared min/max tree index, creating
// it on first use. Safe for concurrent callers.
func (tr *Trace) CounterIndex() *CounterIndex {
	tr.cindexOnce.Do(func() {
		tr.cindex = NewCounterIndex()
	})
	return tr.cindex
}

// BuildCounterIndex eagerly builds the value and rate trees for every
// (counter, cpu) pair with samples, spreading the work over up to
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

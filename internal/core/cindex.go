package core

import (
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
func NewCounterIndex() *CounterIndex {
	return &CounterIndex{entries: make(map[counterCPU]*indexEntry)}
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
	e.once.Do(func() { e.tree = appendValues(nil, c.Samples(cpu)) })
	return e.tree
}

// RateTree returns the min/max tree over the counter's discrete
// derivative on cpu, in fixed-point events per kilocycle: the constant
// interpolation per task of Figure 18 (counters are sampled
// immediately before and after each task execution, so the rate is
// constant over each execution).
func (ci *CounterIndex) RateTree(c *Counter, cpu int32) *mmtree.Tree {
	e := ci.entry(counterCPU{uint64(c.Desc.ID), cpu, true})
	e.once.Do(func() { e.tree = appendRates(nil, c.Samples(cpu)) })
	return e.tree
}

// appendTree extends t by the given (time, value) entries; a nil t is
// the chain start. The lazy builds above and the live ingest path's
// incremental extension both end here, so a batch tree is a chain
// extended once from empty.
func appendTree(t *mmtree.Tree, times, values []int64) *mmtree.Tree {
	if t == nil {
		return mmtree.Build(times, values, 0)
	}
	return t.Append(times, values)
}

// appendValues extends a value tree by the samples of win.
func appendValues(t *mmtree.Tree, win []trace.CounterSample) *mmtree.Tree {
	times := make([]int64, len(win))
	values := make([]int64, len(win))
	for i, s := range win {
		times[i], values[i] = s.Time, s.Value
	}
	return appendTree(t, times, values)
}

// appendRates extends a rate tree by the fixed-point rate entries
// between consecutive samples of win: entry i covers
// [win[i].Time, win[i+1].Time) at the constant rate
// (dv * 1000 * RateScale / dt) events per kilocycle, 0 when dt <= 0.
// The derivation is purely pairwise, so a window starting at the
// chain's last covered sample yields exactly the entries a
// whole-array derivation would.
func appendRates(t *mmtree.Tree, win []trace.CounterSample) *mmtree.Tree {
	n := max(len(win)-1, 0)
	times := make([]int64, n)
	values := make([]int64, n)
	for i := 0; i < n; i++ {
		dt := win[i+1].Time - win[i].Time
		times[i] = win[i].Time
		if dt > 0 {
			dv := win[i+1].Value - win[i].Value
			values[i] = dv * 1000 * RateScale / dt
		}
	}
	return appendTree(t, times, values)
}

// seed installs a prebuilt tree for a key. The live ingest path uses
// this to hand each published snapshot the incrementally extended
// trees (mmtree append mode) instead of letting the snapshot rebuild
// them from scratch; unseeded keys still build lazily on first use.
func (ci *CounterIndex) seed(key counterCPU, t *mmtree.Tree) {
	e := ci.entry(key)
	e.once.Do(func() { e.tree = t })
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
			if len(c.PerCPU[cpu]) > 0 {
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

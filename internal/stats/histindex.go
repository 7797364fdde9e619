package stats

import (
	"sort"

	"github.com/openstream/aftermath/internal/agg"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/trace"
)

// histArity is the HistIndex pyramid fan-out. Histogram nodes are
// whole count vectors, so combines cost O(bins); a modest arity keeps
// both the build (O(tasks·bins) total) and the per-query node count
// small.
const histArity = 8

// HistIndex is the window-mergeable form of the task duration
// histogram (Figure 16): a multi-resolution pyramid over the executed
// tasks ordered by execution start, whose summaries are fixed-range
// histograms of their durations. The histogram of the tasks starting
// in any window then merges O(arity·log n) precomputed nodes instead
// of re-binning every task — the same trade the min/max trees make for
// counter rendering, applied to a vector-valued aggregate through the
// generic framework in internal/agg.
//
// The bin range is fixed at build time over all indexed durations
// (derived as NewHistogram derives it), which is what makes window
// results mergeable; DurationHistogram, by contrast, re-derives the
// range from each filtered population.
type HistIndex struct {
	starts []trace.Time // ExecStart per indexed task, ascending
	durs   []float64    // durations aligned with starts
	min    float64
	max    float64
	bins   int
	tree   agg.Tree[*Histogram]
}

// histAgg instantiates agg.Agg for HistIndex: a leaf is the one-value
// histogram of a task's duration, Combine adds count vectors into a
// fresh histogram (tree nodes are shared and must stay immutable).
type histAgg struct{ ix *HistIndex }

// Zero implements agg.Agg.
func (a histAgg) Zero() *Histogram { return a.ix.newHist() }

// Leaf implements agg.Agg.
func (a histAgg) Leaf(i int) *Histogram {
	h := a.ix.newHist()
	h.add(a.ix.durs[i])
	return h
}

// Combine implements agg.Agg.
func (a histAgg) Combine(x, y *Histogram) *Histogram {
	h := a.ix.newHist()
	for i := range h.Counts {
		h.Counts[i] = x.Counts[i] + y.Counts[i]
	}
	h.Under = x.Under + y.Under
	h.Over = x.Over + y.Over
	h.Total = x.Total + y.Total
	return h
}

func (ix *HistIndex) newHist() *Histogram {
	return &Histogram{Min: ix.min, Max: ix.max, Counts: make([]int, ix.bins)}
}

// NewHistIndex indexes the execution durations of every executed task,
// binned like NewHistogram over the full duration range.
func NewHistIndex(tr *core.Trace, bins int) *HistIndex {
	if bins < 1 {
		bins = 1
	}
	type rec struct {
		start trace.Time
		dur   float64
	}
	var recs []rec
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		if t.ExecCPU < 0 {
			continue
		}
		recs = append(recs, rec{t.ExecStart, float64(t.Duration())})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].start < recs[j].start })

	ix := &HistIndex{bins: bins}
	ix.starts = make([]trace.Time, len(recs))
	ix.durs = make([]float64, len(recs))
	for i, r := range recs {
		ix.starts[i] = r.start
		ix.durs[i] = r.dur
		if i == 0 || r.dur < ix.min {
			ix.min = r.dur
		}
		if i == 0 || r.dur > ix.max {
			ix.max = r.dur
		}
	}
	if ix.min == ix.max {
		ix.max = ix.min + 1
	}
	ix.tree = agg.NewTree[*Histogram](histArity).Extend(histAgg{ix}, len(recs))
	return ix
}

// Len returns the number of indexed tasks.
func (ix *HistIndex) Len() int { return len(ix.starts) }

// Range returns the fixed bin range.
func (ix *HistIndex) Range() (min, max float64) { return ix.min, ix.max }

// Window returns the duration histogram of the indexed tasks whose
// execution started in [t0, t1), merged from the pyramid. The result
// may alias shared index nodes and must not be modified.
func (ix *HistIndex) Window(t0, t1 trace.Time) *Histogram {
	lo := sort.Search(len(ix.starts), func(i int) bool { return ix.starts[i] >= t0 })
	hi := sort.Search(len(ix.starts), func(i int) bool { return ix.starts[i] >= t1 })
	h, ok := ix.tree.Query(histAgg{ix}, lo, hi)
	if !ok {
		return ix.newHist()
	}
	return h
}

// WindowScan computes the same histogram by re-binning every task in
// the window — the ablation baseline the property test and the
// BenchmarkHistogramWindow benchmark compare the pyramid against.
func (ix *HistIndex) WindowScan(t0, t1 trace.Time) *Histogram {
	lo := sort.Search(len(ix.starts), func(i int) bool { return ix.starts[i] >= t0 })
	hi := sort.Search(len(ix.starts), func(i int) bool { return ix.starts[i] >= t1 })
	h := ix.newHist()
	for _, d := range ix.durs[lo:hi] {
		h.add(d)
	}
	return h
}

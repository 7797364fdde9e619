// Benchmarks regenerating every figure and table of the paper's
// evaluation at reduced scale (one benchmark per artifact; see
// DESIGN.md's per-experiment index), plus ablation benchmarks for the
// Section VI rendering and indexing optimizations. Run with:
//
//	go test -bench=. -benchmem
//
// Paper-scale artifacts come from cmd/aftermath-figs.
package aftermath

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/openstream/aftermath/internal/agg"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/figs"
	"github.com/openstream/aftermath/internal/mmtree"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/trace"
)

// benchRunner returns a fresh reduced-scale experiment runner.
func benchRunner() *figs.Runner { return figs.NewSmallRunner() }

func benchReport(b *testing.B, rep figs.Report) {
	if rep.Err != nil {
		b.Fatalf("%s: %v", rep.ID, rep.Err)
	}
	if !rep.Pass() {
		for _, row := range rep.Rows {
			if !row.OK {
				b.Fatalf("%s: %s: paper %q, measured %q", rep.ID, row.Metric, row.Paper, row.Measured)
			}
		}
	}
}

func BenchmarkFig02SeidelStateTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig02())
	}
}

func BenchmarkFig03IdleWorkers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig03())
	}
}

func BenchmarkFig05ParallelismByDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig05())
	}
}

func BenchmarkFig06TaskGraphDOT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig06())
	}
}

func BenchmarkFig07Heatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig07())
	}
}

func BenchmarkFig08AvgTaskDuration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig08())
	}
}

func BenchmarkFig09Typemap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig09())
	}
}

func BenchmarkFig10RusageDerivatives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig10())
	}
}

func BenchmarkFig11KMeansGraphDOT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig11())
	}
}

func BenchmarkFig12BlockSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig12())
	}
}

func BenchmarkFig13BlockSizeTimelines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig13())
	}
}

func BenchmarkFig14NUMAModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig14())
	}
}

func BenchmarkFig15CommMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig15())
	}
}

func BenchmarkFig16DurationHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig16())
	}
}

func BenchmarkFig17KMeansHeatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig17())
	}
}

func BenchmarkFig18MispredictionOverlay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig18())
	}
}

func BenchmarkFig19MispredictionRegression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().Fig19())
	}
}

func BenchmarkTableKMeansOptimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().TableV())
	}
}

func BenchmarkTableTraceFormat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchReport(b, benchRunner().TableVI())
	}
}

// ---- Section VI ablations ----

// benchTrace builds one shared seidel trace for rendering ablations.
func benchTrace(b *testing.B) *core.Trace {
	b.Helper()
	return atmtest.SeidelTrace(b, 8, 6, openstream.SchedRandom)
}

// BenchmarkAblationRenderStateOptimized measures the dominant-state
// per-pixel renderer with rectangle aggregation (Section VI-B a+b).
func BenchmarkAblationRenderStateOptimized(b *testing.B) {
	tr := benchTrace(b)
	cfg := render.TimelineConfig{Width: 1200, Height: 128, Mode: render.ModeState}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := render.Timeline(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRenderStateNaive measures the baseline that draws
// every state event as its own rectangle.
func BenchmarkAblationRenderStateNaive(b *testing.B) {
	tr := benchTrace(b)
	cfg := render.TimelineConfig{Width: 1200, Height: 128, Mode: render.ModeState}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := render.NaiveTimelineState(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCounterTree renders a counter overlay through the
// min/max trees (Section VI-B-c).
func BenchmarkAblationCounterTree(b *testing.B) {
	tr := atmtest.KMeansTrace(b, 32, 1000, 4, false)
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		b.Fatal("missing counter")
	}
	cfg := render.TimelineConfig{Width: 1200, Height: 128, Mode: render.ModeHeat}
	fb, _, err := render.Timeline(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ci := tr.CounterIndex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.OverlayCounter(fb, tr, cfg, render.OverlayConfig{
			Counter: c, Rate: true, Color: render.CategoryColor(3),
		}, ci)
	}
}

// BenchmarkAblationCounterNaive renders the same overlay with one line
// per adjacent sample pair (Figure 21a).
func BenchmarkAblationCounterNaive(b *testing.B) {
	tr := atmtest.KMeansTrace(b, 32, 1000, 4, false)
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		b.Fatal("missing counter")
	}
	cfg := render.TimelineConfig{Width: 1200, Height: 128, Mode: render.ModeHeat}
	fb, _, err := render.Timeline(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ci := tr.CounterIndex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.OverlayCounter(fb, tr, cfg, render.OverlayConfig{
			Counter: c, Rate: true, Color: render.CategoryColor(3), Naive: true,
		}, ci)
	}
}

// BenchmarkAblationTreeArity sweeps the min/max tree arity: the paper
// chose 100 to balance query speed against a <=5% memory overhead.
func BenchmarkAblationTreeArity(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	samples, t := ablationSamples(rng)
	for _, arity := range []int{2, 10, 100, 1000} {
		arity := arity
		b.Run(benchName("arity", arity), func(b *testing.B) {
			tree := mmtree.Build(agg.Over(samples), arity)
			b.ReportMetric(100*float64(tree.OverheadBytes())/float64(tree.DataBytes()), "overhead%")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := rng.Int63n(t)
				hi := lo + t/100
				tree.MinMax(lo, hi)
			}
		})
	}
}

// BenchmarkAblationMinMaxScan is the no-index baseline: a linear scan
// per query.
func BenchmarkAblationMinMaxScan(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	samples, t := ablationSamples(rng)
	tree := mmtree.Build(agg.Over(samples), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(t)
		hi := lo + t/100
		first := sort.Search(tree.Len(), func(i int) bool { return tree.Time(i) >= lo })
		min, max := int64(math.MaxInt64), int64(math.MinInt64)
		for j := first; j < tree.Len() && tree.Time(j) < hi; j++ {
			v := tree.Value(j)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		scanSink += min + max
	}
}

// scanSink keeps the scan's result live, so the loop is not dead code.
var scanSink int64

// ablationSamples returns the 2^20-sample counter column of the tree
// ablations, and its last time.
func ablationSamples(rng *rand.Rand) ([]mmtree.Sample, int64) {
	samples := make([]mmtree.Sample, 1<<20)
	t := int64(0)
	for i := range samples {
		t += int64(rng.Intn(20) + 1)
		samples[i] = mmtree.Sample{Time: t, Value: rng.Int63n(1 << 30)}
	}
	return samples, t
}

// BenchmarkSimulator measures raw simulation throughput (tasks/op
// reported as custom metric).
func BenchmarkSimulator(b *testing.B) {
	cfg := ScaledKMeansConfig(64, 1000)
	cfg.MaxIterations = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := BuildKMeans(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sim := DefaultSimConfig(Opteron6282SE())
		if _, err := Simulate(prog, sim, nil); err != nil {
			b.Fatal(err)
		}
	}
}

package figs

import (
	"fmt"
	"os"
	"time"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/export"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/metrics"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/regress"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/taskgraph"
	"github.com/openstream/aftermath/internal/trace"
)

// Fig11 reproduces Figure 11: an excerpt of the k-means task graph
// with distance calculation, reduction/termination detection and
// propagation of new cluster centers.
func (r *Runner) Fig11() Report {
	rep := Report{ID: "fig11", Title: "K-means: task graph excerpt (DOT)"}
	tr, _, err := r.KMeansTrace()
	if err != nil {
		return rep.fail(err)
	}
	g := taskgraph.Reconstruct(tr)
	rep.row("dependence edges recovered", "layered iteration structure",
		fmt.Sprintf("%d edges / %d tasks", g.NumEdges(), len(tr.Tasks)),
		g.NumEdges() >= len(tr.Tasks)-1)
	if path := r.art(&rep, "fig11_kmeans_graph.dot"); path != "" {
		if err := writeArtifact(path, func(f *os.File) error {
			return g.WriteDOT(f, taskgraph.DOTOptions{MaxTasks: 150, Label: "kmeans"})
		}); err != nil {
			return rep.fail(err)
		}
	}
	return rep
}

// paperFig12Seconds holds the paper's Figure 12 bars (seconds), from
// 1.28M points per block down to 2.5K.
var paperFig12Seconds = []float64{14.85, 8.20, 8.06, 7.89, 7.49, 6.39, 6.25, 6.22, 6.33, 7.16}

// SweepPoint is one Figure 12 measurement.
type SweepPoint struct {
	BlockSize int
	MeanSec   float64
	StdSec    float64
}

// Sweep runs the Figure 12 block-size sweep (without tracing) and
// returns one point per configured size.
func (r *Runner) Sweep() ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(r.SweepSizes))
	for _, bs := range r.SweepSizes {
		var secs []float64
		for run := 0; run < r.SweepRuns; run++ {
			cfg := r.KMeansCfg
			cfg.BlockSize = bs
			cfg.Seed = r.Seed + int64(run)*101
			p, err := apps.BuildKMeans(cfg)
			if err != nil {
				return nil, err
			}
			rcfg := openstream.DefaultConfig(r.KMeansMachine)
			rcfg.Sched = openstream.SchedNUMA
			rcfg.Seed = r.Seed + int64(run)
			if r.HW != nil {
				rcfg.HW = *r.HW
			}
			res, err := openstream.Run(p, rcfg, nil)
			if err != nil {
				return nil, err
			}
			secs = append(secs, res.Seconds)
		}
		points = append(points, SweepPoint{
			BlockSize: bs,
			MeanSec:   regress.Mean(secs),
			StdSec:    regress.StdDev(secs),
		})
	}
	return points, nil
}

// Fig12 reproduces Figure 12: execution time as a function of the
// block size — high for very large blocks (insufficient parallelism),
// a minimum around 10K points, and rising again for tiny blocks (task
// management overhead).
func (r *Runner) Fig12() Report {
	rep := Report{ID: "fig12", Title: "K-means: execution time vs block size"}
	points, err := r.Sweep()
	if err != nil {
		return rep.fail(err)
	}
	if len(points) < 4 {
		return rep.fail(fmt.Errorf("sweep too small"))
	}
	minIdx := 0
	for i, p := range points {
		if p.MeanSec < points[minIdx].MeanSec {
			minIdx = i
		}
	}
	n := len(points)
	minOK := minIdx >= n/2 && minIdx < n-1 // paper: minimum at 10K, late in the sweep
	if r.Relaxed {
		minOK = minIdx > 0 && minIdx < n-1 // reduced scale: interior minimum
	}
	rep.row("U-shaped curve minimum", "10K points per block",
		fmt.Sprintf("%d points per block", points[minIdx].BlockSize), minOK)
	ratioBig := points[0].MeanSec / points[minIdx].MeanSec
	ratioOK := within(ratioBig, 1.8, 3.2)
	if r.Relaxed {
		ratioOK = ratioBig > 1.4
	}
	rep.row("penalty at largest blocks", "14.85s vs 6.22s (2.4x)",
		fmt.Sprintf("%.2fs vs %.2fs (%.2fx)", points[0].MeanSec, points[minIdx].MeanSec, ratioBig),
		ratioOK)
	rep.row("penalty at tiniest blocks", "7.16s vs 6.33s (uptick)",
		fmt.Sprintf("%.2fs vs %.2fs", points[n-1].MeanSec, points[n-2].MeanSec),
		points[n-1].MeanSec > points[n-2].MeanSec)
	if len(points) == len(paperFig12Seconds) {
		rep.row("absolute scale at minimum", fmt.Sprintf("%.2fs", paperFig12Seconds[7]),
			fmt.Sprintf("%.2fs", points[minIdx].MeanSec),
			within(points[minIdx].MeanSec/paperFig12Seconds[7], 0.7, 1.4))
	}
	if path := r.art(&rep, "fig12_blocksize_sweep.csv"); path != "" {
		if err := writeArtifact(path, func(f *os.File) error {
			if _, err := fmt.Fprintln(f, "block_size,mean_seconds,std_seconds,paper_seconds"); err != nil {
				return err
			}
			for i, p := range points {
				paper := ""
				if len(points) == len(paperFig12Seconds) {
					paper = fmt.Sprintf("%.2f", paperFig12Seconds[i])
				}
				if _, err := fmt.Fprintf(f, "%d,%.4f,%.4f,%s\n", p.BlockSize, p.MeanSec, p.StdSec, paper); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return rep.fail(err)
		}
	}
	return rep
}

// Fig13 reproduces Figure 13: the state-mode timeline for each block
// size, from mostly-idle at 1.28M points (fewer blocks than cores)
// through balanced execution to the termination overhead at 2.5K.
func (r *Runner) Fig13() Report {
	rep := Report{ID: "fig13", Title: "K-means: state timelines per block size"}
	var fractions []float64
	var makespans []float64
	for _, bs := range r.SweepSizes {
		cfg := r.KMeansCfg
		cfg.BlockSize = bs
		cfg.Seed = r.Seed
		p, err := apps.BuildKMeans(cfg)
		if err != nil {
			return rep.fail(err)
		}
		tr, res, err := r.runTracedLight(p, bs)
		if err != nil {
			return rep.fail(err)
		}
		frac := idleFraction(tr)
		fractions = append(fractions, frac)
		makespans = append(makespans, float64(res.Makespan))
		if path := r.art(&rep, fmt.Sprintf("fig13_states_%d.png", bs)); path != "" {
			fb, _, err := render.Timeline(tr, render.TimelineConfig{
				Width: 700, Height: 4 * tr.NumCPUs(), Mode: render.ModeState,
			})
			if err != nil {
				return rep.fail(err)
			}
			if err := fb.WritePNG(path); err != nil {
				return rep.fail(err)
			}
		}
	}
	n := len(fractions)
	rep.row("idle share at largest blocks", "most workers idle (32 blocks, 64 cores)",
		pct(fractions[0]), fractions[0] > 0.3)
	midIdle := fractions[n/2]
	rep.row("idle share at mid sizes", "alternating but mostly busy",
		pct(midIdle), midIdle < fractions[0])
	rep.row("overhead returns at tiniest blocks", "idle phases at termination (Fig. 13j)",
		fmt.Sprintf("makespan %.1fM vs %.1fM cycles (idle %s vs %s)",
			makespans[n-1]/1e6, makespans[n-2]/1e6, pct(fractions[n-1]), pct(fractions[n-2])),
		makespans[n-1] > makespans[n-2])
	if path := r.art(&rep, "fig13_idle_fractions.csv"); path != "" {
		if err := writeArtifact(path, func(f *os.File) error {
			if _, err := fmt.Fprintln(f, "block_size,idle_fraction"); err != nil {
				return err
			}
			for i, bs := range r.SweepSizes {
				if _, err := fmt.Fprintf(f, "%d,%.4f\n", bs, fractions[i]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return rep.fail(err)
		}
	}
	return rep
}

// runTracedLight runs a k-means program with states-only tracing (the
// Figure 13 timelines need no counters or communication records).
func (r *Runner) runTracedLight(p *openstream.Program, bs int) (*core.Trace, openstream.Result, error) {
	cfg := openstream.DefaultConfig(r.KMeansMachine)
	cfg.Sched = openstream.SchedNUMA
	cfg.Seed = r.Seed
	cfg.Tracing = openstream.TraceStates()
	if r.HW != nil {
		cfg.HW = *r.HW
	}
	return runInMemory(p, cfg)
}

// Fig16 reproduces Figure 16: the task duration histogram of the main
// computation tasks, multi-peaked despite similar workloads.
func (r *Runner) Fig16() Report {
	rep := Report{ID: "fig16", Title: "K-means: duration histogram of computation tasks"}
	tr, _, err := r.KMeansTrace()
	if err != nil {
		return rep.fail(err)
	}
	dist := filter.ByTypeNames(tr, apps.KMeansDistanceType)
	durs := filter.Durations(tr, dist)
	h := stats.NewHistogram(durs, 30, 0, 0)
	peaks := h.Peaks(h.Total / 100)
	mean := regress.Mean(durs)
	rep.row("distribution is multi-peaked", ">= 2 peaks (6.5M-12.5M cycles)",
		fmt.Sprintf("%d peaks, mean %s", len(peaks), mcycles(mean)), len(peaks) >= 2)
	rep.row("durations not uniform", "similar workloads, non-uniform time",
		fmt.Sprintf("stddev %s", mcycles(regress.StdDev(durs))),
		regress.StdDev(durs) > 0.05*mean)

	if path := r.art(&rep, "fig16_duration_hist.csv"); path != "" {
		if err := writeArtifact(path, func(f *os.File) error {
			if _, err := fmt.Fprintln(f, "bin_center_cycles,count,fraction"); err != nil {
				return err
			}
			for i := range h.Counts {
				if _, err := fmt.Fprintf(f, "%.0f,%d,%.5f\n", h.BinCenter(i), h.Counts[i], h.Fraction(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return rep.fail(err)
		}
	}
	return rep
}

// Fig17 reproduces Figure 17: the heatmap over several iterations —
// every CPU executes both long and short tasks throughout, so the
// anomaly is not topological.
func (r *Runner) Fig17() Report {
	rep := Report{ID: "fig17", Title: "K-means: heatmap across iterations"}
	tr, _, err := r.KMeansTrace()
	if err != nil {
		return rep.fail(err)
	}
	span := tr.Span.Duration()
	t0 := tr.Span.Start + span*3/10
	t1 := tr.Span.Start + span*45/100
	fb, _, err := render.Timeline(tr, render.TimelineConfig{
		Width: 1100, Height: 4 * tr.NumCPUs(), Mode: render.ModeHeat,
		Start: t0, End: t1,
		Filter: filter.ByTypeNames(tr, apps.KMeansDistanceType),
		Labels: true,
	})
	if err != nil {
		return rep.fail(err)
	}
	if path := r.art(&rep, "fig17_kmeans_heatmap.png"); path != "" {
		if err := fb.WritePNG(path); err != nil {
			return rep.fail(err)
		}
	}
	// No relationship between duration and topology: the mean
	// duration per CPU varies far less than durations overall.
	dist := filter.ByTypeNames(tr, apps.KMeansDistanceType)
	perCPU := make(map[int32][]float64)
	for _, t := range filter.Tasks(tr, dist) {
		perCPU[t.ExecCPU] = append(perCPU[t.ExecCPU], float64(t.Duration()))
	}
	var cpuMeans []float64
	for _, ds := range perCPU {
		cpuMeans = append(cpuMeans, regress.Mean(ds))
	}
	overallStd := regress.StdDev(filter.Durations(tr, dist))
	cpuStd := regress.StdDev(cpuMeans)
	rep.row("long and short tasks on every core", "no topology relationship",
		fmt.Sprintf("per-CPU mean spread %s vs overall %s", mcycles(cpuStd), mcycles(overallStd)),
		cpuStd < overallStd/2)
	return rep
}

// Fig18 reproduces Figure 18: a zoomed heatmap overlaid with the
// branch misprediction rate, revealing that dark (long) tasks carry
// high misprediction rates.
func (r *Runner) Fig18() Report {
	rep := Report{ID: "fig18", Title: "K-means: misprediction rate overlay"}
	tr, _, err := r.KMeansTrace()
	if err != nil {
		return rep.fail(err)
	}
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		return rep.fail(fmt.Errorf("missing branch counter"))
	}
	span := tr.Span.Duration()
	cfg := render.TimelineConfig{
		Width: 1100, Height: 320,
		Start: tr.Span.Start + span*40/100, End: tr.Span.Start + span*45/100,
		CPUs: []int32{0, 1, 2, 3, 4},
		Mode: render.ModeHeat, Labels: true,
	}
	fb, _, err := render.Timeline(tr, cfg)
	if err != nil {
		return rep.fail(err)
	}
	ci := tr.CounterIndex()
	render.OverlayCounter(fb, tr, cfg, render.OverlayConfig{
		Counter: c, Rate: true, Color: render.CategoryColor(7),
	}, ci)
	if path := r.art(&rep, "fig18_mispred_overlay.png"); path != "" {
		if err := fb.WritePNG(path); err != nil {
			return rep.fail(err)
		}
	}
	// The vertical axis auto-adjusts to [0; max rate]; the paper's
	// interval is [0; 0.009215] mispredictions per cycle.
	var maxRate float64
	for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
		t := ci.RateTree(c, cpu)
		if t.Len() == 0 {
			continue
		}
		_, mx, ok := t.MinMaxIndex(0, t.Len())
		if ok {
			if rate := float64(mx) / core.RateScale / 1000; rate > maxRate {
				maxRate = rate
			}
		}
	}
	rep.row("max misprediction rate", "0.009215 per cycle",
		fmt.Sprintf("%.6f per cycle", maxRate), within(maxRate, 0.003, 0.02))
	return rep
}

// Fig19 reproduces Figure 19: task duration as a function of the
// branch misprediction rate, with outliers below 1Mcycles filtered
// out; the least-squares fit has R^2 = 0.83 in the paper.
func (r *Runner) Fig19() Report {
	rep := Report{ID: "fig19", Title: "K-means: duration vs misprediction rate regression"}
	tr, _, err := r.KMeansTrace()
	if err != nil {
		return rep.fail(err)
	}
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		return rep.fail(fmt.Errorf("missing branch counter"))
	}
	f := filter.ByTypeNames(tr, apps.KMeansDistanceType).WithDuration(outlierCut(tr), 0)
	deltas := metrics.CounterDeltaPerTask(tr, c, f)
	if len(deltas) < 10 {
		return rep.fail(fmt.Errorf("only %d attributed tasks", len(deltas)))
	}
	xs := make([]float64, len(deltas)) // mispredictions per kcycle
	ys := make([]float64, len(deltas)) // duration in cycles
	for i, d := range deltas {
		xs[i] = d.Rate * 1000
		ys[i] = float64(d.Task.Duration())
	}
	fit, err := regress.Linear(xs, ys)
	if err != nil {
		return rep.fail(err)
	}
	r2lo := 0.65
	if r.Relaxed {
		r2lo = 0.45
	}
	rep.row("coefficient of determination", "R2 = 0.83",
		fmt.Sprintf("R2 = %.3f (n=%d)", fit.R2, fit.N), within(fit.R2, r2lo, 0.99))
	rep.row("correlation direction", "longer tasks mispredict more",
		fmt.Sprintf("slope %.0f cycles per mispred/kcycle", fit.Slope), fit.Slope > 0)

	if path := r.art(&rep, "fig19_regression.csv"); path != "" {
		if err := writeArtifact(path, func(f2 *os.File) error {
			return export.TasksCSV(f2, tr, f, []*core.Counter{c})
		}); err != nil {
			return rep.fail(err)
		}
	}
	if path := r.art(&rep, "fig19_scatter.png"); path != "" {
		fb, err := render.PlotScatter(render.PlotConfig{Width: 800, Height: 500,
			Title: "DURATION VS MISPREDICTION RATE"}, xs, ys, &fit)
		if err != nil {
			return rep.fail(err)
		}
		if err := fb.WritePNG(path); err != nil {
			return rep.fail(err)
		}
	}
	return rep
}

// TableV reproduces the Section V result: hoisting the conditional
// cluster update out of the inner loop reduces the mean computation
// task duration from 9.76M to 7.73M cycles and the standard deviation
// from 1.18M to 335K cycles.
func (r *Runner) TableV() Report {
	rep := Report{ID: "tableV", Title: "K-means: conditional vs unconditional update"}
	tr, _, err := r.KMeansTrace()
	if err != nil {
		return rep.fail(err)
	}
	dist := filter.ByTypeNames(tr, apps.KMeansDistanceType).WithDuration(outlierCut(tr), 0)
	condDurs := filter.Durations(tr, dist)

	ucfg := r.KMeansCfg
	ucfg.Unconditional = true
	p, err := apps.BuildKMeans(ucfg)
	if err != nil {
		return rep.fail(err)
	}
	scfg := openstream.DefaultConfig(r.KMeansMachine)
	scfg.Sched = openstream.SchedNUMA
	scfg.Seed = r.Seed
	scfg.Tracing = openstream.TraceStates()
	if r.HW != nil {
		scfg.HW = *r.HW
	}
	trU, _, err := runInMemory(p, scfg)
	if err != nil {
		return rep.fail(err)
	}
	distU := filter.ByTypeNames(trU, apps.KMeansDistanceType).WithDuration(outlierCut(trU), 0)
	uncondDurs := filter.Durations(trU, distU)

	mc, sc := regress.Mean(condDurs), regress.StdDev(condDurs)
	mu, su := regress.Mean(uncondDurs), regress.StdDev(uncondDurs)
	rep.row("mean duration, conditional", "9.76Mcycles", mcycles(mc), true)
	rep.row("mean duration, unconditional", "7.73Mcycles", mcycles(mu), mu < mc)
	rep.row("mean reduction", "20.8%", pct(1-mu/mc), within(1-mu/mc, 0.08, 0.35))
	collapse := 2.5
	if r.Relaxed {
		collapse = 1.6
	}
	rep.row("stddev, conditional", "1.18Mcycles", mcycles(sc), true)
	rep.row("stddev, unconditional", "335Kcycles", mcycles(su), su < sc/collapse)
	return rep
}

// TableVI quantifies Section VI-A's trace format properties: binary
// size, compression, and load robustness.
func (r *Runner) TableVI() Report {
	rep := Report{ID: "tableVI", Title: "Trace format: size and compression"}
	cfg := r.KMeansCfg
	p, err := apps.BuildKMeans(cfg)
	if err != nil {
		return rep.fail(err)
	}
	scfg := openstream.DefaultConfig(r.KMeansMachine)
	scfg.Sched = openstream.SchedNUMA
	scfg.Seed = r.Seed
	dir, err := os.MkdirTemp("", "aftermath-tablevi")
	if err != nil {
		return rep.fail(err)
	}
	defer os.RemoveAll(dir)
	plainPath := dir + "/t.atm"
	gzPath := dir + "/t.atm.gz"
	if _, err := runToFile(p, scfg, plainPath); err != nil {
		return rep.fail(err)
	}
	p2, err := apps.BuildKMeans(cfg)
	if err != nil {
		return rep.fail(err)
	}
	if _, err := runToFile(p2, scfg, gzPath); err != nil {
		return rep.fail(err)
	}
	plainSize := fileSize(plainPath)
	gzSize := fileSize(gzPath)
	rep.row("compression", "traces compressed with standard tools",
		fmt.Sprintf("%.1fMB -> %.1fMB (%.1fx)", float64(plainSize)/1e6, float64(gzSize)/1e6,
			float64(plainSize)/float64(gzSize)),
		gzSize < plainSize)
	start := time.Now()
	tr, err := loadTrace(gzPath)
	if err != nil {
		return rep.fail(err)
	}
	loadTime := time.Since(start)
	rep.row("transparent compressed open", "gzip via pipe",
		fmt.Sprintf("%d tasks loaded in %v", len(tr.Tasks), loadTime.Round(time.Millisecond)),
		len(tr.Tasks) == p.NumTasks())
	return rep
}

// outlierCut returns the duration threshold below which computation
// tasks are treated as outliers, as the paper filters tasks below
// 1Mcycles before the Figure 19 regression (about 10% of the mean
// duration); at reduced scale the threshold scales with the data.
func outlierCut(tr *core.Trace) int64 {
	durs := filter.Durations(tr, filter.ByTypeNames(tr, apps.KMeansDistanceType))
	cut := int64(0.12 * regress.Mean(durs))
	if cut > 1_000_000 {
		cut = 1_000_000 // the paper's absolute threshold
	}
	return cut
}

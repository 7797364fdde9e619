// K-means tuning: the paper's Sections III-C and V — sweep the block
// size to find the granularity sweet spot, then correlate task
// duration with branch mispredictions to find and fix the slow-task
// anomaly.
package main

import (
	"fmt"
	"log"
	"os"

	aftermath "github.com/openstream/aftermath"
)

func main() {
	machine := aftermath.Opteron6282SE()

	// Part 1 (Fig. 12): execution time as a function of block size.
	fmt.Println("block size sweep (reduced problem):")
	base := aftermath.ScaledKMeansConfig(256, 1000) // 256K points
	base.MaxIterations = 8
	for _, bs := range []int{32000, 8000, 2000, 500} {
		cfg := base
		cfg.BlockSize = bs
		prog, err := aftermath.BuildKMeans(cfg)
		if err != nil {
			log.Fatal(err)
		}
		sim := aftermath.DefaultSimConfig(machine)
		sim.Sched = aftermath.SchedNUMA
		res, err := aftermath.Simulate(prog, sim, nil) // no tracing: only the makespan
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %6d points/block: %8.1f Mcycles\n", bs, float64(res.Makespan)/1e6)
	}

	// Part 2 (Fig. 16-19): why do equally sized tasks differ in
	// duration? Trace one configuration and attribute the branch
	// misprediction counter to tasks.
	cfg := base
	cfg.BlockSize = 2000
	prog, err := aftermath.BuildKMeans(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sim := aftermath.DefaultSimConfig(machine)
	sim.Sched = aftermath.SchedNUMA
	tr, _, err := aftermath.SimulateToTrace(prog, sim)
	if err != nil {
		log.Fatal(err)
	}

	src := aftermath.Static(tr)
	dist := aftermath.NewQuery().Types(aftermath.KMeansDistanceType)
	durs := durations(src, dist)
	fmt.Printf("\ncomputation tasks: mean %.2f Mcycles, stddev %.2f Mcycles\n",
		aftermath.Mean(durs)/1e6, aftermath.StdDev(durs)/1e6)

	counter, ok := tr.CounterByName(aftermath.CounterBranchMisses)
	if !ok {
		log.Fatal("no branch misprediction counter")
	}
	deltas, _, err := aftermath.QueryTaskDeltas(src, dist.Clone().Counter(aftermath.CounterBranchMisses))
	if err != nil {
		log.Fatal(err)
	}
	xs := make([]float64, 0, len(deltas))
	ys := make([]float64, 0, len(deltas))
	for _, d := range deltas {
		xs = append(xs, d.Rate*1000) // mispredictions per kilocycle
		ys = append(ys, float64(d.Task.Duration()))
	}
	fit, err := aftermath.LinearRegression(xs, ys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("duration vs misprediction rate: R^2 = %.3f over %d tasks\n", fit.R2, fit.N)
	fmt.Println("-> task duration is driven by branch mispredictions (the paper's Fig. 19)")

	// Export the per-task data for external statistics tools.
	f, err := os.Create("kmeans_tasks.csv")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := aftermath.QueryTasksCSV(f, src, dist, []*aftermath.Counter{counter}); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Println("wrote kmeans_tasks.csv")

	// Scatter plot with the fit line.
	fb, err := aftermath.PlotScatter(aftermath.PlotConfig{
		Width: 700, Height: 450, Title: "DURATION VS MISPREDICTION RATE",
	}, xs, ys, &fit)
	if err != nil {
		log.Fatal(err)
	}
	if err := fb.WritePNG("kmeans_regression.png"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote kmeans_regression.png")

	// Part 3 (Section V): apply the fix — the unconditional-update
	// work function — and compare.
	ucfg := cfg
	ucfg.Unconditional = true
	uprog, err := aftermath.BuildKMeans(ucfg)
	if err != nil {
		log.Fatal(err)
	}
	utr, _, err := aftermath.SimulateToTrace(uprog, sim)
	if err != nil {
		log.Fatal(err)
	}
	udurs := durations(aftermath.Static(utr), dist)
	fmt.Printf("\nafter hoisting the conditional update (Section V):\n")
	fmt.Printf("  mean %.2f -> %.2f Mcycles, stddev %.2f -> %.2f Mcycles\n",
		aftermath.Mean(durs)/1e6, aftermath.Mean(udurs)/1e6,
		aftermath.StdDev(durs)/1e6, aftermath.StdDev(udurs)/1e6)
}

// durations returns the execution durations of the executed tasks the
// query selects, in task order.
func durations(src aftermath.TraceSource, q *aftermath.Query) []float64 {
	tasks, _ := aftermath.QueryTasks(src, q)
	var out []float64
	for _, t := range tasks {
		if t.ExecCPU >= 0 {
			out = append(out, float64(t.Duration()))
		}
	}
	return out
}

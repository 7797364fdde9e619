// Quickstart: simulate a small task-parallel workload, analyze the
// trace and render a timeline — the whole Aftermath pipeline in one
// file.
package main

import (
	"fmt"
	"log"

	aftermath "github.com/openstream/aftermath"
)

func main() {
	// 1. Build a workload: 256 Monte Carlo sampling tasks feeding a
	// reduction, on a small 4-node NUMA machine.
	prog, err := aftermath.BuildMonteCarlo(aftermath.DefaultMonteCarloConfig())
	if err != nil {
		log.Fatal(err)
	}
	machine := aftermath.SmallMachine(4, 4)
	cfg := aftermath.DefaultSimConfig(machine)

	// 2. Simulate it, loading the trace directly.
	tr, res, err := aftermath.SimulateToTrace(prog, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %d tasks in %.2f Mcycles on %d CPUs\n",
		res.TasksExecuted, float64(res.Makespan)/1e6, machine.NumCPUs())

	// 3. Ask Aftermath questions about the execution: every view is a
	// Query over a trace source.
	src := aftermath.Static(tr)
	stats, _ := aftermath.QueryStats(src, aftermath.NewQuery())
	fmt.Printf("average parallelism: %.1f\n", stats.AvgParallelism)

	idle, _, err := aftermath.QuerySeries(src, aftermath.NewQuery().Metric("idle").Intervals(20))
	if err != nil {
		log.Fatal(err)
	}
	_, peakIdle := idle.MinMax()
	fmt.Printf("peak idle workers:   %.0f of %d\n", peakIdle, machine.NumCPUs())

	hist, _ := aftermath.QueryHistogram(src, aftermath.NewQuery().Bins(10))
	fmt.Printf("task durations:      %.0f .. %.0f cycles over %d tasks\n",
		hist.Min, hist.Max, hist.Total)

	g := aftermath.ReconstructGraph(tr)
	fmt.Printf("task graph:          %d dependence edges, critical path %d tasks\n",
		g.NumEdges(), g.CriticalPathLength())

	// 4. Render the timeline (state mode) to a PNG and the terminal.
	fb, _, err := aftermath.QueryTimeline(src, aftermath.NewQuery().Size(800, 200).Mode(aftermath.ModeState))
	if err != nil {
		log.Fatal(err)
	}
	if err := fb.WritePNG("quickstart_timeline.png"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntimeline written to quickstart_timeline.png; terminal view:")
	fmt.Print(aftermath.ASCIITimeline(tr, 78, 16))
}

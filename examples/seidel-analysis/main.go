// Seidel analysis: the paper's Section III walkthrough — detect idle
// phases on the timeline, confirm them with the idle-workers derived
// counter, explain them with the task graph's parallelism-by-depth
// profile, and track the slow initialization down to OS page faults.
package main

import (
	"fmt"
	"log"
	"os"

	aftermath "github.com/openstream/aftermath"
)

func main() {
	// A reduced seidel instance: 16x16 blocks of 256x256 doubles,
	// 8 sweeps, on an 8-node machine.
	cfg := aftermath.DefaultSeidelConfig()
	cfg.N = 16 * cfg.BlockSize
	cfg.Iterations = 8
	prog, err := aftermath.BuildSeidel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sim := aftermath.DefaultSimConfig(aftermath.Opteron6282SE())
	tr, res, err := aftermath.SimulateToTrace(prog, sim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seidel: %d tasks, makespan %.2f Gcycles\n\n", res.TasksExecuted, float64(res.Makespan)/1e9)
	src := aftermath.Static(tr)

	// Step 1 (Fig. 2-3): idle phases on the timeline.
	idle, _, err := aftermath.QuerySeries(src, aftermath.NewQuery().Metric("idle").Intervals(100))
	if err != nil {
		log.Fatal(err)
	}
	_, peak := idle.MinMax()
	fmt.Printf("peak idle workers: %.0f of %d — idle phases confirmed\n", peak, tr.NumCPUs())

	// Step 2 (Fig. 5): is it insufficient parallelism? Reconstruct
	// the task graph and compute available parallelism by depth.
	g := aftermath.ReconstructGraph(tr)
	par := g.ParallelismByDepth()
	fmt.Printf("parallelism by depth: %d init tasks at depth 0, drops to %d, ", par[0], par[1])
	max, argmax := 0, 0
	for d, n := range par {
		if n > max {
			max, argmax = n, d
		}
	}
	fmt.Printf("wavefront peaks at %d tasks (depth %d of %d)\n", max, argmax, len(par)-1)
	fmt.Println("-> the dependence wavefront bounds parallelism: the idle phases are inherent")

	// Step 3 (Fig. 7-9): why are early tasks slow? Compare durations
	// by task type.
	initDur := aftermath.Mean(durations(src, aftermath.NewQuery().Types(aftermath.SeidelInitType)))
	blockDur := aftermath.Mean(durations(src, aftermath.NewQuery().Types(aftermath.SeidelBlockType)))
	fmt.Printf("\ninit tasks average %.1f Mcycles vs %.1f Mcycles for compute tasks\n",
		initDur/1e6, blockDur/1e6)

	// Step 4 (Fig. 10): correlate with the OS — the system time and
	// resident size grow almost exclusively during initialization.
	dSys, _, err := aftermath.QuerySeries(src, aftermath.NewQuery().Metric(aftermath.CounterOSSystemTime).Intervals(50))
	if err != nil {
		log.Fatal(err)
	}
	firstHalf, secondHalf := 0.0, 0.0
	for i, v := range dSys.Values {
		if i < dSys.Len()/4 {
			firstHalf += v
		} else {
			secondHalf += v
		}
	}
	fmt.Printf("system-time increase: %.1f%% happens in the first quarter of execution\n",
		100*firstHalf/(firstHalf+secondHalf))
	fmt.Println("-> initialization triggers physical page allocation (the cross-layer anomaly)")

	// Render the three views of the walkthrough.
	for _, v := range []struct {
		name string
		mode aftermath.TimelineMode
	}{
		{"seidel_states.png", aftermath.ModeState},
		{"seidel_heatmap.png", aftermath.ModeHeat},
		{"seidel_typemap.png", aftermath.ModeType},
	} {
		fb, _, err := aftermath.QueryTimeline(src, aftermath.NewQuery().Size(1000, 256).Mode(v.mode).Labels(false))
		if err != nil {
			log.Fatal(err)
		}
		if err := fb.WritePNG(v.name); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", v.name)
	}

	// Export the task graph excerpt for Graphviz.
	f, err := os.Create("seidel_graph.dot")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := g.WriteDOT(f, aftermath.DOTOptions{MaxTasks: 100, Label: "seidel"}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote seidel_graph.dot (render with: dot -Tpdf seidel_graph.dot)")
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

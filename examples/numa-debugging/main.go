// NUMA debugging: the paper's Section IV — compare a NUMA-oblivious
// run-time configuration against the NUMA-aware one using the NUMA
// timeline modes, locality statistics and the communication incidence
// matrix.
package main

import (
	"fmt"
	"log"

	aftermath "github.com/openstream/aftermath"
)

func main() {
	machine := aftermath.Opteron6282SE()
	cfg := aftermath.DefaultSeidelConfig()
	cfg.N = 16 * cfg.BlockSize
	cfg.Iterations = 6

	run := func(sched aftermath.SchedPolicy) (*aftermath.Trace, aftermath.SimResult) {
		prog, err := aftermath.BuildSeidel(cfg)
		if err != nil {
			log.Fatal(err)
		}
		sim := aftermath.DefaultSimConfig(machine)
		sim.Sched = sched
		tr, res, err := aftermath.SimulateToTrace(prog, sim)
		if err != nil {
			log.Fatal(err)
		}
		return tr, res
	}

	trRand, resRand := run(aftermath.SchedRandom)
	trNUMA, resNUMA := run(aftermath.SchedNUMA)

	fmt.Printf("non-optimized run-time: %.2f Gcycles\n", float64(resRand.Makespan)/1e9)
	fmt.Printf("optimized run-time:     %.2f Gcycles (%.2fx speedup)\n\n",
		float64(resNUMA.Makespan)/1e9,
		float64(resRand.Makespan)/float64(resNUMA.Makespan))

	// Locality of reads, as the NUMA read maps visualize (Fig. 14).
	for _, v := range []struct {
		name string
		tr   *aftermath.Trace
	}{{"non-optimized", trRand}, {"optimized", trNUMA}} {
		reads, _ := aftermath.QueryCommMatrix(aftermath.Static(v.tr),
			aftermath.NewQuery().Comm(aftermath.Reads).Window(v.tr.Span.Start, v.tr.Span.End+1))
		loc := reads.LocalFraction()
		fmt.Printf("%-14s %5.1f%% of read bytes are node-local\n", v.name, 100*loc)
	}

	// The communication incidence matrix (Fig. 15): uniform red vs
	// sharp diagonal.
	mRand, _ := aftermath.QueryCommMatrix(aftermath.Static(trRand), aftermath.NewQuery().Window(trRand.Span.Start, trRand.Span.End+1))
	mNUMA, _ := aftermath.QueryCommMatrix(aftermath.Static(trNUMA), aftermath.NewQuery().Window(trNUMA.Span.Start, trNUMA.Span.End+1))
	fmt.Printf("\nmatrix diagonal share: %.1f%% vs %.1f%%\n",
		100*mRand.LocalFraction(), 100*mNUMA.LocalFraction())
	if err := aftermath.RenderCommMatrix(mRand, 24).WritePNG("matrix_random.png"); err != nil {
		log.Fatal(err)
	}
	if err := aftermath.RenderCommMatrix(mNUMA, 24).WritePNG("matrix_numa.png"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote matrix_random.png, matrix_numa.png")

	// NUMA timeline modes for both traces.
	for _, v := range []struct {
		name string
		tr   *aftermath.Trace
		mode aftermath.TimelineMode
	}{
		{"numa_read_random.png", trRand, aftermath.ModeNUMARead},
		{"numa_read_numa.png", trNUMA, aftermath.ModeNUMARead},
		{"numa_heat_random.png", trRand, aftermath.ModeNUMAHeat},
		{"numa_heat_numa.png", trNUMA, aftermath.ModeNUMAHeat},
	} {
		fb, _, err := aftermath.QueryTimeline(aftermath.Static(v.tr), aftermath.NewQuery().Size(900, 192).Mode(v.mode).Labels(false))
		if err != nil {
			log.Fatal(err)
		}
		if err := fb.WritePNG(v.name); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", v.name)
	}

	// The hunt above is manual: compare maps, spot the remote tasks.
	// The detector-driven flow in examples/anomaly-hunting automates
	// it — QueryAnomalies ranks the NUMA-remote stragglers (plus
	// duration outliers, imbalance windows and counter spikes)
	// directly, and the viewer serves the same list at /anomalies.
	// MaxPerKind -1 lifts the per-detector cap so the count is a true
	// total, not a saturated top-20.
	found, _, err := aftermath.QueryAnomalies(aftermath.Static(trNUMA), aftermath.NewQuery().MaxPerKind(-1))
	if err != nil {
		log.Fatal(err)
	}
	remote := 0
	for _, a := range found {
		if a.Kind == aftermath.AnomalyNUMARemote {
			remote++
		}
	}
	fmt.Printf("\nautomatic scan of the optimized run: %d NUMA-remote stragglers (see examples/anomaly-hunting)\n", remote)
}

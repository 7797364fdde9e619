// Anomaly hunting: run the automatic cross-layer anomaly detection
// engine over a simulated workload instead of hunting by eye. The
// paper teaches users to *see* duration outliers, NUMA-remote traffic,
// idle workers and counter excursions on the timeline; this walkthrough
// lets the detector framework find and rank them, then converts the
// top findings into timeline annotations.
package main

import (
	"fmt"
	"log"

	aftermath "github.com/openstream/aftermath"
)

func main() {
	// A NUMA-optimized seidel run on the modelled 64-core Opteron.
	// Most accesses are node-local here, so the detectors single out
	// exactly the stragglers the optimization missed: tasks stuck on
	// remote data, slow outliers, and windows with idle workers. (A
	// SchedRandom run is uniformly bad — a high baseline against
	// which individual tasks no longer stand out.)
	prog, err := aftermath.BuildSeidel(aftermath.ScaledSeidelConfig(16, 6))
	if err != nil {
		log.Fatal(err)
	}
	sim := aftermath.DefaultSimConfig(aftermath.Opteron6282SE())
	sim.Sched = aftermath.SchedNUMA
	tr, res, err := aftermath.SimulateToTrace(prog, sim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d tasks over %.2f Gcycles\n\n", res.TasksExecuted, float64(res.Makespan)/1e9)

	// Scan with defaults: four detectors (duration outliers, NUMA
	// locality, load imbalance, counter spikes) run in parallel and
	// merge into one deterministic ranking.
	src := aftermath.Static(tr)
	found, _, err := aftermath.QueryAnomalies(src, aftermath.NewQuery())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("anomaly scan: %d findings\n", len(found))
	for i, a := range found {
		if i >= 10 {
			fmt.Printf("  ... and %d more\n", len(found)-i)
			break
		}
		fmt.Println("  " + a.String())
	}

	// Narrow the hunt exactly like the viewer's /anomalies endpoint:
	// only NUMA findings among the seidel block tasks.
	blocks, _, err := aftermath.QueryAnomalies(src, aftermath.NewQuery().Types(aftermath.SeidelBlockType))
	if err != nil {
		log.Fatal(err)
	}
	numa := 0
	for _, a := range blocks {
		if a.Kind == aftermath.AnomalyNUMARemote {
			numa++
		}
	}
	fmt.Printf("\nNUMA-remote findings among %s tasks: %d\n", aftermath.SeidelBlockType, numa)

	// Convert the top findings into annotations: saved as JSON for a
	// later session, and rendered as amber markers by the viewer
	// (aftermath -anomalies -http :8080 trace.atm.gz does the same).
	anns := aftermath.AnomalyAnnotations(found, "anomaly-scan", 5)
	if err := anns.Save("anomalies.json"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-5 findings written to anomalies.json (%d annotations)\n", len(anns.Annotations))
}

// Command benchgate enforces a benchmark speedup floor on a benchjson
// document (cmd/benchjson): it looks up the fast and slow
// sub-benchmarks of one benchmark, computes slow/fast from a chosen
// metric (ns/op by default), and exits non-zero when the ratio falls
// below the floor — the CI regression gate for the store-open,
// follow-retention and push-latency paths.
//
// With -max instead of -min the gate inverts: the ratio must stay AT
// OR BELOW a ceiling. That is the shape of the store gates — opening a
// large snapshot must not take much longer than a small one, and a
// spilling follow must not retain much more memory than its budget.
//
// Usage:
//
//	benchgate -bench BenchmarkTimelineDenseWindow -fast indexed -slow scan -min 2 BENCH_timeline.json
//	benchgate -bench BenchmarkStoreOpen -fast small -slow large -max 20 BENCH_store.json
//	benchgate -bench BenchmarkFollowRetention -fast spill -slow unbounded -metric peak-bytes -min 2 BENCH_store.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
)

type result struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

type document struct {
	Benchmarks []result `json:"benchmarks"`
}

// procSuffix is the "-8" GOMAXPROCS tail go test appends to benchmark
// names.
var procSuffix = regexp.MustCompile(`-\d+$`)

func metricOf(doc document, name, metric string) (float64, error) {
	for _, r := range doc.Benchmarks {
		if procSuffix.ReplaceAllString(r.Name, "") != name {
			continue
		}
		v, ok := r.Metrics[metric]
		if !ok || v <= 0 {
			return 0, fmt.Errorf("%s: no usable %s metric", r.Name, metric)
		}
		return v, nil
	}
	return 0, fmt.Errorf("benchmark %q not found", name)
}

func main() {
	bench := flag.String("bench", "", "benchmark holding the two sub-benchmarks")
	fast := flag.String("fast", "", "sub-benchmark expected to be fast (ratio denominator)")
	slow := flag.String("slow", "", "sub-benchmark expected to be slow (ratio numerator)")
	metric := flag.String("metric", "ns/op", "metric compared between the two sub-benchmarks")
	min := flag.Float64("min", 0, "least acceptable slow/fast ratio (0 = no floor)")
	max := flag.Float64("max", 0, "greatest acceptable slow/fast ratio (0 = no ceiling)")
	flag.Parse()
	if flag.NArg() != 1 || *bench == "" || *fast == "" || *slow == "" || (*min <= 0 && *max <= 0) {
		fmt.Fprintln(os.Stderr, "usage: benchgate -bench B -fast F -slow S (-min R | -max R) [-metric M] BENCH.json")
		os.Exit(2)
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	fastV, err := metricOf(doc, *bench+"/"+*fast, *metric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	slowV, err := metricOf(doc, *bench+"/"+*slow, *metric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	ratio := slowV / fastV
	fmt.Printf("%s: %s %.0f %s, %s %.0f %s, ratio %.2fx",
		*bench, *slow, slowV, *metric, *fast, fastV, *metric, ratio)
	if *min > 0 {
		fmt.Printf(" (floor %.2fx)", *min)
	}
	if *max > 0 {
		fmt.Printf(" (ceiling %.2fx)", *max)
	}
	fmt.Println()
	if *min > 0 && ratio < *min {
		fmt.Fprintf(os.Stderr, "benchgate: ratio %.2fx below the %.2fx floor\n", ratio, *min)
		os.Exit(1)
	}
	if *max > 0 && ratio > *max {
		fmt.Fprintf(os.Stderr, "benchgate: ratio %.2fx above the %.2fx ceiling\n", ratio, *max)
		os.Exit(1)
	}
}

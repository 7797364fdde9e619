// Command atmbench measures what a person at the Aftermath viewer
// feels — file → first tile, pan/zoom → pixels, producer write → pushed
// repaint — and, in a separate traced run, which layer the time went
// to. Inputs are generated from -seed; the program under test only
// sees the generated files and URLs.
//
// Usage:
//
//	atmbench -seed 1                      every workload, untraced then traced
//	atmbench -workload pan_zoom -trace 0  one workload's end-to-end metrics
//	atmbench -workload pan_zoom -trace 1  the per-layer metrics
//	atmbench -seed 1 -out result.json     also write the full result
//
// With one workload and one mode the last line of standard output is
// the machine-readable result: {"correct", "attempted", "failed",
// "metrics"}. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"github.com/openstream/aftermath/internal/atmbench"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "seed every input and request sequence is generated from")
		workload = flag.String("workload", "all", "workload to run, or all")
		traceArg = flag.String("trace", "both", "0: end-to-end metrics, 1: traced per-layer metrics, both")
		seconds  = flag.Float64("seconds", 12, "how long each measured phase keeps starting sessions")
		out      = flag.String("out", "", "write the full result to this JSON file, a traced run's spans to <out>.spans.json beside it")
	)
	flag.Parse()
	if err := run(*seed, *workload, *traceArg, *seconds, *out); err != nil {
		fmt.Fprintln(os.Stderr, "atmbench:", err)
		os.Exit(1)
	}
}

// report is the -out document. The traced run's spans go to a file of
// their own beside it (result.json → result.spans.json): there can be
// hundreds of thousands, and the result should stay readable and
// diffable.
type report struct {
	Machine atmbench.Machine   `json:"machine"`
	Seed    int64              `json:"seed"`
	Results []*atmbench.Result `json:"results"`
}

func run(seed int64, workload, traceArg string, seconds float64, out string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if traceArg != "0" && traceArg != "1" && traceArg != "both" {
		return fmt.Errorf("-trace must be 0, 1 or both, not %q", traceArg)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	names := []string{workload}
	if workload == "all" {
		names = names[:0]
		for _, w := range atmbench.Workloads {
			names = append(names, w.Name)
		}
	}
	// Inputs live under the working directory — the checkout — and are
	// gone when the run ends.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "atmbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep := report{Machine: atmbench.ThisMachine(), Seed: seed}
	fmt.Printf("atmbench: seed %d, %gs per workload, %d cores (GOMAXPROCS %d), %s, commit %s\n",
		seed, seconds, rep.Machine.NumCPU, rep.Machine.GOMAXPROCS, rep.Machine.GoVersion, rep.Machine.Commit)
	cfg := atmbench.Config{Seed: seed, Seconds: seconds, Dir: dir, Sizes: atmbench.FullSizes()}
	var last *atmbench.Result
	if traceArg != "1" {
		for _, name := range names {
			cfg.Workload = name
			res, err := atmbench.Run(cfg)
			if err != nil {
				return err
			}
			show(os.Stdout, res)
			rep.Results = append(rep.Results, res)
			last = res
		}
	}
	if traceArg != "0" {
		cfg.Workload = workload
		res, err := atmbench.RunTraced(cfg)
		if err != nil {
			return err
		}
		show(os.Stdout, res)
		rep.Results = append(rep.Results, res)
		last = res
		if out != "" {
			if err := writeJSON(strings.TrimSuffix(out, ".json")+".spans.json", res.Spans, ""); err != nil {
				return err
			}
		}
	}
	if out != "" {
		if err := writeJSON(out, rep, " "); err != nil {
			return err
		}
	}
	if len(rep.Results) == 1 {
		// The contract's last line: one workload, one mode.
		line, err := json.Marshal(struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]atmbench.Metric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	for _, r := range rep.Results {
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d operations failed their checks", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

func writeJSON(path string, v interface{}, indent string) error {
	b, err := json.MarshalIndent(v, "", indent)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// show lists every metric of a result by name, with its unit.
func show(w io.Writer, r *atmbench.Result) {
	mode := "end-to-end"
	if r.Traced {
		mode = "traced, per layer"
	}
	fmt.Fprintf(w, "\n== %s (%s): %d operations attempted, %d failed\n", r.Workload, mode, r.Attempted, r.Failed)
	table := func(title string, m map[string]atmbench.Metric) {
		if len(m) > 0 {
			fmt.Fprintf(w, "-- %s\n", title)
		}
		for _, n := range slices.Sorted(maps.Keys(m)) {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	table("metrics", r.Metrics)
	table("extras", r.Extras)
	if len(r.Timings) > 0 {
		fmt.Fprintf(w, "-- timings (n, p50, tail)\n")
	}
	for _, n := range slices.Sorted(maps.Keys(r.Timings)) {
		t := r.Timings[n]
		fmt.Fprintf(w, "  %-34s n=%-6d p50 %12.4f  p%.0f %12.4f\n", n, t.N, t.P50, t.TailPct, t.Tail)
	}
	if len(r.LayerSelfMs) > 0 {
		fmt.Fprintf(w, "-- layer self time on the replayed path (ms per operation)\n")
	}
	for _, work := range slices.Sorted(maps.Keys(r.LayerSelfMs)) {
		fmt.Fprintf(w, "  %s:", work)
		for _, l := range slices.Sorted(maps.Keys(r.LayerSelfMs[work])) {
			fmt.Fprintf(w, " %s=%.3f", l, r.LayerSelfMs[work][l])
		}
		fmt.Fprintln(w)
	}
	for _, s := range r.Issues {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", s)
	}
	for _, s := range r.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", s)
	}
}

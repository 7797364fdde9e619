package atmbench

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/openstream/aftermath/internal/leakcheck"
)

// The workloads start a server, SSE readers and spill compactions; the
// guard proves each run stops and waits for everything it starts.
func TestMain(m *testing.M) { leakcheck.Main(m) }

func tinyConfig(t *testing.T, workload string) Config {
	return Config{Workload: workload, Seed: 5, Seconds: 0.05, Dir: t.TempDir(), Sizes: TinySizes()}
}

// TestWorkloadsUntraced runs every workload at smoke-test size: each
// must pass its own output checks and report every end-to-end metric,
// none of them zero.
func TestWorkloadsUntraced(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := Run(tinyConfig(t, w.Name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, res.Issues)
			}
			if len(res.Metrics) != len(EndToEnd) {
				t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(EndToEnd))
			}
			for _, m := range EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("%s = %v %q (reported %v), want a positive value in %s", m.Name, got.Value, got.Unit, ok, m.Unit)
				}
			}
			if res.Timings["op_ms"].N != res.Attempted {
				t.Errorf("%d operation timings for %d operations", res.Timings["op_ms"].N, res.Attempted)
			}
		})
	}
}

// TestWorkloadsTraced runs the traced suite with one workload selected:
// every workload still runs, so every per-layer metric must be
// measured — a time that reads zero means its span never ran.
func TestWorkloadsTraced(t *testing.T) {
	res, err := RunTraced(tinyConfig(t, HotRevisit))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("%d of %d failed: %v", res.Failed, res.Attempted, res.Issues)
	}
	if len(res.Metrics) != len(LayerMetrics) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(LayerMetrics))
	}
	// Counts that are legitimately zero: nothing ages out of a spill
	// directory without a byte budget, compactions may all have landed
	// whenever the driver looked, and a smoke-test trace is too short
	// to hold an anomaly.
	mayBeZero := map[string]bool{"core.spill_dropped": true, "core.spill_pending_max": true, "anomaly.findings": true}
	for _, m := range LayerMetrics {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: reported %v in %q, declared in %q", m.Name, ok, got.Unit, m.Unit)
		}
		if got.Value == 0 && !mayBeZero[m.Name] {
			t.Errorf("%s reads zero: it was never measured", m.Name)
		}
	}
	for _, w := range Workloads {
		row := res.LayerSelfMs[w.Name]
		if len(row) < 2 {
			t.Errorf("%s: layer self times %v", w.Name, row)
		}
	}
	if len(res.Spans) == 0 {
		t.Error("no spans recorded")
	}
	for i, s := range res.Spans {
		if s.End < s.Start || s.Parent >= i {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
	// The selected workload's own metrics describe hot_revisit.
	if got := res.Metrics["ui.hit_ratio"].Value; got != 1 {
		t.Errorf("hot_revisit selected: hit ratio %v, want 1", got)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Run(tinyConfig(t, "nope")); err == nil {
		t.Error("Run accepted an unknown workload")
	}
	if _, err := RunTraced(tinyConfig(t, "nope")); err == nil {
		t.Error("RunTraced accepted an unknown workload")
	}
}

// TestBenchmarkJSON keeps the root BENCHMARK.json and the harness in
// step: the same workloads, the same metrics, units and directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(doc.EndToEnd) != len(EndToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(doc.EndToEnd), len(EndToEnd))
	}
	for i, m := range EndToEnd {
		d := doc.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound == nil || *d.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, d, m)
		}
	}
	if len(doc.PerLayer) != len(LayerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(doc.PerLayer), len(LayerMetrics))
	}
	for i, m := range LayerMetrics {
		d := doc.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != nil {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, d, m)
		}
	}
}

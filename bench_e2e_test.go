package aftermath

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchE2E is the layout of BENCH_e2e.json: one entry per change whose
// end-to-end atmbench figures are recorded, in change order. A run is
// one workload measured over alternating parent/change pairs, one pair
// a seed; a metric holds the medians of the parent's and the change's
// runs, the interquartile range of the parent's, and how many pairs the
// change won.
type benchE2E struct {
	About   string `json:"about"`
	Entries []struct {
		PR          int    `json:"pr"`
		Kind        string `json:"kind"`
		Title       string `json:"title"`
		Parent      string `json:"parent"`
		TypedByHand bool   `json:"typed_by_hand"`
		Source      string `json:"source"`
		Runs        []struct {
			Workload string `json:"workload"`
			Seeds    []int  `json:"seeds"`
			Pairs    int    `json:"pairs"`
			Metrics  map[string]struct {
				Parent    *float64 `json:"parent"`
				Change    *float64 `json:"change"`
				ParentIQR *float64 `json:"parent_iqr"`
				Won       *int     `json:"won"`
			} `json:"metrics"`
			Failed struct {
				Parent *int `json:"parent"`
				Change *int `json:"change"`
			} `json:"failed"`
		} `json:"runs"`
	} `json:"entries"`
}

// TestBenchE2ESchema holds BENCH_e2e.json to its layout: no field it
// does not know, every field present, change numbers increasing, and
// every workload and metric named as BENCHMARK.json names them, which
// it reads and does not write. It checks no figure.
func TestBenchE2ESchema(t *testing.T) {
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var workloads, metrics []string
	for _, w := range bench.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range bench.EndToEnd {
		metrics = append(metrics, m.Name)
	}

	raw, err = os.ReadFile("BENCH_e2e.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var doc benchE2E
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.About == "" || len(doc.Entries) == 0 {
		t.Fatal("no description or no entry")
	}
	last := 0
	for _, e := range doc.Entries {
		if e.PR <= last {
			t.Errorf("entry %d follows entry %d", e.PR, last)
		}
		last = e.PR
		if e.Kind == "" || e.Title == "" || e.Parent == "" || e.Source == "" || len(e.Runs) == 0 {
			t.Errorf("entry %d: kind %q, title %q, parent %q, source %q, %d runs", e.PR, e.Kind, e.Title, e.Parent, e.Source, len(e.Runs))
		}
		for _, r := range e.Runs {
			if !slices.Contains(workloads, r.Workload) {
				t.Errorf("entry %d: workload %q is not in BENCHMARK.json", e.PR, r.Workload)
			}
			seeds := slices.Clone(r.Seeds)
			slices.Sort(seeds)
			if len(seeds) == 0 || seeds[0] < 1 || len(slices.Compact(seeds)) != len(r.Seeds) || r.Pairs != len(r.Seeds) {
				t.Errorf("entry %d, %s: seeds %v for %d pairs", e.PR, r.Workload, r.Seeds, r.Pairs)
			}
			if r.Failed.Parent == nil || r.Failed.Change == nil {
				t.Errorf("entry %d, %s: failed operations not given", e.PR, r.Workload)
			}
			if len(r.Metrics) == 0 {
				t.Errorf("entry %d, %s: no metric", e.PR, r.Workload)
			}
			for name, m := range r.Metrics {
				if !slices.Contains(metrics, name) {
					t.Errorf("entry %d, %s: metric %q is not an end-to-end metric of BENCHMARK.json", e.PR, r.Workload, name)
				}
				if m.Parent == nil || m.Change == nil || m.ParentIQR == nil || m.Won == nil || *m.Won < 0 || *m.Won > r.Pairs {
					t.Errorf("entry %d, %s, %s: a median, the IQR or the pairs won missing or out of range", e.PR, r.Workload, name)
				}
			}
		}
	}
}

package aftermath_test

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	aftermath "github.com/openstream/aftermath"
	"github.com/openstream/aftermath/internal/anomaly"
)

const spanFixture = "internal/ingest/otlp/testdata/spans.jsonl"

func importFixture(t *testing.T) (*aftermath.Trace, *aftermath.ImportReport) {
	t.Helper()
	f, err := os.Open(spanFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, rep, err := aftermath.ImportSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	return tr, rep
}

// TestImportGoldenTopology pins the topology inferred from the
// committed fixture through the public API: services map to NUMA nodes
// and worker lanes to CPUs in first-seen order, so two imports of the
// same file — on any machine — must produce exactly this layout.
func TestImportGoldenTopology(t *testing.T) {
	tr, rep := importFixture(t)

	if got, want := tr.Topology.Name, "imported-spans (3 services)"; got != want {
		t.Errorf("topology name %q, want %q", got, want)
	}
	if tr.Topology.NumNodes != 3 {
		t.Errorf("NumNodes = %d, want 3", tr.Topology.NumNodes)
	}
	wantNodes := []int32{0, 0, 1, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(tr.Topology.NodeOfCPU, wantNodes) {
		t.Errorf("NodeOfCPU = %v, want %v", tr.Topology.NodeOfCPU, wantNodes)
	}
	if rep.Spans != 60 || rep.Traces != 10 || rep.Dropped != 0 {
		t.Errorf("report: spans=%d traces=%d dropped=%d, want 60/10/0", rep.Spans, rep.Traces, rep.Dropped)
	}
	wantTypes := []string{"db.query", "db.commit", "backend.inventory", "backend.charge", "frontend.GET /checkout"}
	if len(tr.Types) != len(wantTypes) {
		t.Fatalf("types = %d, want %d", len(tr.Types), len(wantTypes))
	}
	for i, want := range wantTypes {
		if tr.Types[i].Name != want {
			t.Errorf("type %d = %q, want %q", i, tr.Types[i].Name, want)
		}
	}
}

// TestImportTimelineDeterministic: rendering an imported trace twice
// yields byte-identical framebuffers — the importer feeds the
// golden-tested render path, so any nondeterminism in the inference
// (map ordering, lane assignment) would show up here as pixel churn.
func TestImportTimelineDeterministic(t *testing.T) {
	q := aftermath.NewQuery().Size(320, 160).Labels(false)
	var prev []byte
	for i := 0; i < 2; i++ {
		tr, _ := importFixture(t)
		fb, _, err := aftermath.QueryTimeline(aftermath.Static(tr), q)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !bytes.Equal(prev, fb.RGBA().Pix) {
			t.Fatal("two imports of the same span file rendered different timelines")
		}
		prev = append([]byte(nil), fb.RGBA().Pix...)
	}
}

// TestImportAnomaliesDeterministic: the anomaly scan over an imported
// trace ranks the same findings regardless of worker count, and the top
// finding is the duration outlier planted in the fixture (request 7's
// 35ms db.query against a 1ms baseline).
func TestImportAnomaliesDeterministic(t *testing.T) {
	tr, _ := importFixture(t)

	one := anomaly.Scan(tr, anomaly.Config{Workers: 1})
	four := anomaly.Scan(tr, anomaly.Config{Workers: 4})
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("anomaly scan differs across worker counts:\n%+v\n%+v", one, four)
	}
	if len(one) == 0 {
		t.Fatal("no anomalies found on a fixture with a planted outlier")
	}
	if got := one[0].Kind.String(); got != "duration-outlier" {
		t.Errorf("top finding kind = %q, want duration-outlier", got)
	}
}

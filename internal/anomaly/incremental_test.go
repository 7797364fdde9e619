package anomaly

import (
	"reflect"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
)

// TestScanIndexedEqualsNoIndex is the detector-level equivalence: a
// live-fed snapshot carries the incrementally maintained aggregate
// baselines, a batch load of the same bytes carries none and so walks
// the whole trace by construction; every configuration must produce
// byte-identical findings on the two.
func TestScanIndexedEqualsNoIndex(t *testing.T) {
	snap := atmtest.SeidelLiveTrace(t, 6, 4, openstream.SchedRandom, 16)
	if snap.TaskLocality() == nil || snap.CommTotals() == nil {
		t.Fatal("live snapshot carries no aggregate baselines")
	}
	batch := atmtest.SeidelTrace(t, 6, 4, openstream.SchedRandom)
	if batch.TaskLocality() != nil || batch.CommTotals() != nil {
		t.Fatal("batch load carries aggregate baselines; nothing walks the trace")
	}
	mid := snap.Span.Start + snap.Span.Duration()/2
	cases := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"many-windows", Config{Windows: 128}},
		{"low-cutoff", Config{MinScore: 0.5, MaxPerKind: -1}},
		{"sub-window", Config{Window: core.Interval{Start: snap.Span.Start, End: mid}}},
		{"serial", Config{Workers: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			indexed := Scan(snap, tc.cfg)
			cold := Scan(batch, tc.cfg)
			if !reflect.DeepEqual(indexed, cold) {
				t.Fatalf("scan of the live snapshot (%d findings) differs from the batch load's (%d findings)",
					len(indexed), len(cold))
			}
			if tc.name == "default" && len(indexed) == 0 {
				t.Fatal("default scan found nothing; the equality above is vacuous")
			}
		})
	}
}

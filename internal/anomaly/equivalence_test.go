package anomaly

import (
	"reflect"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/trace"
)

// TestScanLiveEqualsBatch is the detector-level equivalence: a
// snapshot fed through the live path in 16 publishes and a batch load
// of the same bytes must produce byte-identical findings under every
// configuration.
func TestScanLiveEqualsBatch(t *testing.T) {
	snap := atmtest.SeidelLiveTrace(t, 6, 4, openstream.SchedRandom, 16)
	batch := atmtest.SeidelTrace(t, 6, 4, openstream.SchedRandom)
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
			live := Scan(snap, tc.cfg)
			cold := Scan(batch, tc.cfg)
			if !reflect.DeepEqual(live, cold) {
				t.Fatalf("scan of the live snapshot (%d findings) differs from the batch load's (%d findings)",
					len(live), len(cold))
			}
			if tc.name == "default" && len(live) == 0 {
				t.Fatal("default scan found nothing; the equality above is vacuous")
			}
		})
	}
}

// granularityScript is a seven-batch feed that walks the edges where
// state carried from one publish to the next could go stale: regions
// arriving after the accesses they home, communication appended into
// an already-published task's execution window, an empty batch, an
// out-of-order communication producer beside a late first execution,
// a re-execution that moves a task to another CPU, and a topology
// replacement that inverts the node mapping.
func granularityScript() []*trace.RecordBatch {
	exec := func(cpu int32, task trace.TaskID, s, e trace.Time) trace.StateEvent {
		return trace.StateEvent{CPU: cpu, State: trace.StateTaskExec, Start: s, End: e, Task: task}
	}
	read := func(cpu int32, task trace.TaskID, at trace.Time, addr, size uint64) trace.CommEvent {
		return trace.CommEvent{Kind: trace.CommRead, CPU: cpu, SrcCPU: -1, Time: at, Task: task, Addr: addr, Size: size}
	}
	write := func(cpu int32, task trace.TaskID, at trace.Time, addr, size uint64) trace.CommEvent {
		ev := read(cpu, task, at, addr, size)
		ev.Kind = trace.CommWrite
		return ev
	}
	return []*trace.RecordBatch{
		// 1: two-node topology; tasks execute and access addresses no
		// region covers yet.
		{
			Topologies: []trace.Topology{{
				NodeOfCPU: []int32{0, 0, 1, 1},
				Distance:  []int32{0, 1, 1, 0},
				NumNodes:  2,
			}},
			TaskTypes: []trace.TaskType{{ID: 1, Name: "left"}, {ID: 2, Name: "right"}},
			Tasks: []trace.Task{
				{ID: 10, Type: 1}, {ID: 11, Type: 1}, {ID: 12, Type: 2}, {ID: 13, Type: 2},
			},
			States: []trace.StateEvent{
				exec(0, 10, 100, 200), exec(0, 11, 300, 500),
				exec(2, 12, 100, 250), exec(2, 13, 300, 450),
			},
			Comms: []trace.CommEvent{
				read(0, 10, 110, 0x1100, 6000),
				read(0, 11, 310, 0x1200, 8000),
				write(2, 12, 120, 0x1300, 7000),
			},
		},
		// 2: the region table arrives after the accesses it homes.
		{
			Regions: []trace.MemRegion{{ID: 1, Addr: 0x1000, Size: 0x1000, Node: 1}},
		},
		// 3: communication into task 11's already-published window,
		// plus a new task.
		{
			Tasks:  []trace.Task{{ID: 14, Type: 1}},
			States: []trace.StateEvent{exec(1, 14, 600, 900)},
			Comms: []trace.CommEvent{
				read(0, 11, 450, 0x1400, 5000),
				write(1, 14, 700, 0x1500, 9000),
			},
		},
		// 4: nothing appended.
		{},
		// 5: CPU 2's producer goes back in time (130 after 120 is in
		// order; 105 is not), and a new task executes late.
		{
			Tasks:  []trace.Task{{ID: 15, Type: 2}},
			States: []trace.StateEvent{exec(3, 15, 1000, 1600)},
			Comms: []trace.CommEvent{
				read(2, 12, 130, 0x1600, 4096),
				read(2, 12, 105, 0x1680, 4096),
				read(3, 15, 1100, 0x1700, 4096),
			},
		},
		// 6: task 13 re-executes on another CPU.
		{
			States: []trace.StateEvent{exec(1, 13, 2000, 2800)},
			Comms:  []trace.CommEvent{read(1, 13, 2100, 0x1800, 8192)},
		},
		// 7: topology replaced, node mapping inverted.
		{
			Topologies: []trace.Topology{{
				NodeOfCPU: []int32{1, 1, 0, 0},
				Distance:  []int32{0, 1, 1, 0},
				NumNodes:  2,
			}},
		},
	}
}

// TestPublishGranularityInvariant: what a snapshot answers depends on
// the records appended, never on how many publishes they were spread
// over. After each batch of granularityScript, the snapshot of a trace
// published after every batch and the snapshot of one fed the same
// prefix and published once must give identical findings, full-span
// communication matrices and locality fractions. A scan of a snapshot
// cannot tell the two apart; baselines carried from epoch to epoch
// can, which is what this pins (checking every prefix, not only the
// last, so a later batch that happens to invalidate everything cannot
// hide an earlier stale edge).
func TestPublishGranularityInvariant(t *testing.T) {
	script := granularityScript()
	cfg := Config{MinScore: 0.01, MaxPerKind: -1}
	perBatch := core.NewLive()
	for k := range script {
		if err := perBatch.Append(script[k]); err != nil {
			t.Fatalf("batch %d: %v", k+1, err)
		}
		a, _ := perBatch.Publish()
		once := core.NewLive()
		for i, b := range script[:k+1] {
			if err := once.Append(b); err != nil {
				t.Fatalf("batch %d: %v", i+1, err)
			}
		}
		b, _ := once.Publish()

		fa, fb := Scan(a, cfg), Scan(b, cfg)
		if !reflect.DeepEqual(fa, fb) {
			t.Errorf("after batch %d: findings differ\n per-batch: %+v\n once:      %+v", k+1, fa, fb)
		}
		t0, t1 := a.Span.Start, a.Span.End+1
		for _, kinds := range []stats.CommKinds{stats.Reads, stats.Writes, stats.ReadsAndWrites} {
			ma, mb := stats.CommMatrixOf(a, kinds, t0, t1), stats.CommMatrixOf(b, kinds, t0, t1)
			if !reflect.DeepEqual(ma, mb) {
				t.Errorf("after batch %d: comm matrix (kinds %d) differs: per-batch %+v, once %+v", k+1, kinds, ma, mb)
			}
			la, lb := stats.LocalityFraction(a, kinds, t0, t1), stats.LocalityFraction(b, kinds, t0, t1)
			if la != lb {
				t.Errorf("after batch %d: locality fraction (kinds %d) differs: per-batch %g, once %g", k+1, kinds, la, lb)
			}
			if k == len(script)-1 && ma.Total() == 0 {
				t.Errorf("comm matrix (kinds %d) is empty; the equalities above are vacuous", kinds)
			}
		}
		if k == len(script)-1 && len(fa) == 0 {
			t.Error("final scan found nothing; the equalities above are vacuous")
		}
	}
}

// TestDetectorsSortedByName: Scan's slot assignment, and so its
// ranking among equal findings, follows the detector list's order,
// which is the order of the detectors' names.
func TestDetectorsSortedByName(t *testing.T) {
	for i := 1; i < len(detectors); i++ {
		if a, b := detectors[i-1].Name(), detectors[i].Name(); a >= b {
			t.Errorf("detectors[%d] %q sorts at or after detectors[%d] %q", i-1, a, i, b)
		}
	}
}

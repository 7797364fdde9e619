package render

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/trace"
)

// TestRegionOutsideTopologyIgnored: an access to a region homed on a
// node the topology does not have counts nowhere — not in the
// communication matrix, the locality fraction, the NUMA detector's
// baseline or its per-task scores, nor in the NUMA tiles. A trace with
// large such accesses in every task answers what the same trace
// without them does.
func TestRegionOutsideTopologyIgnored(t *testing.T) {
	const (
		local0, local1, outside = 0x1000, 0x20000, 0x40000
		numNodes                = 2
	)
	build := func(stray bool) *core.Trace {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(w.WriteTopology(trace.Topology{Name: "two-node", NumNodes: numNodes, NodeOfCPU: []int32{0, 1}, Distance: []int32{0, 1, 1, 0}}))
		must(w.WriteTaskType(trace.TaskType{ID: 1, Name: "alpha"}))
		must(w.WriteRegion(trace.MemRegion{ID: 1, Addr: local0, Size: 1 << 16, Node: 0}))
		must(w.WriteRegion(trace.MemRegion{ID: 2, Addr: local1, Size: 1 << 16, Node: 1}))
		must(w.WriteRegion(trace.MemRegion{ID: 3, Addr: outside, Size: 1 << 16, Node: numNodes + 2}))
		// Four tasks a CPU, each reading and writing its own node's
		// data, except the third on CPU 0, which reads and writes node
		// 1's: the one NUMA finding.
		id := trace.TaskID(0)
		for cpu := int32(0); cpu < 2; cpu++ {
			for i := int64(0); i < 4; i++ {
				id++
				t0 := i * 1000
				addr := []uint64{local0, local1}[cpu]
				if cpu == 0 && i == 2 {
					addr = local1
				}
				access := func(kind trace.CommKind, at int64, addr, size uint64) {
					must(w.WriteComm(trace.CommEvent{Kind: kind, CPU: cpu, SrcCPU: -1, Time: t0 + at, Task: id, Addr: addr, Size: size}))
				}
				must(w.WriteTask(trace.Task{ID: id, Type: 1, Created: t0, CreatorCPU: cpu}))
				must(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateTaskExec, Start: t0, End: t0 + 1000, Task: id}))
				access(trace.CommRead, 100, addr, 8192)
				if stray {
					access(trace.CommRead, 400, outside, 1<<16)
					access(trace.CommWrite, 600, outside, 1<<16)
				}
				access(trace.CommWrite, 800, addr, 4096)
			}
		}
		must(w.Flush())
		tr, err := core.FromReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	clean, stray := build(false), build(true)
	if n := stray.NodeOfAddr(outside); n != -1 {
		t.Errorf("NodeOfAddr of a region on node %d of %d = %d, want -1", numNodes+2, numNodes, n)
	}

	for _, kinds := range []stats.CommKinds{stats.Reads, stats.Writes, stats.ReadsAndWrites} {
		got, want := stats.CommMatrixOf(stray, kinds, 0, 4000), stats.CommMatrixOf(clean, kinds, 0, 4000)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("kinds %d: communication matrix %v, want %v", kinds, got.Bytes, want.Bytes)
		}
		if got, want := stats.LocalityFraction(stray, kinds, 0, 4000), stats.LocalityFraction(clean, kinds, 0, 4000); got != want {
			t.Errorf("kinds %d: locality fraction %v, want %v", kinds, got, want)
		}
	}

	scan := func(tr *core.Trace) []anomaly.Anomaly {
		return anomaly.ScanWith(tr, anomaly.Config{MaxPerKind: -1}, anomaly.NUMADetector{})
	}
	want := scan(clean)
	if len(want) != 1 || want[0].TaskID != 3 {
		t.Fatalf("NUMA findings on the clean trace: %+v, want task 3's alone", want)
	}
	if got := scan(stray); !reflect.DeepEqual(got, want) {
		t.Errorf("NUMA findings %+v, want %+v", got, want)
	}

	for _, mode := range []Mode{ModeNUMARead, ModeNUMAWrite, ModeNUMAHeat} {
		tile := func(tr *core.Trace) []byte {
			fb, _, err := Timeline(tr, TimelineConfig{Width: 200, Height: 16, Start: 0, End: 4000, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			return fb.RGBA().Pix
		}
		if !bytes.Equal(tile(stray), tile(clean)) {
			t.Errorf("%v tile differs from the trace without the accesses", mode)
		}
	}
}

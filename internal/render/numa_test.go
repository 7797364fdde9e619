package render

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
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

// TestTaskCommExecEndMaxInt64: a task whose execution ends at MaxInt64
// keeps the write it records there. A task's accesses were once asked
// for up to ExecEnd+1, which wraps to MinInt64: the inverted window held
// nothing, so the task lost both its accesses, the NUMA-write tile left
// it blank and the NUMA detector never scored it.
func TestTaskCommExecEndMaxInt64(t *testing.T) {
	const (
		node0, node1 = 0x1000, 0x20000
		end          = math.MaxInt64
	)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(trace.Topology{Name: "two-node", NumNodes: 2, NodeOfCPU: []int32{0, 1}, Distance: []int32{0, 1, 1, 0}}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Name: "alpha"}))
	must(w.WriteRegion(trace.MemRegion{ID: 1, Addr: node0, Size: 1 << 16, Node: 0}))
	must(w.WriteRegion(trace.MemRegion{ID: 2, Addr: node1, Size: 1 << 16, Node: 1}))
	// Task 1 reads its own node's data on CPU 1, which sets a local
	// baseline; task 2 runs on CPU 0 up to the end of time, reading its
	// own node's data at its start and writing node 1's at its end.
	for _, task := range []struct {
		id         trace.TaskID
		cpu        int32
		start      trace.Time
		read, size uint64
	}{{1, 1, end - 2000, node1, 1 << 16}, {2, 0, end - 1000, node0, 8192}} {
		must(w.WriteTask(trace.Task{ID: task.id, Type: 1, CreatorCPU: task.cpu}))
		must(w.WriteState(trace.StateEvent{CPU: task.cpu, State: trace.StateTaskExec, Start: task.start, End: end, Task: task.id}))
		must(w.WriteComm(trace.CommEvent{Kind: trace.CommRead, CPU: task.cpu, SrcCPU: -1, Time: task.start, Task: task.id, Addr: task.read, Size: task.size}))
	}
	must(w.WriteComm(trace.CommEvent{Kind: trace.CommWrite, CPU: 0, SrcCPU: -1, Time: end, Task: 2, Addr: node1, Size: 8192}))
	must(w.Flush())
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}

	task, ok := tr.TaskByID(2)
	if !ok || task.ExecEnd != end {
		t.Fatalf("precondition: task 2 = %+v, %v", task, ok)
	}
	var got []trace.CommEvent
	for _, ev := range tr.TaskAccesses(task).Events {
		if ev.Task == task.ID {
			got = append(got, ev)
		}
	}
	if len(got) != 2 || got[1].Time != end {
		t.Fatalf("task 2's accesses = %+v, want the read at the start and the write at MaxInt64", got)
	}

	for mode, node := range map[Mode]int{ModeNUMARead: 0, ModeNUMAWrite: 1} {
		fb, _, err := Timeline(tr, TimelineConfig{Width: 100, Height: 16, Start: end - 2000, End: end, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fb.RGBA().RGBAAt(75, 2), CategoryColor(node); got != want {
			t.Errorf("%v tile: task 2's row is %v, want node %d's %v", mode, got, node, want)
		}
		// Task 1 writes nothing: its row shows no node in NUMA-write mode.
		if got := fb.RGBA().RGBAAt(75, 10); (got == Background) != (mode == ModeNUMAWrite) {
			t.Errorf("%v tile: task 1's row is %v", mode, got)
		}
	}

	found := anomaly.ScanWith(tr, anomaly.Config{MaxPerKind: -1}, anomaly.NUMADetector{})
	if len(found) != 1 || found[0].TaskID != 2 {
		t.Errorf("NUMA findings %+v, want task 2's alone", found)
	}
}

// TestNUMATileAllocations pins as a count what the per-task home rows
// took off a NUMA-read tile: rendered over a sixteenth of a Seidel run's
// span, with 217 tasks in view, it allocates 79 times once the rows are
// built — its runs and row buffers — where the per-task map of every
// visible task and the node cache made it 526 before the rows existed.
func TestNUMATileAllocations(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 16, 8, openstream.SchedNUMA)
	span := tr.Span.Duration()
	start := tr.Span.Start + span/3
	cfg := TimelineConfig{Width: 900, Height: 380, Mode: ModeNUMARead, Start: start, End: start + span/16}
	render := func() {
		if _, _, err := timeline(tr, cfg, 1, indexResolver(tr)); err != nil {
			t.Fatal(err)
		}
	}
	render() // the first tile builds the rows
	visible := 0
	tr.EachTaskIn(cfg.Start, cfg.End, func(*core.TaskInfo) { visible++ })
	const ceiling = 100
	allocs := testing.AllocsPerRun(10, render)
	t.Logf("%.0f allocations a tile, %d tasks in view", allocs, visible)
	if allocs > ceiling {
		t.Errorf("a NUMA-read tile with %d tasks in view allocates %.0f times, want at most %d", visible, allocs, ceiling)
	}
}

package render

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/trace"
)

// TestRegionOutsideTopologyIgnored: an access to a region homed on a
// node the topology does not have counts nowhere in the NUMA
// detector's baseline or its per-task scores: a trace with large such
// accesses in every task answers what the same trace without them
// does. (The matrix, the locality fraction and the NUMA tiles of such
// accesses are held to the oracle by internal/ui's
// TestServedEqualsOracle.)
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
	var got []core.Comm
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
		if _, _, err := timeline(tr, cfg, 1); err != nil {
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

// TestNUMAHeatHonoursFilter: in numa-heat mode a filtered-out task
// exposes the background like in the other task modes, accesses and
// all. Two tasks of different types run side by side on one CPU, each
// with a remote read at its start and a remote write just before its
// end; filtering to one type must blank exactly the other's columns.
func TestNUMAHeatHonoursFilter(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(trace.Topology{Name: "two-node", NumNodes: 2, NodeOfCPU: []int32{0}, Distance: []int32{0, 1, 1, 0}}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Name: "alpha"}))
	must(w.WriteTaskType(trace.TaskType{ID: 2, Name: "beta"}))
	must(w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x8000, Size: 4096, Node: 1}))
	for i, typ := range []trace.TypeID{1, 2} {
		id, t0 := trace.TaskID(i+1), int64(i)*1000
		must(w.WriteTask(trace.Task{ID: id, Type: typ, Created: t0}))
		must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Start: t0, End: t0 + 1000, Task: id}))
		must(w.WriteComm(trace.CommEvent{Kind: trace.CommRead, CPU: 0, SrcCPU: -1, Time: t0 + 100, Task: id, Addr: 0x8000, Size: 64}))
		must(w.WriteComm(trace.CommEvent{Kind: trace.CommWrite, CPU: 0, SrcCPU: -1, Time: t0 + 900, Task: id, Addr: 0x8000, Size: 64}))
	}
	must(w.Flush())
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const width = 200 // ten cycles a column; task 1 is columns 0-99
	render := func(f *filter.TaskFilter) *Framebuffer {
		fb, _, err := Timeline(tr, TimelineConfig{Width: width, Height: 8, Start: 0, End: 2000, Mode: ModeNUMAHeat, Filter: f})
		if err != nil {
			t.Fatal(err)
		}
		return fb
	}
	all := render(nil)
	if all.At(10, 0) != NUMAHeatShade(1) || all.At(50, 0) != NUMAHeatShade(0) || all.At(190, 0) != NUMAHeatShade(1) {
		t.Fatalf("unfiltered: columns 10, 50, 190 = %v, %v, %v; want remote, local, remote", all.At(10, 0), all.At(50, 0), all.At(190, 0))
	}
	for i, name := range []string{"alpha", "beta"} {
		fb := render(filter.ByTypeNames(tr, name))
		for x := 0; x < width; x++ {
			want := Background
			if x/100 == i {
				want = all.At(x, 0)
			}
			if got := fb.At(x, 0); got != want {
				t.Errorf("types=%s: column %d = %v, want %v", name, x, got, want)
			}
		}
	}
}

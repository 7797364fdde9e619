package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/topology"
	"github.com/openstream/aftermath/internal/trace"
)

// buildTestTrace writes a small handcrafted trace.
func buildTestTrace(t *testing.T) *Trace {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(trace.Topology{
		Name: "test", NumNodes: 2,
		NodeOfCPU: []int32{0, 0, 1, 1},
		Distance:  []int32{0, 1, 1, 0},
	}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Addr: 0x1000, Name: "work"}))
	must(w.WriteTaskType(trace.TaskType{ID: 2, Addr: 0x2000, Name: "init"}))
	must(w.WriteTask(trace.Task{ID: 10, Type: 1, Created: 5, CreatorCPU: 0}))
	must(w.WriteTask(trace.Task{ID: 11, Type: 2, Created: 6, CreatorCPU: 0}))
	must(w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x10000, Size: 0x1000, Node: 1}))
	must(w.WriteRegion(trace.MemRegion{ID: 2, Addr: 0x20000, Size: 0x1000, Node: 0}))
	must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateIdle, Start: 0, End: 100}))
	must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Start: 100, End: 300, Task: 10}))
	must(w.WriteState(trace.StateEvent{CPU: 1, State: trace.StateTaskExec, Start: 50, End: 400, Task: 11}))
	must(w.WriteComm(trace.CommEvent{Kind: trace.CommRead, CPU: 0, SrcCPU: -1, Time: 100, Task: 10, Addr: 0x10080, Size: 64}))
	must(w.WriteComm(trace.CommEvent{Kind: trace.CommWrite, CPU: 0, SrcCPU: -1, Time: 300, Task: 10, Addr: 0x20000, Size: 128}))
	must(w.WriteCounterDesc(trace.CounterDesc{ID: 1, Name: "ctr", Monotonic: true}))
	for i, v := range []int64{0, 10, 30, 60} {
		must(w.WriteSample(trace.CounterSample{CPU: 0, Counter: 1, Time: int64(i) * 100, Value: v}))
	}
	must(w.Flush())
	tr, err := FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLoadBasics(t *testing.T) {
	tr := buildTestTrace(t)
	if tr.NumCPUs() < 2 {
		t.Fatalf("NumCPUs = %d, want >= 2", tr.NumCPUs())
	}
	if tr.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", tr.NumNodes())
	}
	if len(tr.Types) != 2 {
		t.Errorf("types = %d, want 2", len(tr.Types))
	}
	if tr.TypeName(1) != "work" || tr.TypeName(2) != "init" {
		t.Error("type names wrong")
	}
	if tr.TypeName(99) != "type_99" {
		t.Errorf("missing type name = %q", tr.TypeName(99))
	}
	if len(tr.Tasks) != 2 {
		t.Fatalf("tasks = %d, want 2", len(tr.Tasks))
	}
	if tr.Span.Start != 0 || tr.Span.End != 400 {
		t.Errorf("span = %+v, want [0,400)", tr.Span)
	}
}

func TestTaskPlacementDerived(t *testing.T) {
	tr := buildTestTrace(t)
	task, ok := tr.TaskByID(10)
	if !ok {
		t.Fatal("task 10 missing")
	}
	if task.ExecCPU != 0 || task.ExecStart != 100 || task.ExecEnd != 300 {
		t.Errorf("task 10 placement = %+v", task)
	}
	if task.Duration() != 200 {
		t.Errorf("duration = %d, want 200", task.Duration())
	}
	if _, ok := tr.TaskByID(999); ok {
		t.Error("task 999 should not exist")
	}
}

// TestTaskByIDDirectSlot: TaskByID resolves exactly the IDs a table
// holds, each to its entry, whether the slot at id − Tasks[0].ID answers
// or the ID map does: dense IDs in table order (the slot answers every
// one, and no map is built), the same shuffled, IDs with gaps, IDs from
// MaxUint64−3 on (the subtraction wraps onto the low IDs after them),
// and a live snapshot with a synthesized task past its declared ones.
func TestTaskByIDDirectSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	table := func(ids []trace.TaskID) *Trace {
		tr := &Trace{Tasks: make([]TaskInfo, len(ids))}
		for i, id := range ids {
			tr.Tasks[i] = TaskInfo{ID: id, ExecCPU: -1}
		}
		return tr
	}
	dense := make([]trace.TaskID, 500)
	for i := range dense {
		dense[i] = trace.TaskID(i + 1)
	}
	shuffled := slices.Clone(dense)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var gaps []trace.TaskID
	for id := trace.TaskID(7); len(gaps) < 300; id += trace.TaskID(1 + rng.Intn(3)) {
		gaps = append(gaps, id)
	}
	top := []trace.TaskID{math.MaxUint64 - 3, math.MaxUint64 - 2, math.MaxUint64 - 1, math.MaxUint64, 1, 2, 3}

	lv := NewLive()
	b := &trace.RecordBatch{}
	for i := 0; i < 40; i++ {
		id := trace.TaskID(i + 1)
		b.Tasks = append(b.Tasks, trace.Task{ID: id, Type: 1})
		b.States = append(b.States, trace.StateEvent{CPU: int32(i % 2), State: trace.StateTaskExec, Start: int64(10 * i), End: int64(10*i + 5), Task: id})
	}
	// An execution without a task record: the snapshot synthesizes it.
	b.States = append(b.States, trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Start: 1000, End: 1010, Task: 900})
	if err := lv.Append(b); err != nil {
		t.Fatal(err)
	}
	snap, _ := lv.Publish()
	if len(snap.Tasks) != 41 {
		t.Fatalf("the snapshot holds %d tasks, want 41", len(snap.Tasks))
	}

	for _, c := range []struct {
		name string
		tr   *Trace
		slot bool // the slot answers every ID the table holds
	}{
		{"dense", table(dense), true},
		{"shuffled", table(shuffled), false},
		{"gaps", table(gaps), false},
		{"top", table(top), false},
		{"live", snap, false},
	} {
		want := make(map[trace.TaskID]int, len(c.tr.Tasks))
		for i := range c.tr.Tasks {
			want[c.tr.Tasks[i].ID] = i
		}
		ask := func(id trace.TaskID) {
			t.Helper()
			i, ok := want[id]
			got, gotOK := c.tr.TaskByID(id)
			if gotOK != ok || (ok && got != &c.tr.Tasks[i]) {
				t.Fatalf("%s: TaskByID(%d) = (%p, %v), want entry %d (%v)", c.name, id, got, gotOK, i, ok)
			}
		}
		for i := range c.tr.Tasks {
			ask(c.tr.Tasks[i].ID)
		}
		if c.slot && len(c.tr.taskOff) != 0 {
			t.Errorf("%s: the slot answers every ID, yet the ID map holds %d entries", c.name, len(c.tr.taskOff))
		}
		for id := range want {
			ask(id + 1)
			ask(id - 1)
		}
		for _, id := range []trace.TaskID{0, 1, 2, 1 << 40, math.MaxUint64, math.MaxUint64 - 4} {
			ask(id)
		}
	}
}

func TestStatesIn(t *testing.T) {
	tr := buildTestTrace(t)
	all := tr.StatesIn(0, 0, 400)
	if len(all) != 2 {
		t.Fatalf("all states = %d, want 2", len(all))
	}
	// Interval touching only the exec state.
	ex := tr.StatesIn(0, 150, 200)
	if len(ex) != 1 || ex[0].State != trace.StateTaskExec {
		t.Errorf("mid interval = %+v", ex)
	}
	// Interval boundary semantics: [0,100) only overlaps idle.
	idle := tr.StatesIn(0, 0, 100)
	if len(idle) != 1 || idle[0].State != trace.StateIdle {
		t.Errorf("prefix interval = %+v", idle)
	}
	if got := tr.StatesIn(0, 400, 500); len(got) != 0 {
		t.Errorf("after end = %+v", got)
	}
	if got := tr.StatesIn(99, 0, 400); got != nil {
		t.Errorf("unknown CPU = %+v", got)
	}
}

func TestRegionLookup(t *testing.T) {
	tr := buildTestTrace(t)
	r, ok := tr.RegionAt(0x10080)
	if !ok || r.Node != 1 {
		t.Errorf("RegionAt(0x10080) = %+v, %v", r, ok)
	}
	if node := tr.NodeOfAddr(0x20000); node != 0 {
		t.Errorf("NodeOfAddr(0x20000) = %d, want 0", node)
	}
	if node := tr.NodeOfAddr(0x999999); node != -1 {
		t.Errorf("NodeOfAddr(unknown) = %d, want -1", node)
	}
	if _, ok := tr.RegionAt(0x100); ok {
		t.Error("address before all regions must miss")
	}
	if _, ok := tr.RegionAt(0x11000); ok {
		t.Error("address in gap must miss")
	}
}

func TestCounterQueries(t *testing.T) {
	tr := buildTestTrace(t)
	c, ok := tr.CounterByName("ctr")
	if !ok {
		t.Fatal("counter missing")
	}
	if v, ok := c.ValueAt(0, 150); !ok || v != 10 {
		t.Errorf("ValueAt(150) = %d,%v want 10", v, ok)
	}
	if v, ok := c.ValueAt(0, 0); !ok || v != 0 {
		t.Errorf("ValueAt(0) = %d,%v want 0", v, ok)
	}
	if _, ok := c.ValueAt(0, -5); ok {
		t.Error("ValueAt before first sample must miss")
	}
	if s := c.SamplesIn(0, 100, 300); len(s) != 2 {
		t.Errorf("SamplesIn = %d samples, want 2", len(s))
	}
	if _, ok := tr.CounterByName("nope"); ok {
		t.Error("unknown counter found")
	}
	if _, ok := tr.CounterByID(1); !ok {
		t.Error("CounterByID(1) missing")
	}
}

// taskEvents returns the task's own events among its TaskAccesses.
func taskEvents(tr *Trace, t *TaskInfo) []Comm {
	var out []Comm
	for _, ev := range tr.TaskAccesses(t).Events {
		if ev.Task == t.ID {
			out = append(out, ev)
		}
	}
	return out
}

func TestTaskComm(t *testing.T) {
	tr := buildTestTrace(t)
	task, _ := tr.TaskByID(10)
	comm := taskEvents(tr, task)
	if len(comm) != 2 {
		t.Fatalf("task comm = %d events, want 2", len(comm))
	}
	if comm[0].Kind != trace.CommRead || comm[1].Kind != trace.CommWrite {
		t.Errorf("comm kinds = %v, %v", comm[0].Kind, comm[1].Kind)
	}
	other, _ := tr.TaskByID(11)
	if got := taskEvents(tr, other); len(got) != 0 {
		t.Errorf("task 11 comm = %d events, want 0", len(got))
	}
}

func TestNoTopologySynthesized(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := w.WriteState(trace.StateEvent{CPU: 5, State: trace.StateTaskExec, Start: 0, End: 10, Task: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumCPUs() != 1 || tr.CPUs[0].ID != 5 || tr.RowOf(5) != 0 {
		t.Errorf("NumCPUs = %d, want the one row of CPU 5", tr.NumCPUs())
	}
	if tr.NumNodes() != 1 {
		t.Errorf("NumNodes = %d, want 1", tr.NumNodes())
	}
	// Task synthesized from the exec state despite no task record.
	task, ok := tr.TaskByID(1)
	if !ok || task.ExecCPU != 5 {
		t.Errorf("synthesized task = %+v, %v", task, ok)
	}
}

func TestDistance(t *testing.T) {
	tr := buildTestTrace(t)
	if d := tr.Distance(0, 1); d != 1 {
		t.Errorf("Distance(0,1) = %d, want 1", d)
	}
	if d := tr.Distance(0, 0); d != 0 {
		t.Errorf("Distance(0,0) = %d, want 0", d)
	}
	if d := tr.Distance(-1, 5); d != 0 {
		t.Errorf("Distance out of range = %d, want 0", d)
	}
}

// End-to-end: simulate a real workload, load its trace, verify the
// totals line up with the simulation result.
func TestLoadSimulatedTrace(t *testing.T) {
	p, err := apps.BuildSeidel(apps.ScaledSeidelConfig(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	cfg := openstream.DefaultConfig(topology.Small(2, 4))
	res, err := openstream.Run(p, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumCPUs() != 8 {
		t.Errorf("NumCPUs = %d, want 8", tr.NumCPUs())
	}
	if len(tr.Tasks) != p.NumTasks() {
		t.Errorf("tasks = %d, want %d", len(tr.Tasks), p.NumTasks())
	}
	if tr.Span.End != res.Makespan {
		t.Errorf("span end = %d, makespan = %d", tr.Span.End, res.Makespan)
	}
	// Every task must have derived placement.
	for i := range tr.Tasks {
		if tr.Tasks[i].ExecCPU < 0 {
			t.Fatalf("task %d has no placement", tr.Tasks[i].ID)
		}
	}
	// Exec time accounted in states must match the simulator's.
	var execTotal int64
	for cpu := 0; cpu < tr.NumCPUs(); cpu++ {
		for _, s := range tr.StatesIn(int32(cpu), tr.Span.Start, tr.Span.End) {
			if s.State == trace.StateTaskExec {
				execTotal += s.Duration()
			}
		}
	}
	if execTotal != res.StateCycles[trace.StateTaskExec] {
		t.Errorf("exec cycles from trace %d != simulator %d", execTotal, res.StateCycles[trace.StateTaskExec])
	}
}

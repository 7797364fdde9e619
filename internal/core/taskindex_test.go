package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/openstream/aftermath/internal/trace"
)

// refTasks is the map-based task applier the task index is held to: the
// first record for an ID creates its entry and later ones update its
// metadata; executions are placed in CPU and event order, the last one
// winning, and a task no record declared is synthesized at its first
// execution — all over a map from every ID to its position.
type refTasks struct {
	tasks []TaskInfo
	byID  map[trace.TaskID]int
}

func (r *refTasks) apply(t trace.Task) {
	if i, ok := r.byID[t.ID]; ok {
		ti := &r.tasks[i]
		ti.Type, ti.Created, ti.CreatorCPU = t.Type, t.Created, t.CreatorCPU
		return
	}
	if r.byID == nil {
		r.byID = make(map[trace.TaskID]int)
	}
	r.byID[t.ID] = len(r.tasks)
	r.tasks = append(r.tasks, TaskInfo{ID: t.ID, Type: t.Type, Created: t.Created, CreatorCPU: t.CreatorCPU, ExecCPU: -1})
}

// placed returns the table with perCPU's executions applied, r left as
// it is.
func (r *refTasks) placed(perCPU []cpuExecs) []TaskInfo {
	tasks, byID := slices.Clone(r.tasks), maps.Clone(r.byID)
	if byID == nil {
		byID = make(map[trace.TaskID]int)
	}
	for _, c := range perCPU {
		for _, e := range c.spans {
			i, ok := byID[e.task]
			if !ok {
				i = len(tasks)
				byID[e.task] = i
				tasks = append(tasks, TaskInfo{ID: e.task, ExecCPU: -1})
			}
			tasks[i].ExecCPU, tasks[i].ExecStart, tasks[i].ExecEnd = c.cpu, e.start, e.end
		}
	}
	return tasks
}

// taskOp is one record of a task-id pattern: a task record declaring id
// with type typ, or an execution of id on cpu.
type taskOp struct {
	exec bool
	cpu  int32
	id   trace.TaskID
	typ  trace.TypeID
}

func declare(id trace.TaskID, typ trace.TypeID) taskOp { return taskOp{id: id, typ: typ} }
func run(cpu int32, id trace.TaskID) taskOp            { return taskOp{exec: true, cpu: cpu, id: id} }

// taskPatternCPUs is how many CPUs a pattern's executions cycle over.
const taskPatternCPUs = 3

// taskStream writes ops as a native trace, one record each, every CPU's
// executions one after another in stream order.
func taskStream(t *testing.T, ops []taskOp) recordStream {
	b := newStreamBuilder(t)
	var clock [taskPatternCPUs]trace.Time
	for _, op := range ops {
		if !op.exec {
			b.add(b.w.WriteTask(trace.Task{ID: op.id, Type: op.typ, Created: trace.Time(op.typ), CreatorCPU: int32(op.typ % 2)}))
			continue
		}
		t0 := clock[op.cpu]
		clock[op.cpu] += 10
		b.add(b.w.WriteState(trace.StateEvent{CPU: op.cpu, State: trace.StateTaskExec, Start: t0, End: t0 + 7, Task: op.id}))
	}
	return b.stream()
}

// refOf is the task table refTasks builds from the first n ops.
func refOf(ops []taskOp, n int) []TaskInfo {
	var r refTasks
	var perCPU [taskPatternCPUs]cpuExecs
	var clock [taskPatternCPUs]trace.Time
	for c := range perCPU {
		perCPU[c].cpu = int32(c)
	}
	for _, op := range ops[:n] {
		if op.exec {
			t0 := clock[op.cpu]
			clock[op.cpu] += 10
			if op.id != trace.NoTask { // a state of no task is no execution
				perCPU[op.cpu].spans = append(perCPU[op.cpu].spans, execSpan{op.id, t0, t0 + 7})
			}
		} else {
			r.apply(trace.Task{ID: op.id, Type: op.typ, Created: trace.Time(op.typ), CreatorCPU: int32(op.typ % 2)})
		}
	}
	var rows []cpuExecs // the CPUs the trace holds, in id order
	for _, c := range perCPU {
		if len(c.spans) > 0 {
			rows = append(rows, c)
		}
	}
	return r.placed(rows)
}

// checkTaskTable holds tr's task table to want and TaskByID to it: every
// ID present resolves to its entry, every ID next to one and a handful
// far off resolve only when present. A table whose IDs all sit on their
// slot must answer without a map entry.
func checkTaskTable(t *testing.T, ctx string, tr *Trace, want []TaskInfo) {
	t.Helper()
	if len(tr.Tasks) != len(want) || (len(want) > 0 && !reflect.DeepEqual(tr.Tasks, want)) {
		t.Fatalf("%s: tasks\n got %+v\nwant %+v", ctx, tr.Tasks, want)
	}
	at := make(map[trace.TaskID]int, len(want))
	for i := range want {
		at[want[i].ID] = i
	}
	ask := func(id trace.TaskID) {
		t.Helper()
		i, ok := at[id]
		got, gotOK := tr.TaskByID(id)
		if gotOK != ok || (ok && got != &tr.Tasks[i]) {
			t.Fatalf("%s: TaskByID(%d) = (%p, %v), want entry %d (%v)", ctx, id, got, gotOK, i, ok)
		}
	}
	for id := range at {
		ask(id)
		ask(id + 1)
		ask(id - 1)
	}
	for _, id := range []trace.TaskID{0, 1, 1 << 40, math.MaxUint64, math.MaxUint64 - 1} {
		ask(id)
	}
	dense := true
	for i := range want {
		dense = dense && want[i].ID == want[0].ID+trace.TaskID(i)
	}
	if dense && len(tr.taskOff) != 0 {
		t.Fatalf("%s: every task sits on its slot, yet the ID map holds %d entries", ctx, len(tr.taskOff))
	}
}

// checkTaskIDs runs ops through every way to a Trace — a batch load on
// one and on three workers, a live feed published a record at a time and
// one fed 4 KB at a time, and a store reopened from the batch load — and
// holds each task table to the map-based reference.
func checkTaskIDs(t *testing.T, ops []taskOp) {
	t.Helper()
	rs := taskStream(t, ops)
	want := refOf(ops, len(ops))
	for _, workers := range []int{1, 3} {
		tr, err := fromReader(&limitedByteReader{data: rs.data, limit: len(rs.data)}, workers)
		if err != nil {
			t.Fatal(err)
		}
		checkTaskTable(t, fmt.Sprintf("batch load on %d workers", workers), tr, want)
		if workers > 1 {
			continue
		}
		path := filepath.Join(t.TempDir(), "tasks.atms")
		if err := SaveStore(tr, path); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		checkTaskTable(t, "store", st, want)
		st.Close()
	}

	records := 0
	publishEach(t, rs, func() int { return 1 }, func(snap *Trace, prefix int) {
		records++
		checkTaskTable(t, fmt.Sprintf("live snapshot after %d records", records), snap, refOf(ops, records))
	})

	g := &limitedByteReader{data: rs.data}
	sr := trace.NewStreamReader(g)
	lv := NewLive()
	for g.limit < len(rs.data) {
		g.limit = min(g.limit+4096, len(rs.data))
		if _, err := lv.Feed(sr); err != nil {
			t.Fatal(err)
		}
		snap, _ := lv.Snapshot()
		n, _ := slices.BinarySearch(rs.ends, int(sr.Consumed()))
		if n < len(rs.ends) && rs.ends[n] == int(sr.Consumed()) {
			n++
		}
		checkTaskTable(t, fmt.Sprintf("live snapshot of 4 KB chunks at byte %d", g.limit), snap, refOf(ops, n))
	}
}

// TestTaskIndexPatterns holds the one task index to the map reference on
// the ID patterns a trace can carry.
func TestTaskIndexPatterns(t *testing.T) {
	const n = 60
	seq := func(base trace.TaskID, ids ...int) []taskOp {
		var ops []taskOp
		for k, d := range ids {
			ops = append(ops, declare(base+trace.TaskID(d), trace.TypeID(1+k%3)), run(int32(k%taskPatternCPUs), base+trace.TaskID(d)))
		}
		return ops
	}
	upto := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	var gap, down []int
	for i := range n + 1 {
		if i != n/2 {
			gap = append(gap, i)
		}
		down = append(down, n-i)
	}
	repeated := seq(0, upto(n)...)
	for id := trace.TaskID(0); id < n; id += 3 {
		repeated = append(repeated, declare(id, 9), run(1, id))
	}
	continuing := seq(0, upto(n/2)...)
	for id := trace.TaskID(n / 2); id < n; id++ {
		continuing = append(continuing, run(int32(id%taskPatternCPUs), id))
	}
	breaking := seq(0, upto(n)...)
	for _, id := range []trace.TaskID{1000, 7, 999, 1 << 40, 5000} {
		breaking = append(breaking, run(2, id), run(0, id))
	}
	below := seq(100, upto(n)...)
	below = append(below, seq(0, 99, 98, 50, 0, 1)...)
	below = append(below, run(1, 97), declare(3, 4))
	top := seq(math.MaxUint64-5, upto(9)...) // MaxUint64−5 … MaxUint64, then 0, 1, 2
	top = append(top, seq(0, 17, 4, 3)...)
	top = append(top, run(0, math.MaxUint64-6), run(2, math.MaxUint64))

	for _, c := range []struct {
		name string
		ops  []taskOp
	}{
		{"dense from 0", seq(0, upto(n)...)},
		{"dense from 2^40", seq(1<<40, upto(n)...)},
		{"dense with one gap", seq(5, gap...)},
		{"descending", seq(0, down...)},
		{"repeated records", repeated},
		{"orphans continue the sequence", continuing},
		{"orphans break it", breaking},
		{"below the first ID", below},
		{"near MaxUint64", top},
	} {
		t.Run(c.name, func(t *testing.T) { checkTaskIDs(t, c.ops) })
	}
}

// taskOps reads a fuzz input as a task-ID pattern: the first 8 bytes
// are a base ID, then each 3 bytes a record, whose ID is the base plus
// a signed 16-bit offset, so the IDs cluster, run dense, fall below the
// base and wrap around MaxUint64.
func taskOps(data []byte) []taskOp {
	var base trace.TaskID
	if len(data) >= 8 {
		base, data = trace.TaskID(binary.LittleEndian.Uint64(data)), data[8:]
	}
	var ops []taskOp
	for ; len(data) >= 3 && len(ops) < 300; data = data[3:] {
		op, off := data[0], int16(binary.LittleEndian.Uint16(data[1:]))
		id := base + trace.TaskID(int64(off))
		if op&1 == 0 {
			ops = append(ops, declare(id, trace.TypeID(op>>3)))
		} else {
			ops = append(ops, run(int32(op>>1)%taskPatternCPUs, id))
		}
	}
	return ops
}

// FuzzTaskIDs: any sequence of task records and executions loads, feeds
// and reopens to the task table the map reference builds, and TaskByID
// answers every ID as the reference does.
func FuzzTaskIDs(f *testing.F) {
	seed := func(base uint64, recs ...[3]byte) []byte {
		out := binary.LittleEndian.AppendUint64(nil, base)
		for _, r := range recs {
			out = append(out, r[:]...)
		}
		return out
	}
	f.Add(seed(0, [3]byte{0, 0, 0}, [3]byte{1, 0, 0}, [3]byte{8, 1, 0}, [3]byte{3, 1, 0}, [3]byte{0, 2, 0}))
	f.Add(seed(1<<40, [3]byte{0, 0, 0}, [3]byte{0, 1, 0}, [3]byte{0, 3, 0}, [3]byte{5, 2, 0}))
	f.Add(seed(100, [3]byte{0, 0, 0}, [3]byte{0, 1, 0}, [3]byte{0, 0xff, 0xff}, [3]byte{1, 0xfe, 0xff}))
	f.Add(seed(math.MaxUint64-1, [3]byte{0, 0, 0}, [3]byte{0, 1, 0}, [3]byte{0, 2, 0}, [3]byte{1, 3, 0}, [3]byte{16, 1, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if ops := taskOps(data); len(ops) > 0 {
			checkTaskIDs(t, ops)
		}
	})
}

// Package core provides Aftermath's in-memory trace representation:
// per-CPU event arrays sorted by timestamp, task/type/region/counter
// tables, and binary-search interval queries.
//
// The representation follows Section VI-B-c of the paper: each CPU
// keeps one array per event family sorted by timestamp, so the slice
// of events relevant to any time interval is found with a binary
// search. Every such array, and every (counter, CPU) sample array, is
// one Column value on every path — batch load, OpenStore, live
// snapshot: its Rows, after the spilled parts of a live trace that
// has spilled (spill.go). A column's records omit the keys their
// position gives: a communication event (Comm) is stored without its
// CPU and a sample (Sample) without its counter and CPU. A reader that
// needs the CPU's id takes it from the row, CPUs[row].ID; the
// trace package's records stay the wire and stream format, and the
// loaders drop the keys as they copy each record into its column.
// Information not explicitly present in the trace (task execution
// placement, the location of memory accesses) is derived once at load
// time or on demand.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/openstream/aftermath/internal/mmtree"
	"github.com/openstream/aftermath/internal/mragg"
	"github.com/openstream/aftermath/internal/store"
	"github.com/openstream/aftermath/internal/trace"
)

// Interval is a half-open time interval [Start, End).
type Interval struct {
	Start trace.Time
	End   trace.Time
}

// Duration returns End - Start.
func (iv Interval) Duration() trace.Time { return iv.End - iv.Start }

// Contains reports whether t lies in the interval.
func (iv Interval) Contains(t trace.Time) bool { return t >= iv.Start && t < iv.End }

// Overlaps reports whether the interval overlaps [s, e).
func (iv Interval) Overlaps(s, e trace.Time) bool { return iv.Start < e && s < iv.End }

// TaskInfo describes a task instance with its execution placement,
// derived from task-execution state events at load time.
type TaskInfo struct {
	ID         trace.TaskID
	Type       trace.TypeID
	Created    trace.Time
	CreatorCPU int32
	// ExecCPU is the CPU that executed the task, or -1 if the trace
	// contains no execution interval for it.
	ExecCPU   int32
	ExecStart trace.Time
	ExecEnd   trace.Time
}

// Duration returns the task's execution duration, or 0 if it never
// executed.
func (t *TaskInfo) Duration() trace.Time {
	if t.ExecCPU < 0 {
		return 0
	}
	return t.ExecEnd - t.ExecStart
}

// CPUData holds one CPU's event columns, each sorted by timestamp.
type CPUData struct {
	// ID is the CPU's id in the trace's records: its label. Every
	// accessor of Trace and Counter takes the CPU's row, its index in
	// Trace.CPUs; Trace.RowOf converts. A communication event or a
	// sample in a row's column carries no CPU: it is this ID.
	ID       int32
	States   Column[trace.StateEvent]
	Discrete Column[trace.DiscreteEvent]
	Comm     Column[Comm]
}

// Comm is a communication event as its row's column holds it: a
// trace.CommEvent without the CPU, which is the row's ID. It packs to
// 40 bytes where the record is 48. SrcCPU stays an id.
type Comm struct {
	Kind trace.CommKind
	// SrcCPU is the id of the source worker for steal/push events, -1
	// otherwise.
	SrcCPU int32
	Time   trace.Time
	// Task is the task performing the access, or the transferred task.
	Task trace.TaskID
	// Addr is the starting address of the access (reads/writes).
	Addr uint64
	// Size is the number of bytes accessed or transferred.
	Size uint64
}

// toComm returns a communication record as its row's column holds it.
func toComm(ev *trace.CommEvent) Comm {
	return Comm{Kind: ev.Kind, SrcCPU: ev.SrcCPU, Time: ev.Time, Task: ev.Task, Addr: ev.Addr, Size: ev.Size}
}

// Sample is a counter sample as its (counter, row) column holds it: a
// trace.CounterSample without the counter and the CPU, which are the
// column's. 16 bytes where the record is 24.
type Sample = mmtree.Sample

// toSample returns a sample record as its column holds it.
func toSample(s *trace.CounterSample) Sample { return Sample{Time: s.Time, Value: s.Value} }

// Counter holds one performance counter's description and its sample
// column on each CPU, sorted by time: one per row of the trace.
type Counter struct {
	Desc   trace.CounterDesc
	PerCPU []Column[Sample]

	// trees holds the min/max trees over each row's column (cindex.go),
	// made with PerCPU by size, or under treesOnce at the first lookup
	// of a counter no loader sized.
	treesOnce sync.Once
	trees     []counterTrees
}

// size gives the counter an empty sample column and tree entry per row.
func (c *Counter) size(rows int) {
	c.PerCPU = sized[Column[Sample]](rows)
	c.trees = make([]counterTrees, rows)
}

// Trace is a fully loaded, indexed trace.
type Trace struct {
	// Topology is the machine topology; if the trace had no topology
	// record, a flat single-node topology is synthesized.
	Topology trace.Topology
	// CPUs holds per-CPU event arrays, indexed by row: one row for each
	// CPU a topology record declares and each CPU id a record names, in
	// ascending id order. A trace whose ids are 0…n−1 has row == id.
	CPUs []CPUData
	// Types lists the task types, ordered by ID.
	Types []trace.TaskType
	// Tasks lists all tasks ordered by ID.
	Tasks []TaskInfo
	// Counters lists the counters present in the trace.
	Counters []*Counter
	// Regions lists memory regions sorted by address.
	Regions []trace.MemRegion
	// Span is the traced time interval.
	Span Interval

	typeByID      map[trace.TypeID]int
	counterByID   map[trace.CounterID]int
	counterByName map[string]int

	// taskOff maps the id of each task off its slot to its position in
	// Tasks (taskTable): nil for a native trace's dense table. The batch
	// loader hands over the one it built; any other trace builds it under
	// taskIDOnce at the first lookup the slot misses, so OpenStore stays
	// O(touched pages) instead of O(tasks) and a live publish copies no
	// map.
	taskOff    map[trace.TaskID]int
	taskIDOnce sync.Once

	// spill is the segment status of a snapshot of a live trace that
	// has spilled (spill.go); nil otherwise.
	spill *SpillStats

	// backing is the mapped store file of an OpenStore trace (the
	// event arrays above are views into it); Close releases it.
	backing *store.Mapped

	domOnce sync.Once
	dom     *DomIndex

	taskWinOnce sync.Once
	taskWin     *taskWindows

	// home is the home-node column and sums the NUMA readers use
	// (home.go); nil on a snapshot of a live trace, whose region table
	// is not final.
	home *homeIndex
	// searched counts the accesses resolved through the region table:
	// by the home-node column's build, and by every reader of a trace
	// without one. Each adds its count once per call.
	searched atomic.Int64
}

// NumCPUs returns the number of CPUs.
func (tr *Trace) NumCPUs() int { return len(tr.CPUs) }

// NumNodes returns the number of NUMA nodes.
func (tr *Trace) NumNodes() int { return int(tr.Topology.NumNodes) }

// RowOf returns the row of the CPU with the given id, -1 for an id
// the trace holds no CPU for. Rows are in id order, so on a trace whose
// ids are 0…n−1 the row is the id, which is looked at first; any other
// id is searched for.
func (tr *Trace) RowOf(id int32) int32 {
	if uint(id) < uint(len(tr.CPUs)) && tr.CPUs[id].ID == id {
		return id
	}
	return tr.searchRow(id)
}

// searchRow is RowOf's search, apart so that RowOf inlines.
func (tr *Trace) searchRow(id int32) int32 {
	r := sort.Search(len(tr.CPUs), func(i int) bool { return tr.CPUs[i].ID >= id })
	if r == len(tr.CPUs) || tr.CPUs[r].ID != id {
		return -1
	}
	return int32(r)
}

// noCPU is the row of an id the trace holds no CPU for: no events.
var noCPU CPUData

// row returns the CPU at a row, noCPU outside the table.
func (tr *Trace) row(r int32) *CPUData {
	if r < 0 || int(r) >= len(tr.CPUs) {
		return &noCPU
	}
	return &tr.CPUs[r]
}

// NodeOfCPU returns the NUMA node of a CPU: -1 for a negative CPU —
// a task's ExecCPU before it has run —, 0 past the topology's last.
// cpu may be a row or an id, with one answer: the topology's CPUs are
// rows 0…n−1, each its own id, and every CPU past them is on node 0.
func (tr *Trace) NodeOfCPU(cpu int32) int32 {
	if cpu < 0 {
		return -1
	}
	if int(cpu) < len(tr.Topology.NodeOfCPU) {
		return tr.Topology.NodeOfCPU[cpu]
	}
	return 0
}

// Distance returns the hop distance between two NUMA nodes.
func (tr *Trace) Distance(a, b int32) int32 {
	n := tr.Topology.NumNodes
	if a < 0 || b < 0 || a >= n || b >= n {
		return 0
	}
	return tr.Topology.Distance[a*n+b]
}

// TypeByID returns the task type with the given ID.
func (tr *Trace) TypeByID(id trace.TypeID) (trace.TaskType, bool) {
	i, ok := tr.typeByID[id]
	if !ok {
		return trace.TaskType{}, false
	}
	return tr.Types[i], true
}

// TypeName returns the name of a task type, or a placeholder derived
// from the ID when the trace lacks the type record or a name.
func (tr *Trace) TypeName(id trace.TypeID) string {
	if t, ok := tr.TypeByID(id); ok && t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("type_%d", id)
}

// TaskByID returns the task with the given ID.
func (tr *Trace) TaskByID(id trace.TaskID) (*TaskInfo, bool) {
	i, ok := tr.taskIndex(id)
	if !ok {
		return nil, false
	}
	return &tr.Tasks[i], true
}

// taskIndex returns the position in Tasks of the task with the given ID,
// by taskTable's rule over Tasks and taskOff.
func (tr *Trace) taskIndex(id trace.TaskID) (int, bool) {
	if i, ok := (&taskTable{tasks: tr.Tasks}).find(id); ok {
		return i, true
	}
	tr.taskIDOnce.Do(func() {
		if tr.taskOff == nil {
			tr.taskOff = offSlot(tr.Tasks)
		}
	})
	i, ok := tr.taskOff[id]
	return i, ok
}

// taskTable is a task table in first-touch order and the index that
// finds a task in it by ID. A table whose IDs were handed out densely in
// table order — every native trace's — holds task id at id − tasks[0].ID,
// its slot, so a task whose ID lands on its slot is found there and only
// the tasks off their slot are kept in off: none for a native trace, all
// of them for a span import's random IDs. IDs in a table are unique, so
// a slot that holds the ID asked is that task's, whatever the table.
// Every applier builds its task table through this type: the batch
// loader, the live builder and a snapshot's synthesis of orphaned tasks.
type taskTable struct {
	tasks []TaskInfo
	off   map[trace.TaskID]int
}

// slot returns where the table's dense layout puts id: id − tasks[0].ID,
// wrapping below tasks[0].ID onto positions no table reaches.
func slot(tasks []TaskInfo, id trace.TaskID) uint64 { return uint64(id - tasks[0].ID) }

// find returns the position of the task with the given ID.
func (tt *taskTable) find(id trace.TaskID) (int, bool) {
	if len(tt.tasks) > 0 {
		if i := slot(tt.tasks, id); i < uint64(len(tt.tasks)) && tt.tasks[i].ID == id {
			return int(i), true
		}
	}
	i, ok := tt.off[id]
	return i, ok
}

// add appends a task the table does not hold and returns its position.
func (tt *taskTable) add(ti TaskInfo) int {
	n := len(tt.tasks)
	tt.tasks = append(tt.tasks, ti)
	if slot(tt.tasks, ti.ID) != uint64(n) {
		if tt.off == nil {
			tt.off = make(map[trace.TaskID]int)
		}
		tt.off[ti.ID] = n
	}
	return n
}

// apply merges one task record into the table: the first record for an
// ID creates the entry, later ones update its metadata.
func (tt *taskTable) apply(t trace.Task) {
	if i, ok := tt.find(t.ID); ok {
		ti := &tt.tasks[i]
		ti.Type, ti.Created, ti.CreatorCPU = t.Type, t.Created, t.CreatorCPU
		return
	}
	tt.add(TaskInfo{ID: t.ID, Type: t.Type, Created: t.Created, CreatorCPU: t.CreatorCPU, ExecCPU: -1})
}

// applyExecs applies task execution placements in CPU and event order —
// the sequential last-writer-wins semantics of a batch load —
// synthesizing entries for tasks the trace carries no record for
// (Section VI-A tolerance). perCPU lists the CPUs in row order.
func (tt *taskTable) applyExecs(perCPU []cpuExecs) {
	for _, c := range perCPU {
		for _, e := range c.spans {
			i, ok := tt.find(e.task)
			if !ok {
				i = tt.add(TaskInfo{ID: e.task, ExecCPU: -1})
			}
			ti := &tt.tasks[i]
			ti.ExecCPU, ti.ExecStart, ti.ExecEnd = c.cpu, e.start, e.end
		}
	}
}

// offSlot returns the off map a taskTable holding tasks would have built:
// the positions of the tasks off their slot, nil for none. The map is
// made at its final size, counted first.
func offSlot(tasks []TaskInfo) map[trace.TaskID]int {
	n := 0
	for i := range tasks {
		if slot(tasks, tasks[i].ID) != uint64(i) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	off := make(map[trace.TaskID]int, n)
	for i := range tasks {
		if slot(tasks, tasks[i].ID) != uint64(i) {
			off[tasks[i].ID] = i
		}
	}
	return off
}

// CounterByID returns the counter with the given ID.
func (tr *Trace) CounterByID(id trace.CounterID) (*Counter, bool) {
	i, ok := tr.counterByID[id]
	if !ok {
		return nil, false
	}
	return tr.Counters[i], true
}

// CounterByName returns the first counter with the given name. For
// loaded traces this is a map lookup on the name index built at load
// time; hand-built traces without the index fall back to a scan.
func (tr *Trace) CounterByName(name string) (*Counter, bool) {
	if tr.counterByName != nil {
		i, ok := tr.counterByName[name]
		if !ok {
			return nil, false
		}
		return tr.Counters[i], true
	}
	for _, c := range tr.Counters {
		if c.Desc.Name == name {
			return c, true
		}
	}
	return nil, false
}

// RegionAt returns the memory region containing addr. This is the
// lookup the paper describes in Section VI-A: region placement is
// stored once, and accesses are localized by address.
func (tr *Trace) RegionAt(addr uint64) (trace.MemRegion, bool) {
	i := sort.Search(len(tr.Regions), func(i int) bool {
		return tr.Regions[i].Addr > addr
	})
	if i == 0 {
		return trace.MemRegion{}, false
	}
	r := tr.Regions[i-1]
	if r.Contains(addr) {
		return r, true
	}
	return trace.MemRegion{}, false
}

// NodeOfAddr returns the NUMA node holding addr, or -1 if unknown: addr
// lies in no region, or in one homed outside the topology's
// [0, NumNodes). It searches the region table. Every reader that places
// an access on its home — HomeBytes and through it /matrix, /stats and
// the NUMA detector's baseline, TaskHomes, the detector's per-task
// scores, the numa-heat mode, the read/write node filter and /task —
// reads this answer through Accesses: off the home-node column, where
// the trace keeps one, which holds it for every access (home.go), and
// from here where it does not. So none of them counts an access it
// cannot place.
func (tr *Trace) NodeOfAddr(addr uint64) int32 {
	if r, ok := tr.RegionAt(addr); ok && r.Node >= 0 && r.Node < tr.Topology.NumNodes {
		return r.Node
	}
	return -1
}

// StatesIn returns the state events on row cpu overlapping [t0, t1),
// found by binary search (state intervals per CPU are disjoint and
// sorted); nil for a row outside the trace. The result is a view into
// trace storage unless the window crosses a spill boundary of the
// column, in which case it is a fresh copy.
func (tr *Trace) StatesIn(cpu int32, t0, t1 trace.Time) []trace.StateEvent {
	return tr.row(cpu).States.win(stateWindow, t0, t1)
}

// DiscreteIn returns the discrete events on row cpu with time in [t0, t1),
// read like StatesIn; nil for an empty or inverted window.
func (tr *Trace) DiscreteIn(cpu int32, t0, t1 trace.Time) []trace.DiscreteEvent {
	return tr.row(cpu).Discrete.win(discreteWindow, t0, t1)
}

// CommIn returns the communication events on row cpu with time in [t0, t1),
// read like StatesIn; nil for an empty or inverted window. A window
// ending at MaxInt64 includes events at MaxInt64, so
// [Span.Start, SatAdd(Span.End, 1)) reads every event of the span.
func (tr *Trace) CommIn(cpu int32, t0, t1 trace.Time) []Comm {
	return tr.row(cpu).Comm.win(commWindow, t0, t1)
}

// stateLeaves returns a row's state column as the dominance index reads
// it.
func (tr *Trace) stateLeaves(cpu int32) mragg.Leaves {
	return mragg.Leaves{Leaves: tr.row(cpu).States.leaves()}
}

// EventCounts returns the trace's total event count (states, discrete,
// communication) and counter sample count.
func (tr *Trace) EventCounts() (events, samples int64) {
	for i := range tr.CPUs {
		c := &tr.CPUs[i]
		events += int64(c.States.len() + c.Discrete.len() + c.Comm.len())
	}
	for _, c := range tr.Counters {
		for cpu := range c.PerCPU {
			samples += int64(c.PerCPU[cpu].len())
		}
	}
	return events, samples
}

// column returns the counter's sample column on row cpu, empty outside
// the table.
func (c *Counter) column(cpu int32) Column[Sample] {
	if cpu >= 0 && int(cpu) < len(c.PerCPU) {
		return c.PerCPU[cpu]
	}
	return Column[Sample]{}
}

// Samples returns the sample array of a counter on a row: a view into
// trace storage, or a fresh concatenation for a column with spilled
// parts; windowed callers should prefer SamplesIn, which copies only
// across spill boundaries.
func (c *Counter) Samples(cpu int32) []Sample {
	return c.column(cpu).all()
}

// SamplesIn returns the samples of a counter on row cpu with time in
// [t0, t1), read like Trace.StatesIn; nil for an empty or inverted
// window.
func (c *Counter) SamplesIn(cpu int32, t0, t1 trace.Time) []Sample {
	return c.column(cpu).win(sampleWindow, t0, t1)
}

// ValueAt returns the counter's value on row cpu at time t: the value of
// the latest sample at or before t. ok is false if no sample precedes
// t. The column's runs are searched newest first.
func (c *Counter) ValueAt(cpu int32, t trace.Time) (int64, bool) {
	col := c.column(cpu)
	for k := col.runs() - 1; k >= 0; k-- {
		s := col.run(k)
		if i := sort.Search(len(s), func(i int) bool { return s[i].Time > t }); i > 0 {
			return s[i-1].Value, true
		}
	}
	return 0, false
}

// ValuesAt writes to vals[i] the counter's value on row cpu at ts[i],
// ValueAt's answer, for non-decreasing times ts, in one forward walk
// over the column's runs: each time is sought, galloping, from where
// the last one was found. It returns how many leading times come
// before the first sample; their vals are left as they were.
func (c *Counter) ValuesAt(cpu int32, ts []trace.Time, vals []int64) (from int) {
	col := c.column(cpu)
	k, j, from := 0, 0, len(ts) // samples [0, j) of run k are at or before t
	var v int64
	for i, t := range ts {
		for ; k < col.runs(); k, j = k+1, 0 {
			s := col.run(k)
			if n := upTo(s[j:], t); n > 0 {
				j, v, from = j+n, s[j+n-1].Value, min(from, i)
			}
			if j < len(s) {
				break
			}
		}
		if i >= from {
			vals[i] = v
		}
	}
	return from
}

// upTo returns how many leading samples of s are at or before t,
// galloping out from the first.
func upTo(s []Sample, t trace.Time) int {
	hi := 1
	for hi <= len(s) && s[hi-1].Time <= t {
		hi <<= 1
	}
	lo, end := hi>>1, min(hi-1, len(s))
	return lo + sort.Search(end-lo, func(i int) bool { return s[lo+i].Time > t })
}

// NumSamples returns the counter's sample count on a row.
func (c *Counter) NumSamples(cpu int32) int {
	return c.column(cpu).len()
}

// sampleLeaves returns a counter's sample column on a row as its
// min/max trees read it.
func (c *Counter) sampleLeaves(cpu int32) mmtree.Samples {
	return c.column(cpu).leaves()
}

// counterFor returns the counter registered for id, creating and
// registering it on first reference (samples may precede the counter
// description in the stream).
func (tr *Trace) counterFor(id trace.CounterID) *Counter {
	if i, ok := tr.counterByID[id]; ok {
		return tr.Counters[i]
	}
	c := &Counter{Desc: trace.CounterDesc{ID: id, Monotonic: true}}
	tr.counterByID[id] = len(tr.Counters)
	tr.Counters = append(tr.Counters, c)
	return c
}

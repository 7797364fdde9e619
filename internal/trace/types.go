// Package trace defines Aftermath's trace model and its binary on-disk
// format.
//
// A trace is a stream of records: worker state intervals, discrete
// events, hardware counter samples, communication events (memory reads
// and writes by tasks, steals, pushes), task and task type descriptions,
// memory region placement, and the machine topology (paper Section VI-A).
//
// Records may appear in any order in the stream as long as event
// timestamps remain ordered per CPU; events from different CPUs can be
// freely interleaved, which lets trace producers avoid a global sort at
// collection time. Producers may omit any record kind: a trace with only
// task execution states still supports duration analyses, one without
// memory accesses simply provides no locality information (the
// "incremental approach" of Section VI-A).
//
// The binary format is record-oriented and forward compatible: each
// record carries its payload length, so readers skip record kinds they
// do not know. Traces are optionally gzip-compressed (.gz suffix).
//
// One framer (framer.go) reads that format: it validates the header,
// cuts whole records out of its buffer and keeps the partial one at the
// end. Four drivers sit on it. Read hands each record to a Handler
// callback, skipping kinds without one undecoded. ReadBatched decodes
// everything into RecordBatch values, inline or, with more than one
// worker, on goroutines that are handed runs of whole records — the
// framer's buffer itself, never written again. StreamReader is
// ReadBatched's inline reader, polled: for the first three the data
// ends at io.EOF and must end on a record boundary; for a StreamReader
// the end of what is there so far ends only the Poll, and a partial
// record waits for the producer's next write.
package trace

import "fmt"

// Time is a point in time, measured in CPU cycles since the start of
// the traced execution.
type Time = int64

// WorkerState identifies the activity a worker thread is engaged in
// during a state interval (Section II-B, state mode).
type WorkerState uint8

const (
	// StateIdle marks a worker without a task, engaging in
	// work-stealing (rendered light blue in the paper).
	StateIdle WorkerState = iota
	// StateTaskExec marks execution of a task's work function
	// (rendered dark blue).
	StateTaskExec
	// StateTaskCreate marks creation of a child task: allocation of
	// the task's frame and dependence registration.
	StateTaskCreate
	// StateResolve marks dependence resolution work in the runtime
	// (matching producers with consumers, marking tasks ready).
	StateResolve
	// StateBroadcast marks broadcasts of data to multiple consumers.
	StateBroadcast
	// StateSync marks synchronization (barriers, taskwait).
	StateSync
	// StateInit marks runtime startup work on a worker.
	StateInit
	// StateShutdown marks runtime teardown work on a worker.
	StateShutdown

	// NumWorkerStates is the number of distinct worker states.
	NumWorkerStates = int(StateShutdown) + 1
)

var stateNames = [...]string{
	StateIdle:       "idle",
	StateTaskExec:   "task_exec",
	StateTaskCreate: "task_create",
	StateResolve:    "resolve",
	StateBroadcast:  "broadcast",
	StateSync:       "sync",
	StateInit:       "init",
	StateShutdown:   "shutdown",
}

// String returns the lower-case name of the state.
func (s WorkerState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// StateEvent records that a worker on a CPU was in a given state over
// [Start, End). Task-execution states carry the ID of the executed task.
type StateEvent struct {
	CPU   int32
	State WorkerState
	Start Time
	End   Time
	// Task is the ID of the task being executed for StateTaskExec
	// intervals, or NoTask.
	Task TaskID
}

// Duration returns End - Start.
func (e StateEvent) Duration() Time { return e.End - e.Start }

// TaskID identifies a task instance within a trace.
type TaskID uint64

// NoTask is the zero TaskID, meaning "no task".
const NoTask TaskID = 0

// TypeID identifies a task type (work function) within a trace.
type TypeID uint32

// RegionID identifies a memory region within a trace.
type RegionID uint64

// CounterID identifies a performance counter within a trace.
type CounterID uint32

// EventKind identifies the kind of a discrete event.
type EventKind uint8

const (
	// EventTaskCreated fires on the creating CPU when a task is
	// created; Arg is the created task's ID.
	EventTaskCreated EventKind = iota
	// EventTaskReady fires when a task's last input dependence is
	// resolved; Arg is the task's ID.
	EventTaskReady
	// EventStealAttempt fires on the stealing CPU when it probes a
	// victim; Arg is the victim CPU.
	EventStealAttempt
	// EventSteal fires on the stealing CPU when a steal succeeds;
	// Arg is the stolen task's ID.
	EventSteal
	// EventPush fires on a CPU when it pushes a ready task to
	// another worker's queue; Arg is the task's ID.
	EventPush
	// EventPageFault fires when a first-touch write triggers
	// physical allocation of a page; Arg is the page address.
	EventPageFault
)

var eventKindNames = [...]string{
	EventTaskCreated:  "task_created",
	EventTaskReady:    "task_ready",
	EventStealAttempt: "steal_attempt",
	EventSteal:        "steal",
	EventPush:         "push",
	EventPageFault:    "page_fault",
}

// String returns the lower-case name of the event kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// DiscreteEvent records a point event on a CPU.
type DiscreteEvent struct {
	CPU  int32
	Kind EventKind
	Time Time
	Arg  uint64
}

// TaskType describes a task type: the work function executed by tasks
// of this type. Addr is the work function's address in the traced
// binary, used for symbol resolution (Section VI-C); Name may be empty
// if only the address is known at collection time.
type TaskType struct {
	ID   TypeID
	Addr uint64
	Name string
}

// Task describes a task instance.
type Task struct {
	ID         TaskID
	Type       TypeID
	Created    Time
	CreatorCPU int32
}

// CounterDesc describes a performance counter present in the trace.
// Counter samples are cumulative (monotonically increasing) unless
// Monotonic is false.
type CounterDesc struct {
	ID        CounterID
	Name      string
	Monotonic bool
}

// CounterSample records the value of a counter on a CPU at a point in
// time.
type CounterSample struct {
	CPU     int32
	Counter CounterID
	Time    Time
	Value   int64
}

// CommKind identifies the kind of a communication event.
type CommKind uint8

const (
	// CommRead records a task reading Size bytes starting at Addr.
	CommRead CommKind = iota
	// CommWrite records a task writing Size bytes starting at Addr.
	CommWrite
	// CommSteal records a task being stolen from SrcCPU by CPU.
	CommSteal
	// CommPush records a task pushed from SrcCPU to CPU.
	CommPush

	// NumCommKinds is the number of communication event kinds.
	NumCommKinds = int(CommPush) + 1
)

var commKindNames = [...]string{
	CommRead:  "read",
	CommWrite: "write",
	CommSteal: "steal",
	CommPush:  "push",
}

// String returns the lower-case name of the communication kind.
func (k CommKind) String() string {
	if int(k) < len(commKindNames) {
		return commKindNames[k]
	}
	return "unknown"
}

// CommEvent records communication: a memory access performed by a task
// (CommRead, CommWrite) or a task transfer between workers (CommSteal,
// CommPush).
//
// For memory accesses, the NUMA node holding the data is deliberately
// not stored: it is derived at load time by looking up Addr in the
// memory region table, so region placement is stored once regardless of
// the number of accesses (Section VI-A).
type CommEvent struct {
	Kind CommKind
	// CPU is the CPU performing the access (reads/writes) or the
	// destination worker (steal/push).
	CPU int32
	// SrcCPU is the source worker for steal/push events, -1 otherwise.
	SrcCPU int32
	Time   Time
	// Task is the task performing the access, or the transferred task.
	Task TaskID
	// Addr is the starting address of the access (reads/writes).
	Addr uint64
	// Size is the number of bytes accessed or transferred.
	Size uint64
}

// MemRegion records the placement of a memory region: Size bytes at
// Addr, physically allocated on NUMA node Node. Node is -1 if the
// region has not been physically allocated (placement unknown).
type MemRegion struct {
	ID   RegionID
	Addr uint64
	Size uint64
	Node int32
}

// Contains reports whether the region contains the address.
func (r MemRegion) Contains(addr uint64) bool {
	return addr >= r.Addr && addr < r.Addr+r.Size
}

// Topology records the machine topology the trace was collected on.
type Topology struct {
	Name string
	// NodeOfCPU maps each CPU to its NUMA node; len(NodeOfCPU) is
	// the CPU count.
	NodeOfCPU []int32
	// Distance is the row-major NumNodes x NumNodes hop distance
	// matrix.
	Distance []int32
	// NumNodes is the NUMA node count.
	NumNodes int32
}

// Validate checks what consumers index by: a node count that is not
// negative, every CPU on a node in [0, NumNodes) and a NumNodes x
// NumNodes distance matrix. Topologies are validated wherever they
// enter — the wire decoder, the Writer, core.Live.Append and
// core.OpenStore — so no reader of a loaded trace has to.
func (t Topology) Validate() error {
	if t.NumNodes < 0 {
		return fmt.Errorf("trace: topology with %d NUMA nodes", t.NumNodes)
	}
	for cpu, node := range t.NodeOfCPU {
		if node < 0 || node >= t.NumNodes {
			return fmt.Errorf("trace: topology puts CPU %d on NUMA node %d, outside [0, %d)", cpu, node, t.NumNodes)
		}
	}
	if n := int64(t.NumNodes); int64(len(t.Distance)) != n*n {
		return fmt.Errorf("trace: topology distance matrix has %d entries, want %d", len(t.Distance), n*n)
	}
	return nil
}

// WellKnown counter names emitted by the runtime simulator and
// understood by the analysis layer. Producers are free to use any
// names; these are conventions.
const (
	CounterCycles       = "cycles"
	CounterCacheMisses  = "cache_misses"
	CounterBranchMisses = "branch_mispredictions"
	CounterOSSystemTime = "os_system_time_us"
	CounterResidentKB   = "resident_kb"
)

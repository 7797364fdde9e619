package otlp

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/openstream/aftermath/internal/trace"
)

// errCounterID is the single counter the importer synthesizes: a
// cumulative per-CPU count of error-status spans.
const errCounterID trace.CounterID = 1

// errCounterName is its well-known name; the anomaly layer treats any
// monotonic counter generically, so no special casing is needed.
const errCounterName = "span_errors"

// parallelEps is the window within which sibling spans are considered
// to have started "together" when voting an operation's call style
// parallel (motel's fan-out heuristic: a service that issues its
// downstream calls within a millisecond did not wait for any of them).
const parallelEps trace.Time = 1_000_000 // 1ms in nanoseconds

// inferState is the importer's accumulated view of the span stream:
// the synthetic topology grown so far, the task-tree links resolved so
// far, and the per-operation statistics. It is deliberately free of
// map iteration — every structure that is ranged over is a slice in
// first-seen order, with maps used only for keyed lookup — so two
// imports of the same stream produce byte-identical record streams and
// reports (enforced by atmvet's determinismcheck).
type inferState struct {
	services  []*serviceState
	svcByName map[string]int

	// nodeOfCPU maps every allocated worker lane (global CPU id, in
	// allocation order) to its service's NUMA node.
	nodeOfCPU []int32
	topoDirty bool

	// ops holds one entry per (service, operation) in first-seen
	// order; the slice index is the operation's trace.TypeID.
	ops     []*opState
	opByKey map[opKey]int

	spans   []spanState         // in arrival order
	byID    map[uint64]int32    // span id -> index in spans
	pending map[uint64][]uint64 // parent span id -> children seen before it

	errsByCPU   []int64 // cumulative error-span count per CPU
	errsSeen    bool
	descEmitted bool

	traces map[string]struct{} // every trace id imported

	dropped int // duplicate span ids skipped

	winStart, winEnd trace.Time
}

type opKey struct {
	svc int
	op  string
}

// serviceState is one service mapped onto one synthetic NUMA node with
// one worker lane per observed level of concurrency.
type serviceState struct {
	name  string
	node  int32
	lanes []laneState
}

// laneState is one worker lane: a CPU whose state intervals are grown
// strictly left to right, which keeps per-CPU states disjoint and
// sorted by construction.
type laneState struct {
	cpu     int32
	lastEnd trace.Time
}

// spanState is what later spans need to know about an earlier one: the
// lane it ran on (to place task-creation events), its interval (for
// the call-style vote of its parent), its type, and its parent's index
// in inferState.spans once that has arrived, -1 until then.
type spanState struct {
	cpu     int32
	parent  int32
	start   trace.Time
	end     trace.Time
	typeIdx int
}

// childRef is one child's interval in a call-style vote.
type childRef struct {
	start, end trace.Time
}

// opState accumulates per-(service, operation) statistics.
type opState struct {
	svc int
	op  string

	count  int
	errs   int
	sum    float64 // duration sum, ns
	sumSq  float64
	minDur trace.Time
	maxDur trace.Time

	// calls lists the operation type ids this operation was observed
	// invoking, in first-resolved order.
	calls    []int
	callSeen map[int]bool
}

func newInferState() *inferState {
	return &inferState{
		svcByName: make(map[string]int),
		opByKey:   make(map[opKey]int),
		byID:      make(map[uint64]int32),
		pending:   make(map[uint64][]uint64),
		traces:    make(map[string]struct{}),
	}
}

// addSpan folds one normalized span into the state and appends the
// records it implies to b: the topology and task-type registrations it
// triggers, its execution interval (plus the idle gap it closes on its
// lane), its task record, the creation events of any children that
// were waiting for it, and an error-counter sample if its status was
// an error.
func (st *inferState) addSpan(sp *span, b *trace.RecordBatch) *trace.RecordBatch {
	if _, dup := st.byID[sp.ID]; dup {
		st.dropped++
		return b
	}
	if sp.TraceID != "" {
		st.traces[sp.TraceID] = struct{}{}
	}
	if len(st.spans) == 0 || sp.Start < st.winStart {
		st.winStart = sp.Start
	}
	if len(st.spans) == 0 || sp.End > st.winEnd {
		st.winEnd = sp.End
	}

	svcIdx := st.serviceIdx(sp.Service)
	typeIdx := st.typeIdx(svcIdx, sp.Op, b)

	// Worker-lane assignment: the first lane of the span's service
	// that is free at sp.Start, or a fresh lane (new CPU) when every
	// lane is still busy — the observed concurrency level grows the
	// topology. Zero-length spans occupy one nanosecond so every
	// execution interval is visible and per-lane intervals stay
	// strictly ordered.
	end := sp.End
	if end == sp.Start {
		end = sp.Start + 1
	}
	svc := st.services[svcIdx]
	lane := -1
	for i := range svc.lanes {
		if svc.lanes[i].lastEnd <= sp.Start {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(svc.lanes)
		cpu := int32(len(st.nodeOfCPU))
		st.nodeOfCPU = append(st.nodeOfCPU, svc.node)
		st.errsByCPU = append(st.errsByCPU, 0)
		svc.lanes = append(svc.lanes, laneState{cpu: cpu, lastEnd: sp.Start})
		st.topoDirty = true
	}
	cpu := svc.lanes[lane].cpu
	if gap := sp.Start - svc.lanes[lane].lastEnd; gap > 0 {
		// The lane sat between spans: make the wait visible to the
		// imbalance analyses as an explicit idle interval.
		b.States = append(b.States, trace.StateEvent{
			CPU: cpu, State: trace.StateIdle,
			Start: svc.lanes[lane].lastEnd, End: sp.Start,
		})
	}
	svc.lanes[lane].lastEnd = end

	b.States = append(b.States, trace.StateEvent{
		CPU: cpu, State: trace.StateTaskExec,
		Start: sp.Start, End: end, Task: trace.TaskID(sp.ID),
	})

	// Task record. The creator CPU is the parent's lane when the
	// parent is already known; a task whose parent arrives later is
	// re-emitted with the real creator then (task application is
	// last-writer-wins), and a root keeps -1.
	creator, parent := int32(-1), int32(-1)
	if sp.Parent != 0 {
		if pi, ok := st.byID[sp.Parent]; ok {
			par := &st.spans[pi]
			creator, parent = par.cpu, pi
			b.Discrete = append(b.Discrete, trace.DiscreteEvent{
				CPU: par.cpu, Kind: trace.EventTaskCreated,
				Time: sp.Start, Arg: sp.ID,
			})
			st.ops[par.typeIdx].addCall(typeIdx)
		} else {
			st.pending[sp.Parent] = append(st.pending[sp.Parent], sp.ID)
		}
	}
	b.Tasks = append(b.Tasks, trace.Task{
		ID: trace.TaskID(sp.ID), Type: trace.TypeID(typeIdx),
		Created: sp.Start, CreatorCPU: creator,
	})

	idx := int32(len(st.spans))
	st.byID[sp.ID] = idx
	st.spans = append(st.spans, spanState{cpu: cpu, parent: parent, start: sp.Start, end: sp.End, typeIdx: typeIdx})

	// Resolve children that arrived before this span (stdouttrace
	// emits a span at its end, so parents usually follow children).
	if waiting, ok := st.pending[sp.ID]; ok {
		delete(st.pending, sp.ID)
		for _, childID := range waiting {
			child := &st.spans[st.byID[childID]]
			b.Discrete = append(b.Discrete, trace.DiscreteEvent{
				CPU: cpu, Kind: trace.EventTaskCreated,
				Time: child.start, Arg: childID,
			})
			b.Tasks = append(b.Tasks, trace.Task{
				ID: trace.TaskID(childID), Type: trace.TypeID(child.typeIdx),
				Created: child.start, CreatorCPU: cpu,
			})
			child.parent = idx
			st.ops[typeIdx].addCall(child.typeIdx)
		}
	}

	// Statistics and the error counter.
	o := st.ops[typeIdx]
	d := sp.Duration()
	if o.count == 0 || d < o.minDur {
		o.minDur = d
	}
	if o.count == 0 || d > o.maxDur {
		o.maxDur = d
	}
	o.count++
	o.sum += float64(d)
	o.sumSq += float64(d) * float64(d)
	if sp.Err {
		o.errs++
		st.errsByCPU[cpu]++
		if !st.descEmitted {
			b.Descs = append(b.Descs, trace.CounterDesc{
				ID: errCounterID, Name: errCounterName, Monotonic: true,
			})
			st.descEmitted = true
		}
		st.errsSeen = true
		b.Samples = append(b.Samples, trace.CounterSample{
			CPU: cpu, Counter: errCounterID, Time: end, Value: st.errsByCPU[cpu],
		})
	}
	return b
}

// serviceIdx interns a service name; a new service becomes the next
// NUMA node of the synthetic topology.
func (st *inferState) serviceIdx(name string) int {
	if i, ok := st.svcByName[name]; ok {
		return i
	}
	i := len(st.services)
	st.services = append(st.services, &serviceState{name: name, node: int32(i)})
	st.svcByName[name] = i
	st.topoDirty = true
	return i
}

// typeIdx interns a (service, operation) pair as a task type,
// registering it in the batch on first sight. The slice index is the
// TypeID, so type ids are dense and ordered by first appearance.
func (st *inferState) typeIdx(svc int, op string, b *trace.RecordBatch) int {
	k := opKey{svc: svc, op: op}
	if i, ok := st.opByKey[k]; ok {
		return i
	}
	i := len(st.ops)
	st.ops = append(st.ops, &opState{svc: svc, op: op, callSeen: make(map[int]bool)})
	st.opByKey[k] = i
	b.TaskTypes = append(b.TaskTypes, trace.TaskType{
		ID:   trace.TypeID(i),
		Name: st.services[svc].name + "." + op,
	})
	return i
}

func (o *opState) addCall(child int) {
	if !o.callSeen[child] {
		o.callSeen[child] = true
		o.calls = append(o.calls, child)
	}
}

// finishBatch completes a batch before it is emitted: lists the
// counters it touches and — when a span grew the service or lane set —
// prepends the updated topology snapshot, whose CPU table covers every
// lane allocated so far and therefore every CPU the batch references
// (topology records are applied before per-CPU records within a
// batch).
func (st *inferState) finishBatch(b *trace.RecordBatch) {
	if st.topoDirty {
		b.Topologies = append(b.Topologies, st.topology())
		st.topoDirty = false
	}
	if len(b.Descs) > 0 || len(b.Samples) > 0 {
		b.CounterIDs = append(b.CounterIDs, errCounterID)
	}
}

// topology builds the current synthetic topology: one NUMA node per
// service, one CPU per worker lane, unit distance between distinct
// services (services are peers over a network; no hierarchy is
// invented for them).
func (st *inferState) topology() trace.Topology {
	n := int32(len(st.services))
	dist := make([]int32, n*n)
	for i := int32(0); i < n; i++ {
		for j := int32(0); j < n; j++ {
			if i != j {
				dist[i*n+j] = 1
			}
		}
	}
	return trace.Topology{
		Name:      fmt.Sprintf("imported-spans (%d services)", n),
		NodeOfCPU: append([]int32(nil), st.nodeOfCPU...),
		Distance:  dist,
		NumNodes:  n,
	}
}

// CallStyle is an operation's inferred invocation pattern.
type CallStyle string

const (
	// StyleParallel: the operation's child calls start together (all
	// within parallelEps of the first) — a fan-out.
	StyleParallel CallStyle = "parallel"
	// StyleSequential: each child call starts only after the previous
	// one ended — a chain.
	StyleSequential CallStyle = "sequential"
	// StyleMixed: multi-child invocations were observed but votes
	// disagree or overlap partially.
	StyleMixed CallStyle = "mixed"
	// StyleNone: never observed with more than one child per
	// invocation, so no style is inferable.
	StyleNone CallStyle = ""
)

// Report summarizes what the importer inferred from the span stream.
type Report struct {
	// Spans is the number of spans imported; Dropped counts spans
	// skipped as duplicates of an already-imported span id.
	Spans   int
	Traces  int
	Dropped int
	// Start and End bound the imported time window (unix nanoseconds).
	Start, End trace.Time
	// Services in first-seen order; the index is the service's NUMA
	// node in the synthetic topology.
	Services []ServiceReport
}

// ServiceReport describes one service's place in the inferred
// topology and its operations.
type ServiceReport struct {
	Name string
	// Node is the synthetic NUMA node the service was mapped to.
	Node int32
	// Workers is the inferred worker count: the maximum number of
	// simultaneously executing spans observed in the service.
	Workers int
	Ops     []OpReport
}

// OpReport holds one operation's inferred statistics.
type OpReport struct {
	Name string
	// Type is the task type the operation was registered as; TypeName
	// is its qualified "service.operation" name.
	Type     trace.TypeID
	TypeName string
	Count    int
	Errors   int
	// Duration statistics in nanoseconds over all executions.
	MeanNs   float64
	StdDevNs float64
	MinNs    int64
	MaxNs    int64
	// Style is the voted call style; Calls lists the qualified names
	// of the operations this one invokes, in first-observed order.
	Style CallStyle
	Calls []string
}

// Report computes the inference summary for everything imported so
// far. It walks spans in arrival order (never map order) so the same
// stream always yields the same report.
func (st *inferState) report() *Report {
	// Call-style election: every imported span with two or more
	// children casts one vote for its operation. The children are
	// grouped by parent with a counting sort over the spans: at[p+1]
	// counts p's children, then at[p] is where they start in kids, and
	// once they are placed, where they end.
	at := make([]int, len(st.spans)+1)
	for i := range st.spans {
		if p := st.spans[i].parent; p >= 0 {
			at[p+1]++
		}
	}
	for p := 1; p < len(at); p++ {
		at[p] += at[p-1]
	}
	kids := make([]childRef, at[len(at)-1])
	for i := range st.spans {
		if c := &st.spans[i]; c.parent >= 0 {
			kids[at[c.parent]] = childRef{start: c.start, end: c.end}
			at[c.parent]++
		}
	}
	parVotes := make([]int, len(st.ops))
	seqVotes := make([]int, len(st.ops))
	mixVotes := make([]int, len(st.ops))
	lo := 0
	for p := range st.spans {
		children := kids[lo:at[p]]
		lo = at[p]
		if len(children) < 2 {
			continue
		}
		switch ti := st.spans[p].typeIdx; voteStyle(children) {
		case StyleParallel:
			parVotes[ti]++
		case StyleSequential:
			seqVotes[ti]++
		default:
			mixVotes[ti]++
		}
	}

	rep := &Report{
		Spans:   len(st.spans),
		Traces:  len(st.traces),
		Dropped: st.dropped,
		Start:   st.winStart,
		End:     st.winEnd,
	}
	for i, svc := range st.services {
		sr := ServiceReport{Name: svc.name, Node: svc.node, Workers: len(svc.lanes)}
		for ti, o := range st.ops {
			if o.svc != i || o.count == 0 {
				continue
			}
			mean := o.sum / float64(o.count)
			variance := o.sumSq/float64(o.count) - mean*mean
			if variance < 0 {
				variance = 0
			}
			or := OpReport{
				Name:     o.op,
				Type:     trace.TypeID(ti),
				TypeName: svc.name + "." + o.op,
				Count:    o.count,
				Errors:   o.errs,
				MeanNs:   mean,
				StdDevNs: math.Sqrt(variance),
				MinNs:    o.minDur,
				MaxNs:    o.maxDur,
				Style:    electStyle(parVotes[ti], seqVotes[ti], mixVotes[ti]),
			}
			for _, c := range o.calls {
				callee := st.ops[c]
				or.Calls = append(or.Calls, st.services[callee.svc].name+"."+callee.op)
			}
			sr.Ops = append(sr.Ops, or)
		}
		rep.Services = append(rep.Services, sr)
	}
	return rep
}

// voteStyle classifies one multi-child invocation; it sorts cs.
func voteStyle(cs []childRef) CallStyle {
	slices.SortFunc(cs, func(a, b childRef) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.end, b.end))
	})
	if cs[len(cs)-1].start-cs[0].start <= parallelEps {
		return StyleParallel
	}
	sequential := true
	for i := 1; i < len(cs); i++ {
		if cs[i].start < cs[i-1].end {
			sequential = false
			break
		}
	}
	if sequential {
		return StyleSequential
	}
	return StyleMixed
}

// electStyle picks the majority style from an operation's votes.
func electStyle(par, seq, mix int) CallStyle {
	if par == 0 && seq == 0 && mix == 0 {
		return StyleNone
	}
	switch {
	case par > seq && par >= mix:
		return StyleParallel
	case seq > par && seq >= mix:
		return StyleSequential
	default:
		return StyleMixed
	}
}

package openstream

import (
	"fmt"

	"github.com/openstream/aftermath/internal/topology"
	"github.com/openstream/aftermath/internal/trace"
)

// creationChunk is the number of task creations a worker performs per
// simulation event. Creations within a chunk take effect at the end of
// the chunk; the chunk duration is creations * Overheads.TaskCreate.
const creationChunk = 16

// worker models one worker thread pinned to a CPU.
type worker struct {
	id   int32
	node int32
	// deque is the worker's ready-task deque: the owner pushes and
	// pops at the tail (LIFO, for locality), thieves steal from the
	// head (FIFO), as in classic work-first work stealing.
	deque []TaskRef
	head  int
	busy  bool
	// freeSince marks the beginning of the current idle span.
	freeSince int64
	// Cumulative per-CPU counters.
	branchMisses  int64
	cacheMisses   int64
	sysTimeCycles int64
	residentKB    int64
	// pending holds a creation sequence suspended on a gate
	// (TaskSpec.CreateAfter), resumed once the gate resolves.
	pending *pendingCreate
}

// pendingCreate is a suspended creation sequence: the creator reached
// children[idx], whose creation gate has not yet resolved.
type pendingCreate struct {
	children []TaskRef
	idx      int
}

func (w *worker) qlen() int { return len(w.deque) - w.head }

type engine struct {
	cfg  *Config
	p    *Program
	s    *simulator
	em   *emitter
	mach *topology.Machine
	ncpu int

	// Per-task state.
	created    []bool
	unresolved []int32
	finished   []bool
	enqueued   []bool
	// gateRemaining[t] counts unresolved CreateAfter regions.
	gateRemaining []int32
	// gateOwner[t] is the worker whose creation sequence is
	// suspended waiting for task t's gate, or -1.
	gateOwner []int32
	// Per-region / per-backing state.
	regionDone []bool
	placeNode  []int32 // per backing; -1 = unplaced
	// Workers and scheduling state.
	workers         []worker
	nonEmpty        []int32 // worker ids with non-empty deques
	nonEmptyPos     []int32 // worker -> index in nonEmpty, -1 if absent
	nonEmptyPerNode []int32
	parked          []int32 // FIFO of parked workers (lazily cleaned)
	isParked        []bool
	nodesByDist     [][]int // per node: nodes ordered by distance
	rrPerNode       []int32
	rrAll           int32
	readyCount      int
	activeRemote    int
	activeFaulters  int
	executed        int
	maxTime         int64
	res             Result
}

// Run executes the program under the given configuration, writing
// trace records to w (which may be nil to skip tracing entirely, e.g.
// for parameter sweeps that only need the makespan).
func Run(p *Program, cfg Config, w *trace.Writer) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	e := &engine{
		cfg:  &cfg,
		p:    p,
		s:    newSimulator(cfg.Seed),
		mach: cfg.Machine,
		ncpu: cfg.Machine.NumCPUs(),
	}
	e.em = newEmitter(w, &cfg, p)
	e.init()
	if err := e.em.preamble(); err != nil {
		return Result{}, err
	}

	// Worker 0 plays the control thread: it creates the root tasks
	// starting at time zero, then joins the worker pool.
	e.workers[0].busy = true
	e.createChildren(&e.workers[0], e.p.rootChildren, 0)
	e.s.run()

	return e.finish()
}

func (e *engine) init() {
	nt, nr, nb := len(e.p.tasks), len(e.p.regions), len(e.p.backings)
	e.created = make([]bool, nt)
	e.finished = make([]bool, nt)
	e.enqueued = make([]bool, nt)
	e.unresolved = make([]int32, nt)
	e.gateRemaining = make([]int32, nt)
	e.gateOwner = make([]int32, nt)
	for i := range e.p.tasks {
		e.unresolved[i] = int32(len(e.p.tasks[i].Reads))
		e.gateRemaining[i] = int32(len(e.p.tasks[i].CreateAfter))
		e.gateOwner[i] = -1
	}
	e.regionDone = make([]bool, nr)
	e.placeNode = make([]int32, nb)
	for i := range e.placeNode {
		e.placeNode[i] = -1
	}
	e.workers = make([]worker, e.ncpu)
	e.nonEmptyPos = make([]int32, e.ncpu)
	e.isParked = make([]bool, e.ncpu)
	for i := range e.workers {
		e.workers[i] = worker{id: int32(i), node: int32(e.mach.NodeOfCPU(i))}
		e.nonEmptyPos[i] = -1
		if i != 0 {
			e.parkWorker(&e.workers[i])
		}
	}
	e.nonEmptyPerNode = make([]int32, e.mach.NumNodes())
	e.rrPerNode = make([]int32, e.mach.NumNodes())
	e.nodesByDist = make([][]int, e.mach.NumNodes())
	for n := range e.nodesByDist {
		e.nodesByDist[n] = e.mach.NodesByDistance(n)
	}
	e.res.StateCycles = make([]int64, trace.NumWorkerStates)
}

func (e *engine) finish() (Result, error) {
	if e.executed != len(e.p.tasks) {
		return Result{}, fmt.Errorf("openstream: execution stalled: %d of %d tasks ran "+
			"(unreachable tasks or broken creator chain)", e.executed, len(e.p.tasks))
	}
	// Close trailing idle spans and counters at the makespan.
	for i := range e.workers {
		w := &e.workers[i]
		if !w.busy && w.freeSince < e.maxTime {
			e.emitState(w, trace.StateIdle, w.freeSince, e.maxTime, trace.NoTask)
		}
	}
	e.em.finalSamples(e.workers, e.maxTime)
	if err := e.em.err(); err != nil {
		return Result{}, err
	}
	e.res.Makespan = e.maxTime
	e.res.TasksExecuted = e.executed
	e.res.Seconds = e.cfg.HW.CyclesToSeconds(e.maxTime)
	return e.res, nil
}

// --- deque and scheduling-set maintenance ---

func (e *engine) markNonEmpty(w *worker) {
	if e.nonEmptyPos[w.id] >= 0 {
		return
	}
	e.nonEmptyPos[w.id] = int32(len(e.nonEmpty))
	e.nonEmpty = append(e.nonEmpty, w.id)
	e.nonEmptyPerNode[w.node]++
}

func (e *engine) markEmpty(w *worker) {
	pos := e.nonEmptyPos[w.id]
	if pos < 0 {
		return
	}
	last := e.nonEmpty[len(e.nonEmpty)-1]
	e.nonEmpty[pos] = last
	e.nonEmptyPos[last] = pos
	e.nonEmpty = e.nonEmpty[:len(e.nonEmpty)-1]
	e.nonEmptyPos[w.id] = -1
	e.nonEmptyPerNode[w.node]--
}

func (e *engine) pushTask(w *worker, t TaskRef) {
	w.deque = append(w.deque, t)
	e.readyCount++
	e.markNonEmpty(w)
}

func (e *engine) popTail(w *worker) (TaskRef, bool) {
	if w.qlen() == 0 {
		return 0, false
	}
	t := w.deque[len(w.deque)-1]
	w.deque = w.deque[:len(w.deque)-1]
	e.afterPop(w)
	return t, true
}

func (e *engine) popHead(w *worker) (TaskRef, bool) {
	if w.qlen() == 0 {
		return 0, false
	}
	t := w.deque[w.head]
	w.head++
	e.afterPop(w)
	return t, true
}

func (e *engine) afterPop(w *worker) {
	e.readyCount--
	if w.qlen() == 0 {
		w.deque = w.deque[:0]
		w.head = 0
		e.markEmpty(w)
	}
}

// --- parking and wakeups ---

func (e *engine) parkWorker(w *worker) {
	if e.isParked[w.id] {
		return
	}
	e.isParked[w.id] = true
	e.parked = append(e.parked, w.id)
}

// wakeOne wakes the preferred worker if it is parked, otherwise the
// longest-parked worker. Wakes are lossy by design: a woken worker
// that finds nothing parks again.
func (e *engine) wakeOne(preferred int32) {
	var id int32 = -1
	if e.isParked[preferred] {
		id = preferred
		e.isParked[preferred] = false
	} else {
		for len(e.parked) > 0 {
			cand := e.parked[0]
			e.parked = e.parked[1:]
			if e.isParked[cand] {
				id = cand
				e.isParked[cand] = false
				break
			}
		}
	}
	if id < 0 {
		return
	}
	w := &e.workers[id]
	e.s.after(e.cfg.Overhead.WakeLatency, func() { e.seekWork(w) })
}

// --- task readiness ---

// taskReady is called when task t has been created and all its inputs
// are resolved. byWorker is the worker whose activity made it ready.
func (e *engine) taskReady(t TaskRef, byWorker *worker) {
	if e.enqueued[t] {
		return
	}
	e.enqueued[t] = true
	target := e.chooseWorker(t, byWorker)
	e.em.discrete(trace.DiscreteEvent{
		CPU: byWorker.id, Kind: trace.EventTaskReady, Time: e.s.now(), Arg: taskArg(t),
	})
	e.pushTask(&e.workers[target], t)
	e.wakeOne(target)
}

// chooseWorker implements the enqueue side of the scheduling policy.
func (e *engine) chooseWorker(t TaskRef, byWorker *worker) int32 {
	if e.cfg.Sched == SchedRandom {
		return byWorker.id
	}
	// NUMA-aware: enqueue on the node holding most input bytes.
	spec := &e.p.tasks[t]
	var bytesPerNode map[int32]int64
	var bestNode int32 = -1
	var bestBytes int64
	for _, a := range spec.Reads {
		bk := e.p.regions[a.Region].backing
		node := e.placeNode[bk]
		if node < 0 {
			continue
		}
		if bytesPerNode == nil {
			bytesPerNode = make(map[int32]int64, 4)
		}
		bytesPerNode[node] += a.Bytes
		if bytesPerNode[node] > bestBytes || (bytesPerNode[node] == bestBytes && node < bestNode) {
			bestBytes = bytesPerNode[node]
			bestNode = node
		}
	}
	if bestNode < 0 {
		// No placed inputs (e.g. initialization tasks): spread
		// round-robin across the whole machine so first-touch
		// distributes data over all nodes.
		w := e.rrAll % int32(e.ncpu)
		e.rrAll++
		return w
	}
	cpus := e.mach.CPUsOfNode(int(bestNode))
	idx := e.rrPerNode[bestNode] % int32(len(cpus))
	e.rrPerNode[bestNode]++
	return int32(cpus[idx])
}

// --- the worker loop ---

// seekWork is the worker's scheduling loop entry: resume a gated
// creation sequence, take local work, steal, or park. A creator whose
// gate is still closed keeps executing tasks — the work-first
// semantics of a taskwait in the control program.
func (e *engine) seekWork(w *worker) {
	if w.busy {
		return // stale wakeup
	}
	if p := w.pending; p != nil && e.gateRemaining[p.children[p.idx]] == 0 {
		w.pending = nil
		e.gateOwner[p.children[p.idx]] = -1
		e.createChildren(w, p.children[p.idx:], e.s.now())
		return
	}
	if t, ok := e.popTail(w); ok {
		e.startExec(w, t)
		return
	}
	if e.readyCount > 0 {
		e.attemptSteal(w)
		return
	}
	e.parkWorker(w)
}

// attemptSteal picks a victim, pays the probe cost, then tries to take
// the head of the victim's deque.
func (e *engine) attemptSteal(w *worker) {
	victim := e.pickVictim(w)
	if victim < 0 {
		e.parkWorker(w)
		return
	}
	// Model failed probes of empty deques before finding the victim:
	// with fewer non-empty deques, a random thief probes longer.
	fails := int64(0)
	if e.cfg.Sched == SchedRandom {
		p := float64(len(e.nonEmpty)) / float64(e.ncpu)
		for fails < 8 && e.s.rng.Float64() > p {
			fails++
		}
	}
	e.res.StealAttempts += fails + 1
	dist := int64(e.mach.Distance(int(w.node), int(e.workers[victim].node)))
	cost := e.cfg.Overhead.StealAttempt*(fails+1) + e.cfg.Overhead.StealHop*dist
	vw := &e.workers[victim]
	e.s.after(cost, func() { e.completeSteal(w, vw) })
}

func (e *engine) completeSteal(w, victim *worker) {
	if w.busy {
		return
	}
	t, ok := e.popHead(victim)
	if !ok {
		// The victim was drained while we were probing; try again.
		e.seekWork(w)
		return
	}
	e.res.Steals++
	now := e.s.now()
	e.em.discrete(trace.DiscreteEvent{CPU: w.id, Kind: trace.EventSteal, Time: now, Arg: taskArg(t)})
	e.em.comm(trace.CommEvent{
		Kind: trace.CommSteal, CPU: w.id, SrcCPU: victim.id, Time: now, Task: traceTaskID(t),
	})
	e.startExec(w, t)
}

// pickVictim returns a worker id with a non-empty deque according to
// the scheduling policy, or -1 if none exists.
func (e *engine) pickVictim(w *worker) int32 {
	if len(e.nonEmpty) == 0 {
		return -1
	}
	if e.cfg.Sched == SchedRandom {
		return e.nonEmpty[e.s.rng.Intn(len(e.nonEmpty))]
	}
	// NUMA-aware: nearest node with a non-empty deque.
	for _, node := range e.nodesByDist[w.node] {
		if e.nonEmptyPerNode[node] == 0 {
			continue
		}
		cpus := e.mach.CPUsOfNode(node)
		off := e.s.rng.Intn(len(cpus))
		for i := range cpus {
			cpu := cpus[(off+i)%len(cpus)]
			if e.nonEmptyPos[cpu] >= 0 {
				return int32(cpu)
			}
		}
	}
	return -1
}

// startExec begins executing task t on worker w at the current time.
func (e *engine) startExec(w *worker, t TaskRef) {
	now := e.s.now()
	if now > w.freeSince {
		e.emitState(w, trace.StateIdle, w.freeSince, now, trace.NoTask)
	}
	w.busy = true
	spec := &e.p.tasks[t]
	hwm := &e.cfg.HW
	load := float64(e.activeRemote) / float64(e.ncpu)

	// Memory cost of reads, and NUMA accounting.
	var memCycles, totalBytes, remoteBytes, lines int64
	for _, a := range spec.Reads {
		bk := e.p.regions[a.Region].backing
		node := e.placeNode[bk]
		dist := 0
		if node >= 0 {
			dist = e.mach.Distance(int(w.node), int(node))
		}
		memCycles += hwm.MemCost(a.Bytes, dist, load)
		totalBytes += a.Bytes
		lines += hwm.Lines(a.Bytes)
		if dist > 0 {
			remoteBytes += a.Bytes
		}
	}

	// Writes: place unplaced backings (first touch), charge page
	// faults as system time, then pay the write traffic. Each
	// written version gets a region record carrying its backing's
	// placement, so analysis localizes accesses by address alone.
	var faultCycles, faultedPages, residentDeltaKB int64
	for _, a := range spec.Writes {
		reg := &e.p.regions[a.Region]
		bk := reg.backing
		bd := &e.p.backings[bk]
		if e.placeNode[bk] < 0 {
			e.placeNode[bk] = w.node
			pages := hwm.Pages(bd.size)
			faultCycles += hwm.FaultCost(pages, e.activeFaulters+1)
			faultedPages += pages
			residentDeltaKB += (bd.size + 1023) / 1024
			e.em.discrete(trace.DiscreteEvent{
				CPU: w.id, Kind: trace.EventPageFault, Time: now, Arg: reg.addr,
			})
		}
		e.em.region(trace.MemRegion{
			ID: trace.RegionID(a.Region) + 1, Addr: reg.addr,
			Size: uint64(bd.size), Node: e.placeNode[bk],
		})
		dist := e.mach.Distance(int(w.node), int(e.placeNode[bk]))
		memCycles += hwm.MemCost(a.Bytes, dist, load)
		totalBytes += a.Bytes
		lines += hwm.Lines(a.Bytes)
		if dist > 0 {
			remoteBytes += a.Bytes
		}
	}

	duration := spec.Compute + memCycles + faultCycles + hwm.BranchMissCost(spec.BranchMisses)
	if duration < 1 {
		duration = 1
	}

	remoteHeavy := remoteBytes*2 > totalBytes
	if remoteHeavy {
		e.activeRemote++
	}
	faulting := faultCycles > 0
	if faulting {
		e.activeFaulters++
	}
	e.res.PagesFaulted += faultedPages
	e.res.SystemTimeCycles += faultCycles

	// Counter samples immediately before execution (Section V).
	e.em.hwSamples(w, now)
	// Read accesses are recorded at execution start.
	for _, a := range spec.Reads {
		e.em.comm(trace.CommEvent{
			Kind: trace.CommRead, CPU: w.id, SrcCPU: -1, Time: now,
			Task: traceTaskID(t), Addr: e.p.regions[a.Region].addr, Size: uint64(a.Bytes),
		})
	}
	e.emitState(w, trace.StateTaskExec, now, now+duration, traceTaskID(t))

	end := now + duration
	e.s.at(end, func() {
		e.finishExec(w, t, execOutcome{
			lines: lines, faultCycles: faultCycles,
			residentDeltaKB: residentDeltaKB,
			remoteHeavy:     remoteHeavy, faulting: faulting,
		})
	})
}

type execOutcome struct {
	lines           int64
	faultCycles     int64
	residentDeltaKB int64
	remoteHeavy     bool
	faulting        bool
}

// finishExec completes task t on worker w: update counters, resolve
// dependences, create children, then look for more work.
func (e *engine) finishExec(w *worker, t TaskRef, out execOutcome) {
	now := e.s.now()
	spec := &e.p.tasks[t]
	e.finished[t] = true
	e.executed++

	if out.remoteHeavy {
		e.activeRemote--
	}
	if out.faulting {
		e.activeFaulters--
	}

	w.branchMisses += spec.BranchMisses
	w.cacheMisses += out.lines
	w.sysTimeCycles += out.faultCycles
	w.residentKB += out.residentDeltaKB
	// Counter samples immediately after execution.
	e.em.hwSamples(w, now)
	e.em.rusageSamples(w, now, &e.cfg.HW)

	// Write accesses are recorded at completion.
	var notified int
	var maxFanout int
	for _, a := range spec.Writes {
		e.em.comm(trace.CommEvent{
			Kind: trace.CommWrite, CPU: w.id, SrcCPU: -1, Time: now,
			Task: traceTaskID(t), Addr: e.p.regions[a.Region].addr, Size: uint64(a.Bytes),
		})
		readers := e.p.readers[a.Region]
		notified += len(readers)
		if len(readers) > maxFanout {
			maxFanout = len(readers)
		}
	}

	// Resolve dependences now; the resolution overhead occupies the
	// worker afterwards.
	for _, a := range spec.Writes {
		e.regionDone[a.Region] = true
		for _, r := range e.p.readers[a.Region] {
			e.unresolved[r]--
			if e.unresolved[r] == 0 && e.created[r] {
				e.taskReady(r, w)
			}
		}
		if e.p.gated != nil {
			for _, g := range e.p.gated[a.Region] {
				e.gateRemaining[g]--
				if e.gateRemaining[g] == 0 {
					e.resumeGatedCreator(g)
				}
			}
		}
	}

	cursor := now
	if notified > 0 {
		resolve := e.cfg.Overhead.ResolvePerReader * int64(notified)
		if resolve > 0 {
			e.emitState(w, trace.StateResolve, cursor, cursor+resolve, traceTaskID(t))
			cursor += resolve
		}
	}
	if maxFanout > e.cfg.Overhead.BroadcastFanout {
		bcast := e.cfg.Overhead.BroadcastPerReader * int64(maxFanout)
		if bcast > 0 {
			e.emitState(w, trace.StateBroadcast, cursor, cursor+bcast, traceTaskID(t))
			cursor += bcast
		}
	}
	e.bump(cursor)

	children := e.p.children[t]
	if len(children) > 0 {
		e.createChildren(w, children, cursor)
		return
	}
	e.becomeFree(w, cursor)
}

// becomeFree transitions w to idle at time t and schedules its next
// work search.
func (e *engine) becomeFree(w *worker, t int64) {
	w.busy = false
	w.freeSince = t
	e.s.at(t, func() { e.seekWork(w) })
}

// resumeGatedCreator wakes the worker whose creation sequence waits on
// task g's gate, if any.
func (e *engine) resumeGatedCreator(g TaskRef) {
	owner := e.gateOwner[g]
	if owner < 0 {
		return
	}
	ow := &e.workers[owner]
	if ow.busy {
		return // will resume at its next seekWork
	}
	if e.isParked[owner] {
		e.isParked[owner] = false
	}
	e.s.after(e.cfg.Overhead.WakeLatency, func() { e.seekWork(ow) })
}

// createChildren makes w create the given tasks sequentially starting
// at time `start`, in chunks of creationChunk, then frees the worker.
// Reaching a child whose creation gate has not resolved suspends the
// sequence; seekWork resumes it once the gate opens.
func (e *engine) createChildren(w *worker, children []TaskRef, start int64) {
	w.busy = true
	cost := e.cfg.Overhead.TaskCreate
	var createChunk func(idx int, at int64)
	createChunk = func(idx int, at int64) {
		if e.gateRemaining[children[idx]] > 0 {
			w.pending = &pendingCreate{children: children, idx: idx}
			e.gateOwner[children[idx]] = w.id
			e.becomeFree(w, at)
			return
		}
		n := 0
		for idx+n < len(children) && n < creationChunk {
			if e.gateRemaining[children[idx+n]] > 0 {
				break
			}
			n++
		}
		dur := int64(n) * cost
		if dur < 1 {
			dur = 1
		}
		end := at + dur
		e.emitState(w, trace.StateTaskCreate, at, end, trace.NoTask)
		e.s.at(end, func() {
			// Emit creation records for the whole chunk before any
			// readiness processing: taskReady emits events at the
			// chunk end, which must not precede per-child creation
			// events at earlier timestamps in the CPU's stream.
			for i := 0; i < n; i++ {
				c := children[idx+i]
				e.created[c] = true
				ct := at + int64(i+1)*cost
				e.em.task(trace.Task{
					ID: traceTaskID(c), Type: trace.TypeID(e.p.tasks[c].Type),
					Created: ct, CreatorCPU: w.id,
				})
				e.em.discrete(trace.DiscreteEvent{
					CPU: w.id, Kind: trace.EventTaskCreated, Time: ct, Arg: taskArg(c),
				})
			}
			for i := 0; i < n; i++ {
				c := children[idx+i]
				if e.unresolved[c] == 0 {
					e.taskReady(c, w)
				}
			}
			if idx+n < len(children) {
				createChunk(idx+n, end)
				return
			}
			e.becomeFree(w, end)
		})
	}
	createChunk(0, start)
}

// emitState records a state interval in the result statistics and the
// trace, and advances the makespan.
func (e *engine) emitState(w *worker, st trace.WorkerState, start, end int64, task trace.TaskID) {
	if end <= start {
		return
	}
	e.res.StateCycles[st] += end - start
	e.bump(end)
	e.em.state(trace.StateEvent{CPU: w.id, State: st, Start: start, End: end, Task: task})
}

func (e *engine) bump(t int64) {
	if t > e.maxTime {
		e.maxTime = t
	}
}

// traceTaskID maps a program task to its trace ID (trace IDs are
// 1-based; 0 means "no task").
func traceTaskID(t TaskRef) trace.TaskID { return trace.TaskID(t) + 1 }

func taskArg(t TaskRef) uint64 { return uint64(traceTaskID(t)) }

// Live streaming ingest: a Live trace accepts record batches while it
// is being queried, turning the "load once, then explore" workflow of
// the paper into "append forever" — the run can still be executing
// while its timeline, metrics and anomaly rankings are served.
//
// The design separates a mutable builder from immutable snapshots. The
// builder accumulates the state a batch load accumulates — first-touch
// task/type/counter tables, the region list, one slot per CPU in
// arrival order, and one liveCol (column.go) per per-CPU event array
// and per (counter, CPU) sample array — guarded by a coarse epoch lock,
// and keeps the two tables a batch load finalizes over its whole input
// finalized as it goes: the region list stays address-sorted (a publish
// sorts the epoch's arrivals and merges them in) and task placements
// are applied to the task table once, as their execution spans arrive.
// Publish derives the rest through the helpers the batch indexer uses
// (finalizeTypes, buildCounterNameIndex; sortRegions and
// taskTable.applyExecs for the arrivals and the not-yet-declared
// tasks), so a snapshot is —
// provably, see TestStreamEqualsBatch and
// TestPublishIncrementalEqualsBatch — byte-identical to a cold Load of
// the stream prefix consumed so far. A snapshot captures each column as
// its Column value and the region list as a (len == cap) prefix,
// sharing that storage with the builder, which never writes at an index
// a captured value covers; the task table is the one thing copied. So
// readers keep querying older epochs race-free while the writer
// appends, spills and ages data out.
package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/openstream/aftermath/internal/mmtree"
	"github.com/openstream/aftermath/internal/trace"
)

// Live is an appendable trace. Writers feed it record batches (Append,
// or Feed from a StreamReader) and publish immutable snapshots;
// readers take the latest snapshot — a regular *Trace plus its epoch —
// and run any existing query, metric, render or anomaly code on it
// unchanged. Safe for one writer and any number of readers; Append,
// Publish and Feed serialize on the internal epoch lock.
type Live struct {
	mu sync.Mutex // the coarse epoch lock: serializes all writes

	// Builder state, guarded by mu.
	topo    trace.Topology
	hasTopo bool

	// CPU slots, guarded by mu: one per CPU a topology record declares
	// or a record names, in arrival order, so a slot never moves — spill
	// segments and each counter's columns address CPUs by slot. slotOf
	// maps an id to its slot; lastID and lastSlot memo the last look-up,
	// as a CPU's records come in runs. rows lists the slots in id order,
	// the rows of a snapshot; nil once a slot arrives (rowsLocked).
	cpus     []liveCPU
	slotOf   map[int32]int
	lastID   int32
	lastSlot int
	rows     []int

	// Type table, guarded by mu.
	types    []trace.TaskType
	typeByID map[trace.TypeID]int

	// Task table, guarded by mu: first-touch order, placements applied
	// in place.
	tasks taskTable

	// Counter table, guarded by mu.
	counters    []*liveCounter
	counterByID map[trace.CounterID]int

	// Sample columns, guarded by mu: pairs numbers every (counter, CPU)
	// pair the stream has sampled, in first-touch order, and pairCol
	// holds pair k's column at pairCol[k], so a sample finds its column
	// by position.
	pairs   trace.PairIndex
	pairCol []pairSlot

	// Region table, guarded by mu: regions is address-sorted and shared
	// with the snapshots that captured a prefix of it, so it is only
	// ever appended to or replaced; a batch's regions wait in
	// regionArrivals for the next publish (mergeRegionsLocked).
	regions        []trace.MemRegion
	regionArrivals []trace.MemRegion

	// Observed span, guarded by mu.
	spanSet bool
	spanMin trace.Time
	spanMax trace.Time

	// Spilling state (spill.go): the retention policy, the segment
	// list and counters (nil until the first freeze) and the segment
	// id sequence. All guarded by mu.
	ret      RetentionPolicy
	retSwept bool // stale-file sweep of ret.Dir done (first enable)
	spill    *spillState
	segSeq   int

	// spillWG tracks in-flight background compactions. Add happens
	// under mu; Wait must run unlocked (the workers re-take mu).
	spillWG sync.WaitGroup

	snap    atomic.Pointer[liveSnap]
	lastErr atomic.Pointer[ingestErr]

	// Push subscriptions (watch.go). watch.mu is a leaf lock under mu.
	watch watchState
}

// ingestErr boxes the first sticky ingest error for atomic publication.
type ingestErr struct{ err error }

// liveSnap pairs a published snapshot with its epoch.
type liveSnap struct {
	tr    *Trace
	epoch uint64
}

// liveCPU is one CPU's builder slot: its id, its event columns and
// dominance chain, the task execution spans appended since the last
// publish, in event order, and the spans that wait in orphans for the
// next publish to apply them again (placeExecsLocked): those whose task
// had no record yet, or every span of a column just sorted.
type liveCPU struct {
	id       int32
	states   liveCol[trace.StateEvent]
	discrete liveCol[trace.DiscreteEvent]
	comm     liveCol[Comm]
	dom      domChain
	execs    []execSpan
	orphans  []execSpan
}

// pairSlot places a (counter, CPU) pair's sample column: the counter's
// index in Live.counters and the CPU's slot, the column's index in the
// counter's per.
type pairSlot struct{ counter, slot int }

// liveCounter is one counter's builder slot: its description and one
// sample column per CPU slot.
type liveCounter struct {
	desc trace.CounterDesc
	per  []livePair
}

// livePair is one (counter, CPU) sample column with its incrementally
// extended min/max trees: tree and rate cover the first treeN logical
// samples, read through a view of the column's parts and tail taken at
// their last extension, and extend via mmtree append mode at publish;
// a drop or a sort resets them to be built again over the whole column.
// moved marks a pair one of whose parts was swapped for its mapped
// segment since: the next publish rebinds the trees to the column as it
// is now, so the chain stops holding the heap rows the part was.
type livePair struct {
	col   liveCol[Sample]
	tree  *mmtree.Tree
	rate  *mmtree.Tree
	treeN int
	moved bool
}

// NewLive returns an empty live trace at epoch 0. Its initial snapshot
// is the empty trace a batch load of a bare stream header produces.
func NewLive() *Live {
	lv := &Live{
		typeByID:    make(map[trace.TypeID]int),
		counterByID: make(map[trace.CounterID]int),
		slotOf:      make(map[int32]int),
		lastID:      -1,
		pairCol:     make([]pairSlot, 0, 64), // a machine's pairs, as trace.PairIndex starts with
	}
	lv.snap.Store(&liveSnap{tr: lv.snapshotLocked()})
	return lv
}

// Snapshot returns the most recently published snapshot and its epoch.
// The returned trace is immutable and safe to query concurrently with
// further appends. Lock-free.
func (lv *Live) Snapshot() (*Trace, uint64) {
	s := lv.snap.Load()
	return s.tr, s.epoch
}

// Epoch returns the current published epoch. The epoch increments on
// every Publish, so it versions every derived artifact (cache keys)
// computed from a snapshot.
func (lv *Live) Epoch() uint64 {
	return lv.snap.Load().epoch
}

// Err returns the first error the ingest path hit (a corrupt stream, a
// failed append), or nil while ingest is healthy. Such errors are
// sticky: the already-published snapshots stay valid and queryable,
// but no further data will arrive, which status surfaces (the /live
// endpoint, the -follow loop) must report instead of letting a frozen
// trace masquerade as a quiescent run.
func (lv *Live) Err() error {
	if p := lv.lastErr.Load(); p != nil {
		return p.err
	}
	return nil
}

// noteErr records the first ingest error and pushes it to watchers.
func (lv *Live) noteErr(err error) {
	if err != nil && lv.lastErr.Load() == nil {
		lv.lastErr.Store(&ingestErr{err})
		lv.notifyWatchers(TraceEvent{Epoch: lv.Epoch(), Err: err})
	}
}

// Append extends the trace with decoded record batches, in stream
// order. The new data becomes visible to readers at the next Publish.
func (lv *Live) Append(batches ...*trace.RecordBatch) error {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	for _, b := range batches {
		if err := lv.appendLocked(b); err != nil {
			lv.noteErr(err)
			return err
		}
	}
	return nil
}

// Publish finalizes the appended data into a new immutable snapshot,
// stores it as the current epoch+1 and returns it.
func (lv *Live) Publish() (*Trace, uint64) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.publishLocked()
}

// Feed polls the decoder once, appends every decoded batch and, if any
// records arrived, publishes a new snapshot. It returns the number of
// records appended. This is the per-tick body of the follow/live-
// monitoring loop; any format's incremental decoder (the native
// StreamReader, a foreign-format importer) feeds through the same
// path.
func (lv *Live) Feed(sr trace.Decoder) (int, error) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	n, err := sr.Poll(func(b *trace.RecordBatch) error {
		return lv.appendLocked(b) //atmvet:ignore lockedcheck Poll invokes the callback synchronously under Feed's mu.Lock
	})
	if n > 0 {
		lv.publishLocked()
	}
	lv.noteErr(err)
	return n, err
}

// slotLocked returns the slot of a CPU id, making it at the id's first
// record. Callers hold mu.
func (lv *Live) slotLocked(id int32) int {
	if id != lv.lastID {
		s, ok := lv.slotOf[id]
		if !ok {
			s = len(lv.cpus)
			lv.slotOf[id] = s
			lv.cpus = append(lv.cpus, liveCPU{id: id})
			lv.rows = nil
		}
		lv.lastID, lv.lastSlot = id, s
	}
	return lv.lastSlot
}

// rowsLocked returns the slots in id order: the rows of the next
// snapshot. Callers hold mu.
func (lv *Live) rowsLocked() []int {
	if cpus := lv.cpus; lv.rows == nil {
		lv.rows = make([]int, len(cpus))
		for s := range lv.rows {
			lv.rows[s] = s
		}
		slices.SortFunc(lv.rows, func(a, b int) int { return cmp.Compare(cpus[a].id, cpus[b].id) })
	}
	return lv.rows
}

// counterLocked returns the index of a counter's live slot, registering
// it in first-touch order exactly like a batch load. Callers hold mu.
func (lv *Live) counterLocked(id trace.CounterID) int {
	i, ok := lv.counterByID[id]
	if !ok {
		i = len(lv.counters)
		lv.counterByID[id] = i
		lv.counters = append(lv.counters, &liveCounter{desc: trace.CounterDesc{ID: id, Monotonic: true}})
	}
	return i
}

// pairSlotLocked places the sample column of a pair the stream samples
// for the first time, registering its counter and CPU. A counter's
// columns grow to every CPU slot known so far, or to twice their number.
// Callers hold mu.
func (lv *Live) pairSlotLocked(id trace.CounterID, cpu int32) pairSlot {
	c, slot := lv.counterLocked(id), lv.slotLocked(cpu)
	if lc := lv.counters[c]; slot >= len(lc.per) {
		per := make([]livePair, max(len(lv.cpus), 2*len(lc.per)))
		copy(per, lc.per)
		lc.per = per
	}
	return pairSlot{c, slot}
}

// growSpanLocked extends the incremental span, under mu. For sorted
// inputs this equals the span the batch indexer derives from first/last
// samples and state bounds; for disordered inputs it is still the true
// min/max.
func (lv *Live) growSpanLocked(lo, hi trace.Time) {
	if !lv.spanSet || lo < lv.spanMin {
		lv.spanMin = lo
	}
	if !lv.spanSet || hi > lv.spanMax {
		lv.spanMax = hi
	}
	lv.spanSet = true
}

// batchCPUErr reports the first implausible CPU id among a batch's
// per-CPU records.
func batchCPUErr(b *trace.RecordBatch) error {
	check := func(id int32) error {
		if id < 0 || id > trace.MaxCPUID {
			return fmt.Errorf("trace: implausible CPU id %d in appended batch", id)
		}
		return nil
	}
	for i := range b.States {
		if err := check(b.States[i].CPU); err != nil {
			return err
		}
	}
	for i := range b.Discrete {
		if err := check(b.Discrete[i].CPU); err != nil {
			return err
		}
	}
	for i := range b.Comms {
		if err := check(b.Comms[i].CPU); err != nil {
			return err
		}
	}
	for i := range b.Samples {
		if err := check(b.Samples[i].CPU); err != nil {
			return err
		}
	}
	return nil
}

// appendLocked routes one batch into the builder — the streaming
// counterpart of fromReader's callback and Trace.scatter. A batch is
// applied whole or not at all: the only ways it can fail are a CPU id
// no decoder would accept and a topology whose node ids the NUMA tables
// must not be indexed by, checked before the first mutation.
func (lv *Live) appendLocked(b *trace.RecordBatch) error {
	if err := batchCPUErr(b); err != nil {
		return err
	}
	for _, t := range b.Topologies {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	for _, t := range b.Topologies {
		lv.topo = t
		lv.hasTopo = true
		for id := range int32(len(t.NodeOfCPU)) {
			lv.slotLocked(id)
		}
	}
	for _, t := range b.TaskTypes {
		lv.types = registerType(lv.types, lv.typeByID, t)
	}
	for _, t := range b.Tasks {
		lv.tasks.apply(t)
	}
	// Register counters in first-touch order, then apply descriptions,
	// reproducing the counter table order of a sequential read.
	for _, id := range b.CounterIDs {
		lv.counterLocked(id)
	}
	for _, d := range b.Descs {
		lv.counters[lv.counterLocked(d.ID)].desc = d
	}
	lv.regionArrivals = append(lv.regionArrivals, b.Regions...)

	for _, s := range b.States {
		c := &lv.cpus[lv.slotLocked(s.CPU)]
		c.states.push(s, s.Start)
		if s.State == trace.StateTaskExec && s.Task != trace.NoTask {
			c.execs = append(c.execs, execSpan{s.Task, s.Start, s.End})
		}
		lv.growSpanLocked(s.Start, s.End)
	}
	for _, ev := range b.Discrete {
		lv.cpus[lv.slotLocked(ev.CPU)].discrete.push(ev, ev.Time)
	}
	for _, ev := range b.Comms {
		lv.cpus[lv.slotLocked(ev.CPU)].comm.push(toComm(&ev), ev.Time)
	}
	for i := range b.Samples {
		s := &b.Samples[i]
		k, added := lv.pairs.Find(s.Counter, s.CPU)
		if added {
			lv.pairCol = append(lv.pairCol, lv.pairSlotLocked(s.Counter, s.CPU))
		}
		at := lv.pairCol[k]
		lv.counters[at.counter].per[at.slot].col.push(toSample(s), s.Time)
		lv.growSpanLocked(s.Time, s.Time)
	}
	return nil
}

// publishLocked sorts the disordered columns, builds a snapshot, stores
// it as the next epoch and applies the spill/retention policy to the
// builder (the published snapshot keeps the pre-spill backing; the next
// one picks up the compacted columns).
func (lv *Live) publishLocked() (*Trace, uint64) {
	lv.sortDisorderedLocked()
	tr := lv.snapshotLocked()
	epoch := lv.snap.Load().epoch + 1
	lv.snap.Store(&liveSnap{tr: tr, epoch: epoch})
	lv.maybeSpillLocked()
	lv.notifyWatchers(TraceEvent{Epoch: epoch, Err: lv.Err()})
	return tr, epoch
}

// sortDisorderedLocked replaces every column that took an out-of-order
// event since the last publish with a stably sorted copy of itself
// (liveCol.sort) and resets what indexes it, the way
// applyRetentionLocked does after a drop: a state column's dominance
// chain restarts, and its execution spans are all applied again, in the
// sorted order — under placeExecsLocked's rule that is the batch
// loader's placement; a sample column's trees restart.
func (lv *Live) sortDisorderedLocked() {
	for s := range lv.cpus {
		c := &lv.cpus[s]
		if c.states.sort(stateTime) {
			c.dom = domChain{}
			c.orphans, c.execs = collectExecs(c.states.Rows), c.execs[:0]
		}
		c.discrete.sort(discreteTime)
		c.comm.sort(commTime)
	}
	for _, lc := range lv.counters {
		for cpu := range lc.per {
			if p := &lc.per[cpu]; p.col.sort(sampleTime) {
				p.tree, p.rate, p.treeN = nil, nil, 0
			}
		}
	}
}

// snapshotLocked finalizes the builder state into an immutable Trace
// equal to a batch load of everything appended so far.
//
// Cost per publish. Shared, never copied or re-scanned: the event and
// sample arrays (the bulk of a trace) and the sorted region list.
// O(what the epoch appended): the min/max trees and dominance pyramids
// extend in append mode — each chain's pyramid levels, rates, refs and
// prefix sums grow in place by amortized append, and the snapshot's two
// indexes take their entries from one slice each — the epoch's regions
// are sorted and merged into the list (one copy of the list when they
// interleave with it, none when they lie past its end), and the epoch's
// execution spans are applied to the task table. One memmove of the
// history: the task table, 48 B a task, because later placements edit
// it in place.
// O(their size): the small type and counter tables. No task-ID map is
// made; Trace.TaskByID builds it for the first reader who asks a
// snapshot by ID. Nothing else is derived here: detector baselines and
// communication totals are computed by whoever asks a snapshot for
// them, by the scan of the window's accesses (the viewer's response
// cache keeps each answer for its epoch) — a snapshot keeps no
// home-node column or sums (home.go): they hold for one region table,
// and this one is still growing.
//
// A column an out-of-order producer disordered was sorted before this
// (sortDisorderedLocked): once, O(its size), at the publish after the
// late event, with its indexes rebuilt and its placements re-applied.
func (lv *Live) snapshotLocked() *Trace {
	rows := lv.rowsLocked()
	tr := &Trace{Topology: lv.topo}
	if !lv.hasTopo {
		tr.Topology = synthTopology(len(rows))
	}
	if lv.spill != nil {
		st := lv.spill.stats()
		tr.spill = &st
	}

	// Per-CPU arrays, one row per CPU in id order like the batch
	// indexer: each column is captured as its Column value.
	tr.CPUs = sized[CPUData](len(rows))
	for r, s := range rows {
		c, lc := &tr.CPUs[r], &lv.cpus[s]
		c.ID = lc.id
		c.States = lc.states.Column
		c.Discrete = lc.discrete.Column
		c.Comm = lc.comm.Column
	}

	// Small tables: finalize copies so the builder keeps its
	// first-touch/stream order for the next epoch.
	tr.Types = append([]trace.TaskType(nil), lv.types...)
	tr.typeByID = make(map[trace.TypeID]int, len(lv.typeByID))
	finalizeTypes(tr.Types, tr.typeByID)

	tr.Regions = lv.mergeRegionsLocked()

	if orphans := lv.placeExecsLocked(); orphans == 0 {
		tr.Tasks = append([]TaskInfo(nil), lv.tasks.tasks...)
	} else {
		// Spans still without a task record are the snapshot's alone:
		// their tasks are synthesized past the declared ones, in CPU and
		// event order, and declared by no later epoch's table. The table
		// they are applied to leaves out the declared tasks' off map: an
		// orphan's ID is none of theirs, so no lookup of it could find a
		// declared task by slot or by map.
		orphaned := make([]cpuExecs, len(rows))
		for r, s := range rows {
			orphaned[r] = cpuExecs{lv.cpus[s].id, lv.cpus[s].orphans}
		}
		tasks := taskTable{tasks: append(make([]TaskInfo, 0, len(lv.tasks.tasks)+orphans), lv.tasks.tasks...)}
		tasks.applyExecs(orphaned)
		tr.Tasks = tasks.tasks
	}

	tr.counterByID = maps.Clone(lv.counterByID)
	// The snapshot's counter trees are seeded with the chains' heads; a
	// pair without a chain builds its trees on first use.
	lv.extendTreesLocked()
	for _, lc := range lv.counters {
		c := &Counter{Desc: lc.desc}
		c.size(len(rows))
		for r, s := range rows {
			if s >= len(lc.per) {
				continue
			}
			p := &lc.per[s]
			c.PerCPU[r] = p.col.Column
			c.trees[r] = counterTrees{value: p.tree, rate: p.rate}
		}
		tr.Counters = append(tr.Counters, c)
	}
	tr.counterByName = buildCounterNameIndex(tr.Counters)

	// Dominance pyramids: extend the per-CPU chains by the appended
	// events, read through the columns this snapshot captured, and seed
	// the snapshot's index with them. A CPU whose intervals overlap goes
	// dead until a drop or a sort restarts its chain; its snapshots fall
	// back to the lazy build (which scans).
	di := newDomIndex(len(rows))
	for r, s := range rows {
		lc := &lv.cpus[s]
		ch := &lc.dom
		if ch.dead || lc.states.len() == 0 {
			continue
		}
		// The chain extends through the entry's own view: a local one
		// would escape, an allocation per CPU and publish.
		e := &di.cpus[r]
		e.leaves = tr.stateLeaves(int32(r))
		if ch.extend(&e.leaves); !ch.dead {
			di.seed(r, e.leaves, ch.domSets)
		}
	}
	tr.domOnce.Do(func() { tr.dom = di })

	if lv.spanSet {
		tr.Span = Interval{Start: lv.spanMin, End: lv.spanMax}
	}
	return tr
}

// mergeRegionsLocked folds the regions that arrived since the last
// publish into the sorted list and returns the list as a snapshot may
// keep it: len == cap, so a reader's append cannot reach the spare room
// the builder extends into.
func (lv *Live) mergeRegionsLocked() []trace.MemRegion {
	if arr := lv.regionArrivals; len(arr) > 0 {
		sortRegions(arr)
		if n := len(lv.regions); n == 0 || arr[0].Addr >= lv.regions[n-1].Addr {
			// Past every captured prefix: no snapshot covers these indices.
			lv.regions = append(lv.regions, arr...)
		} else {
			lv.regions = mergeRegions(lv.regions, arr)
		}
		lv.regionArrivals = arr[:0]
	}
	n := len(lv.regions)
	return lv.regions[:n:n]
}

// placeExecsLocked applies the execution spans appended since the last
// publish to the task table, empties execs and returns how many spans
// are orphaned, their task still undeclared. A span on CPU c replaces a
// task's placement iff c's id >= the task's ExecCPU. That is the batch
// loader's last-writer-wins over (CPU, event) order whatever order the
// CPUs are visited in, provided one CPU's spans are applied in event
// order — the order of its column, which execs holds; so a CPU's
// orphans, which are older than its new spans, are retried first. The
// orphans still waiting go to a fresh slice: after a sort the old one
// holds every span of the column.
func (lv *Live) placeExecsLocked() (orphans int) {
	for s := range lv.cpus {
		c := &lv.cpus[s]
		var kept []execSpan
		for _, run := range [2][]execSpan{c.orphans, c.execs} {
			for _, e := range run {
				i, ok := lv.tasks.find(e.task)
				if !ok {
					kept = append(kept, e)
				} else if ti := &lv.tasks.tasks[i]; c.id >= ti.ExecCPU {
					ti.ExecCPU, ti.ExecStart, ti.ExecEnd = c.id, e.start, e.end
				}
			}
		}
		c.orphans, c.execs = kept, c.execs[:0]
		orphans += len(kept)
	}
	return orphans
}

// extendTreesLocked brings the incremental min/max trees up to the
// current sample counts via mmtree append mode: the trees index the
// column through a view of it, so only new samples are read and only
// their rates are derived — the per-epoch index cost is proportional to
// the appended data, not the trace size, and an unspilled pair's view
// allocates nothing.
func (lv *Live) extendTreesLocked() {
	for _, lc := range lv.counters {
		for cpu := range lc.per {
			p := &lc.per[cpu]
			if m := p.col.len(); m != p.treeN || p.moved {
				if p.tree == nil {
					p.tree, p.rate = mmtree.Values(0), mmtree.Rates(0)
				}
				col := p.col.leaves()
				p.tree = p.tree.Append(col, nil)
				p.rate = appendRates(p.rate, col)
				p.treeN, p.moved = m, false
			}
		}
	}
}

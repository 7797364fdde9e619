// Live streaming ingest: a Live trace accepts record batches while it
// is being queried, turning the "load once, then explore" workflow of
// the paper into "append forever" — the run can still be executing
// while its timeline, metrics and anomaly rankings are served.
//
// The design separates a mutable builder from immutable snapshots. The
// builder accumulates exactly the state a batch load accumulates
// before indexing (per-CPU event arrays in stream order, first-touch
// task/type/counter tables, the raw region list), guarded by a coarse
// epoch lock. Publish finalizes a snapshot through the same helpers
// the batch indexer uses (applyExecs, finalizeTypes, sortRegions,
// buildCounterNameIndex), so a snapshot is — provably, see
// TestStreamEqualsBatch — byte-identical to a cold Load of the stream
// prefix consumed so far. Snapshots share the large event arrays with
// the builder: appends only ever write beyond a snapshot's slice
// lengths, so readers keep querying older epochs race-free while the
// writer appends.
package core

import (
	"fmt"
	"sort"
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
	maxCPU  int32

	// Per-CPU builder tables, guarded by mu.
	cpus  []CPUData
	order []cpuOrder
	execs [][]execSpan
	doms  []domChain

	// Type table, guarded by mu.
	types    []trace.TaskType
	typeByID map[trace.TypeID]int

	// Task table, guarded by mu.
	tasks    []TaskInfo
	taskByID map[trace.TaskID]int

	// Counter table, guarded by mu.
	counters    []*liveCounter
	counterByID map[trace.CounterID]int

	// Raw region list, guarded by mu.
	regions []trace.MemRegion

	// Observed span, guarded by mu.
	spanSet bool
	spanMin trace.Time
	spanMax trace.Time

	// Incremental aggregate baselines (taskagg.go), carried across
	// epochs so each publish seeds its snapshot with trace-global
	// detector baselines updated from the appended data alone.
	// All guarded by mu.
	taskRec      []taskRec
	durs         map[trace.TypeID][]float64
	loc          []LocSum
	commTot      *CommTotals
	commN        []int
	aggRegionLen int
	aggTopoDirty bool
	aggHasTopo   bool
	aggMaxCPU    int32

	// Spilling state (spill.go): the retention policy, the immutable
	// frozen (spilled) generation shared with published snapshots and
	// the segment id sequence. All guarded by mu.
	ret      RetentionPolicy
	retSwept bool // stale-file sweep of ret.Dir done (first enable)
	frozen   *frozenTrace
	segSeq   int

	// spillWG tracks in-flight background compactions. Add happens
	// under mu; Wait must run unlocked (the workers re-take mu).
	spillWG sync.WaitGroup

	snap    atomic.Pointer[liveSnap]
	lastErr atomic.Pointer[ingestErr]

	// Push subscriptions (watch.go). watch.mu is a leaf lock under mu.
	watch watchState
}

// taskRec is the placement record of one task as of the last publish;
// the per-publish diff pass against the fresh task table finds the
// tasks whose duration population entries and locality summaries must
// move.
type taskRec struct {
	typ   trace.TypeID
	cpu   int32
	start trace.Time
	end   trace.Time
}

// ingestErr boxes the first sticky ingest error for atomic publication.
type ingestErr struct{ err error }

// liveSnap pairs a published snapshot with its epoch.
type liveSnap struct {
	tr    *Trace
	epoch uint64
}

// cpuOrder tracks per-family timestamp monotonicity for one CPU. The
// format guarantees per-CPU order, so the dirty flags stay false in
// practice; a producer that violates the guarantee only costs that
// CPU a copy + stable sort per snapshot (the same repair a batch load
// performs once).
type cpuOrder struct {
	lastState     trace.Time
	lastDiscrete  trace.Time
	lastComm      trace.Time
	stateDirty    bool
	discreteDirty bool
	commDirty     bool
	// seen* record that at least one event of the family arrived, so
	// order checks survive spilling emptying the RAM tail (a length
	// check would re-arm the first-event exemption at every spill).
	seenState    bool
	seenDiscrete bool
	seenComm     bool
	// n*F count the family's spilled (frozen) events: the logical
	// array is the frozen columns followed by the RAM tail, and these
	// give the tail's logical offset.
	nStateF    int
	nDiscreteF int
	nCommF     int
}

// liveCounter wraps one counter with per-CPU order tracking and the
// incrementally extended min/max trees.
type liveCounter struct {
	c     *Counter
	last  []trace.Time
	dirty []bool
	// trees/rateTrees[cpu] cover the first treeN[cpu] samples, extended
	// via mmtree append mode at publish; nil rows build lazily in the
	// snapshot instead (dirty pairs).
	trees     []*mmtree.Tree
	rateTrees []*mmtree.Tree
	treeN     []int
	// seen/fsamp mirror cpuOrder's seen*/n*F for the sample family:
	// seen[cpu] arms the order check past spills, fsamp[cpu] counts
	// the pair's spilled samples (treeN stays logical).
	seen  []bool
	fsamp []int
}

// NewLive returns an empty live trace at epoch 0. Its initial snapshot
// is the empty trace a batch load of a bare stream header produces.
func NewLive() *Live {
	lv := &Live{
		typeByID:    make(map[trace.TypeID]int),
		taskByID:    make(map[trace.TaskID]int),
		counterByID: make(map[trace.CounterID]int),
		maxCPU:      -1,
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
// every Publish, so it versions every derived artifact (cache keys,
// memoized scans) computed from a snapshot.
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

// cpuLocked returns the builder slots for a CPU id, growing the
// per-CPU tables as needed. Callers hold mu.
func (lv *Live) cpuLocked(id int32) (*CPUData, *cpuOrder) {
	for int(id) >= len(lv.cpus) {
		lv.cpus = append(lv.cpus, CPUData{})
		lv.order = append(lv.order, cpuOrder{})
		lv.execs = append(lv.execs, nil)
		lv.doms = append(lv.doms, domChain{})
	}
	if id > lv.maxCPU {
		lv.maxCPU = id
	}
	return &lv.cpus[id], &lv.order[id]
}

// counterForLocked returns the live slot for a counter, registering
// it in first-touch order exactly like a batch load. Callers hold mu.
func (lv *Live) counterForLocked(id trace.CounterID) *liveCounter {
	if i, ok := lv.counterByID[id]; ok {
		return lv.counters[i]
	}
	lc := &liveCounter{c: &Counter{Desc: trace.CounterDesc{ID: id, Monotonic: true}}}
	lv.counterByID[id] = len(lv.counters)
	lv.counters = append(lv.counters, lc)
	return lc
}

// applyTaskLocked mirrors Trace.applyTask on the builder tables.
// Callers hold mu.
func (lv *Live) applyTaskLocked(t trace.Task) {
	if i, ok := lv.taskByID[t.ID]; ok {
		ti := &lv.tasks[i]
		ti.Type, ti.Created, ti.CreatorCPU = t.Type, t.Created, t.CreatorCPU
		return
	}
	lv.taskByID[t.ID] = len(lv.tasks)
	lv.tasks = append(lv.tasks, TaskInfo{
		ID: t.ID, Type: t.Type, Created: t.Created,
		CreatorCPU: t.CreatorCPU, ExecCPU: -1,
	})
}

// growSpanLocked extends the incremental span, under mu. For sorted
// inputs this equals
// the span the batch indexer derives from first/last samples and
// state bounds; for disordered inputs it still tracks the true
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

// appendLocked routes one batch into the builder — the streaming
// counterpart of the batch loader's router + shard stage.
func (lv *Live) appendLocked(b *trace.RecordBatch) error {
	for _, t := range b.Topologies {
		lv.topo = t
		lv.hasTopo = true
		// Node assignments may have changed wholesale: every locality
		// summary and communication total is stale.
		lv.aggTopoDirty = true
	}
	for _, t := range b.TaskTypes {
		if _, ok := lv.typeByID[t.ID]; !ok {
			lv.typeByID[t.ID] = len(lv.types)
			lv.types = append(lv.types, t)
		}
	}
	for _, t := range b.Tasks {
		lv.applyTaskLocked(t)
	}
	// Register counters in first-touch order, then apply descriptions,
	// reproducing the counter table order of a sequential read.
	for _, id := range b.CounterIDs {
		lv.counterForLocked(id)
	}
	for _, d := range b.Descs {
		lv.counterForLocked(d.ID).c.Desc = d
	}
	lv.regions = append(lv.regions, b.Regions...)
	if b.MaxCPU > lv.maxCPU {
		lv.maxCPU = b.MaxCPU
	}

	checkCPU := func(id int32) error {
		if id < 0 || id > trace.MaxCPUID {
			return fmt.Errorf("trace: implausible CPU id %d in appended batch", id)
		}
		return nil
	}
	for _, s := range b.States {
		if err := checkCPU(s.CPU); err != nil {
			return err
		}
		c, o := lv.cpuLocked(s.CPU)
		if o.seenState && s.Start < o.lastState && !o.stateDirty {
			// The family just went dirty: its snapshot repair sorts the
			// whole array, so any spilled columns come back to RAM
			// first (dirty families never spill again).
			o.stateDirty = true
			lv.unspillStatesLocked(s.CPU)
		}
		o.lastState = s.Start
		o.seenState = true
		c.States = append(c.States, s)
		if s.State == trace.StateTaskExec && s.Task != trace.NoTask {
			lv.execs[s.CPU] = append(lv.execs[s.CPU], execSpan{s.Task, s.Start, s.End})
		}
		lv.growSpanLocked(s.Start, s.End)
	}
	for _, ev := range b.Discrete {
		if err := checkCPU(ev.CPU); err != nil {
			return err
		}
		c, o := lv.cpuLocked(ev.CPU)
		if o.seenDiscrete && ev.Time < o.lastDiscrete && !o.discreteDirty {
			o.discreteDirty = true
			lv.unspillDiscreteLocked(ev.CPU)
		}
		o.lastDiscrete = ev.Time
		o.seenDiscrete = true
		c.Discrete = append(c.Discrete, ev)
	}
	for _, ev := range b.Comms {
		if err := checkCPU(ev.CPU); err != nil {
			return err
		}
		c, o := lv.cpuLocked(ev.CPU)
		if o.seenComm && ev.Time < o.lastComm && !o.commDirty {
			o.commDirty = true
			lv.unspillCommLocked(ev.CPU)
		}
		o.lastComm = ev.Time
		o.seenComm = true
		c.Comm = append(c.Comm, ev)
	}
	for _, s := range b.Samples {
		if err := checkCPU(s.CPU); err != nil {
			return err
		}
		lc := lv.counterForLocked(s.Counter)
		for int(s.CPU) >= len(lc.c.PerCPU) {
			lc.c.PerCPU = append(lc.c.PerCPU, nil)
			lc.last = append(lc.last, 0)
			lc.dirty = append(lc.dirty, false)
			lc.trees = append(lc.trees, nil)
			lc.rateTrees = append(lc.rateTrees, nil)
			lc.treeN = append(lc.treeN, 0)
			lc.seen = append(lc.seen, false)
			lc.fsamp = append(lc.fsamp, 0)
		}
		if lc.seen[s.CPU] && s.Time < lc.last[s.CPU] && !lc.dirty[s.CPU] {
			lc.dirty[s.CPU] = true
			lv.unspillSamplesLocked(lv.counterByID[s.Counter], s.CPU)
		}
		lc.last[s.CPU] = s.Time
		lc.seen[s.CPU] = true
		lc.c.PerCPU[s.CPU] = append(lc.c.PerCPU[s.CPU], s)
		if s.CPU > lv.maxCPU {
			lv.maxCPU = s.CPU
		}
		lv.growSpanLocked(s.Time, s.Time)
	}
	return nil
}

// publishLocked builds a snapshot, stores it as the next epoch and
// applies the spill/retention policy to the builder (the published
// snapshot keeps the pre-spill backing; the next one picks up the
// compacted columns).
func (lv *Live) publishLocked() (*Trace, uint64) {
	tr := lv.snapshotLocked()
	epoch := lv.snap.Load().epoch + 1
	lv.snap.Store(&liveSnap{tr: tr, epoch: epoch})
	lv.maybeSpillLocked()
	lv.notifyWatchers(TraceEvent{Epoch: epoch, Err: lv.Err()})
	return tr, epoch
}

// snapshotLocked finalizes the builder state into an immutable Trace,
// through the same helpers the batch indexer runs, sharing the large
// event and sample arrays with the builder (copy-on-write only for the
// tables the finalization mutates).
//
// Cost per publish: the event and sample arrays — the bulk of a trace
// — are shared, never copied or re-scanned, and the min/max trees
// extend in amortized append mode, so those scale with the appended
// data only. The task table and its id maps, however, are copied per
// publish (exec application mutates task entries in place, and the
// batch semantics re-apply every placement in CPU order), as are the
// small type/region/counter tables — O(tasks) work per epoch. That is
// the price of strict batch equivalence; per-task delta tracking could
// amortize it, at the cost of reimplementing (rather than reusing) the
// batch indexer's placement semantics.
func (lv *Live) snapshotLocked() *Trace {
	tr := &Trace{Topology: lv.topo, frozen: lv.frozen}
	if !lv.hasTopo {
		tr.Topology = synthTopology(lv.maxCPU)
	}

	// Per-CPU arrays: copy the slice headers, padded to maxCPU+1 like
	// the batch indexer. Rows of a CPU that violated per-CPU order are
	// deep-copied and stable-sorted — the identical repair index()
	// performs — leaving the builder's stream-order row untouched.
	execs := make([][]execSpan, int(lv.maxCPU)+1)
	if n := int(lv.maxCPU) + 1; n > 0 {
		cpus := make([]CPUData, n)
		copy(cpus, lv.cpus)
		for i := range lv.cpus {
			o := &lv.order[i]
			if o.stateDirty {
				s := append([]trace.StateEvent(nil), cpus[i].States...)
				sort.SliceStable(s, func(a, b int) bool { return s[a].Start < s[b].Start })
				cpus[i].States = s
				execs[i] = collectExecs(s)
			} else {
				execs[i] = lv.execs[i]
			}
			if o.discreteDirty {
				d := append([]trace.DiscreteEvent(nil), cpus[i].Discrete...)
				sort.SliceStable(d, func(a, b int) bool { return d[a].Time < d[b].Time })
				cpus[i].Discrete = d
			}
			if o.commDirty {
				c := append([]trace.CommEvent(nil), cpus[i].Comm...)
				sort.SliceStable(c, func(a, b int) bool { return c[a].Time < c[b].Time })
				cpus[i].Comm = c
			}
		}
		tr.CPUs = cpus
	}

	// Small tables: finalize copies so the builder keeps its
	// first-touch/stream order for the next epoch.
	tr.Types = append([]trace.TaskType(nil), lv.types...)
	tr.typeByID = make(map[trace.TypeID]int, len(lv.typeByID))
	finalizeTypes(tr.Types, tr.typeByID)

	tr.Regions = append([]trace.MemRegion(nil), lv.regions...)
	sortRegions(tr.Regions)

	tr.taskByID = make(map[trace.TaskID]int, len(lv.taskByID))
	for k, v := range lv.taskByID {
		tr.taskByID[k] = v
	}
	tr.Tasks = applyExecs(append([]TaskInfo(nil), lv.tasks...), tr.taskByID, execs)

	tr.counterByID = make(map[trace.CounterID]int, len(lv.counterByID))
	for k, v := range lv.counterByID {
		tr.counterByID[k] = v
	}
	lv.extendTreesLocked()
	ci := NewCounterIndex(0)
	for i, lc := range lv.counters {
		c := &Counter{Desc: lc.c.Desc}
		if lv.frozen != nil && i < len(lv.frozen.samples) {
			c.frozen = lv.frozen.samples[i]
		}
		if len(lc.c.PerCPU) > 0 {
			c.PerCPU = make([][]trace.CounterSample, len(lc.c.PerCPU))
			copy(c.PerCPU, lc.c.PerCPU)
			for cpu := range lc.dirty {
				if lc.dirty[cpu] && len(c.PerCPU[cpu]) > 1 {
					s := append([]trace.CounterSample(nil), c.PerCPU[cpu]...)
					sort.SliceStable(s, func(a, b int) bool { return s[a].Time < s[b].Time })
					c.PerCPU[cpu] = s
				}
			}
			for cpu := range lc.trees {
				if lc.trees[cpu] != nil && !lc.dirty[cpu] {
					key := counterCPU{uint64(c.Desc.ID), int32(cpu), false}
					ci.seed(key, lc.trees[cpu])
					key.rate = true
					ci.seed(key, lc.rateTrees[cpu])
				}
			}
		}
		tr.Counters = append(tr.Counters, c)
	}
	tr.counterByName = buildCounterNameIndex(tr.Counters)
	tr.cindexOnce.Do(func() { tr.cindex = ci })

	// Dominance pyramids: extend the per-CPU chains by the appended
	// events and seed the snapshot's index with them; dirty CPUs fall
	// back to the snapshot's lazy build over its repaired arrays.
	lv.extendDomsLocked()
	di := NewDomIndex()
	for cpu := range lv.doms {
		ch := &lv.doms[cpu]
		if ch.dead || ch.all == nil {
			continue
		}
		if lv.order[cpu].nStateF > 0 {
			// Spilled CPU: leaves resolve through the segmented view
			// (frozen columns + this snapshot's tail).
			segs, cum := lv.stateSegViewLocked(cpu, tr.CPUs[cpu].States)
			di.seed(int32(cpu), &DomCPU{segs: segs, cum: cum, domSets: ch.domSets})
		} else {
			di.seed(int32(cpu), &DomCPU{states: tr.CPUs[cpu].States, domSets: ch.domSets})
		}
	}
	tr.domOnce.Do(func() { tr.dom = di })

	if lv.spanSet {
		tr.Span = Interval{Start: lv.spanMin, End: lv.spanMax}
	}
	lv.updateAggLocked(tr)
	return tr
}

// updateAggLocked brings the incremental aggregate baselines up to the
// snapshot being published and seeds them into it. Steady-state cost
// is O(tasks) bookkeeping (the diff pass; snapshotLocked already pays
// O(tasks) per publish for the table copy) plus work proportional to
// the appended data: new communication events extend the totals, and
// only tasks whose placement changed — or whose execution window can
// contain a newly appended communication event — recompute their
// locality summary. Epochs in which the region table grew or the
// topology changed invalidate everything address- or node-derived and
// rebuild it from the snapshot (regions normally arrive once, early).
//
// Every seeded value is computed by the same definitions the cold scan
// uses (TaskLocalityOf, CommTotals.addComm mirroring the stats scan),
// over the same immutable snapshot, so indexed and cold results are
// byte-identical — the property TestStreamEqualsBatch enforces.
func (lv *Live) updateAggLocked(tr *Trace) {
	regionsGrew := len(lv.regions) != lv.aggRegionLen
	topoChanged := lv.aggTopoDirty || lv.aggHasTopo != lv.hasTopo ||
		(!lv.hasTopo && lv.aggMaxCPU != lv.maxCPU)
	rebuildAll := regionsGrew || topoChanged

	// Per-CPU: the earliest newly appended communication time, which
	// bounds the tasks whose locality can have changed this epoch.
	// Derived from the pre-update consumption counts, before the
	// totals advance them.
	// Consumption counts (commN) are logical: spilled events plus the
	// RAM tail. The unconsumed suffix always lies in the tail, because
	// freezing happens after the publish that consumed the events.
	minNew := make([]trace.Time, len(lv.cpus))
	hasNew := make([]bool, len(lv.cpus))
	anyNewComm := false
	for cpu := range lv.cpus {
		n0 := 0
		if cpu < len(lv.commN) {
			n0 = lv.commN[cpu]
		}
		from := n0 - lv.order[cpu].nCommF
		if from < 0 {
			from = 0
		}
		for _, ev := range lv.cpus[cpu].Comm[from:] {
			if !hasNew[cpu] || ev.Time < minNew[cpu] {
				minNew[cpu], hasNew[cpu] = ev.Time, true
			}
			anyNewComm = true
		}
	}

	// Communication totals. Consumption iterates the builder's rows —
	// stream order, never re-sorted, so positions are stable across
	// publishes — while node resolution uses the snapshot; byte sums
	// are order-independent, so the totals equal a scan of the
	// snapshot's repaired rows.
	n := tr.NumNodes()
	if lv.commTot == nil || rebuildAll || lv.commTot.N != n {
		lv.commTot = &CommTotals{N: n, Reads: make([]int64, n*n), Writes: make([]int64, n*n)}
		lv.commN = make([]int, len(lv.cpus))
		for cpu := range lv.cpus {
			// Rebuild over the whole retained window: spilled columns
			// first, then the tail. (Events already dropped under the
			// retention budget leave the totals — the totals describe
			// the retained trace.)
			if lv.frozen != nil && cpu < len(lv.frozen.cpus) {
				for _, s := range lv.frozen.cpus[cpu].comm {
					lv.commTot.addComm(tr, int32(cpu), s, 0)
				}
			}
			lv.commTot.addComm(tr, int32(cpu), lv.cpus[cpu].Comm, 0)
			lv.commN[cpu] = lv.order[cpu].nCommF + len(lv.cpus[cpu].Comm)
		}
	} else if anyNewComm {
		ct := lv.commTot.clone()
		for len(lv.commN) < len(lv.cpus) {
			lv.commN = append(lv.commN, 0)
		}
		for cpu := range lv.cpus {
			from := lv.commN[cpu] - lv.order[cpu].nCommF
			if from < 0 {
				from = 0
			}
			ct.addComm(tr, int32(cpu), lv.cpus[cpu].Comm, from)
			lv.commN[cpu] = lv.order[cpu].nCommF + len(lv.cpus[cpu].Comm)
		}
		lv.commTot = ct
	}

	// Diff pass over the published task table: move duration
	// population entries for tasks whose placement record changed and
	// recompute locality summaries for stale tasks. The population
	// slices and the loc slice are copy-on-write — snapshots hold
	// earlier generations — so changed containers are fresh.
	var adds, rems map[trace.TypeID][]float64
	loc := lv.loc
	locCopied := false
	ensureLoc := func() {
		if !locCopied {
			nl := make([]LocSum, len(tr.Tasks))
			copy(nl, loc)
			loc, locCopied = nl, true
		}
	}
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		cur := taskRec{typ: t.Type, cpu: t.ExecCPU, start: t.ExecStart, end: t.ExecEnd}
		isNew := i >= len(lv.taskRec)
		var prev taskRec
		if !isNew {
			prev = lv.taskRec[i]
		}
		changed := isNew || prev != cur
		if changed {
			if !isNew && prev.cpu >= 0 {
				if rems == nil {
					rems = make(map[trace.TypeID][]float64)
				}
				rems[prev.typ] = append(rems[prev.typ], float64(prev.end-prev.start))
			}
			if cur.cpu >= 0 {
				if adds == nil {
					adds = make(map[trace.TypeID][]float64)
				}
				adds[cur.typ] = append(adds[cur.typ], float64(t.Duration()))
			}
			if isNew {
				lv.taskRec = append(lv.taskRec, cur)
			} else {
				lv.taskRec[i] = cur
			}
		}
		stale := rebuildAll || changed
		if !stale && cur.cpu >= 0 && int(cur.cpu) < len(hasNew) &&
			hasNew[cur.cpu] && cur.end+1 > minNew[cur.cpu] {
			stale = true
		}
		if stale {
			ensureLoc()
			loc[i] = TaskLocalityOf(tr, t)
		}
	}
	if locCopied {
		lv.loc = loc
	}

	if len(adds) > 0 || len(rems) > 0 {
		nd := make(map[trace.TypeID][]float64, len(lv.durs)+len(adds))
		for k, v := range lv.durs {
			nd[k] = v
		}
		touched := make(map[trace.TypeID]bool, len(adds)+len(rems))
		for typ := range adds {
			touched[typ] = true
		}
		for typ := range rems {
			touched[typ] = true
		}
		for typ := range touched {
			s := nd[typ]
			if r := rems[typ]; len(r) > 0 {
				s = removeSorted(s, r)
			}
			if a := adds[typ]; len(a) > 0 {
				sort.Float64s(a)
				s = mergeSorted(s, a)
			}
			if len(s) == 0 {
				delete(nd, typ)
			} else {
				nd[typ] = s
			}
		}
		lv.durs = nd
	}

	tr.taskAgg = &TaskAgg{durs: lv.durs, loc: lv.loc}
	tr.commTotals = lv.commTot
	lv.aggRegionLen = len(lv.regions)
	lv.aggTopoDirty = false
	lv.aggHasTopo = lv.hasTopo
	lv.aggMaxCPU = lv.maxCPU
}

// extendDomsLocked brings the per-CPU dominance chains up to the
// current state-event counts: only appended events are scanned. A CPU
// that went dirty (out-of-order producer) or whose intervals overlap
// goes dead and is never extended again — its snapshots rebuild (or
// scan) instead.
func (lv *Live) extendDomsLocked() {
	for cpu := range lv.doms {
		ch := &lv.doms[cpu]
		if lv.order[cpu].stateDirty {
			*ch = domChain{dead: true}
		}
		// The logical array is the spilled columns followed by the RAM
		// tail; the window gather is zero-copy in the steady state
		// (new events are all in the tail) and only copies on a
		// post-drop rebuild.
		if m := lv.order[cpu].nStateF + len(lv.cpus[cpu].States); !ch.dead && m != ch.n {
			ch.extend(lv.stateWindowLocked(cpu, ch.n))
		}
	}
}

// extendTreesLocked brings the incremental min/max trees up to the
// current sample counts via mmtree append mode: only new samples are
// scanned, so the per-epoch index cost is proportional to the appended
// data, not the trace size. Pairs that went dirty fall back to the
// snapshot's lazy per-epoch rebuild.
func (lv *Live) extendTreesLocked() {
	for ci, lc := range lv.counters {
		for cpu := range lc.c.PerCPU {
			if lc.dirty[cpu] {
				lc.trees[cpu], lc.rateTrees[cpu] = nil, nil
				continue
			}
			n0 := lc.treeN[cpu]
			m := lc.fsamp[cpu] + len(lc.c.PerCPU[cpu])
			if m == n0 {
				continue
			}
			// Rates: entry i spans samples (i, i+1), so appending
			// samples [n0, m) adds the rate entries [max(n0-1,0), m-1):
			// gather the window from the last covered sample on.
			from := max(n0-1, 0)
			win := lv.sampleWindowLocked(ci, cpu, from)
			lc.trees[cpu] = appendValues(lc.trees[cpu], win[n0-from:], 0)
			lc.rateTrees[cpu] = appendRates(lc.rateTrees[cpu], win, 0)
			lc.treeN[cpu] = m
		}
	}
}

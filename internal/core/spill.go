// Epoch spilling: bounded-memory live ingest.
//
// A long-lived -follow session accumulates per-CPU event arrays and
// counter samples without bound. Every such array is one Column value
// (column.go): its spilled parts, oldest first, then its rows, the RAM
// tail. The builder keeps each as a liveCol. After a publish, once the
// tails together exceed the budget, each clean tail is frozen into a
// new part of one new segment; a background goroutine writes the
// frozen rows to an mmap-backed columnar file (internal/store) and
// installs the mapped views in place of the heap rows, which die with
// the snapshots that captured them. Retention (RetentionPolicy) drops
// the oldest segments, and with them the leading parts of every column,
// turning the live trace into a sliding window over the run. A column
// whose producer breaks timestamp order is unspilled — pulled back into
// its tail — because the next publish sorts the whole array; after that
// sort it is a column like any other and spills again, so the memory
// bound holds. A snapshot holds the columns as they are, parts and rows
// together, and every accessor reads a column the one way whether it
// has parts or not.
//
// Concurrency model: all builder mutation happens under Live.mu. A
// published snapshot holds each column as the Column value it had at
// publish, and a column never writes at an index a captured value
// covers (see liveCol), so readers of older epochs never observe a
// mutation. Segment bookkeeping (spillState, spillSeg) is builder
// state read only under the lock; a snapshot carries a copy of the
// counters. What a freeze hands the background writer is the list of
// parts it froze: their rows, and the columns they go back to.
package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"github.com/openstream/aftermath/internal/store"
	"github.com/openstream/aftermath/internal/trace"
)

// RetentionPolicy bounds the memory of a long-lived Live trace. The
// zero value disables spilling entirely (the pre-spilling behavior:
// everything stays in RAM forever). Segments compact to disk on a
// background goroutine; Live.Close waits for them.
type RetentionPolicy struct {
	// Dir is the directory segment files are written to. Empty
	// disables spilling.
	Dir string
	// SpillBytes is the RAM-tail budget: when the builder's unspilled
	// event and sample columns exceed it, the clean tails freeze into
	// a new on-disk segment at the next publish. <= 0 disables
	// spilling.
	SpillBytes int64
	// MaxBytes caps the total spilled bytes: oldest segments beyond it
	// are dropped (events leave the trace). <= 0 means unlimited.
	MaxBytes int64
	// MaxAge drops segments whose newest event is older than the
	// current span end minus MaxAge. <= 0 means unlimited.
	MaxAge trace.Time
}

func (p RetentionPolicy) enabled() bool { return p.Dir != "" && p.SpillBytes > 0 }

// spillSeg is one frozen epoch range: the column tails that left RAM
// together at one publish (each as a colPart naming this segment). Its
// fields are written only under Live.mu; snapshot readers hold the
// pointer only to keep the mapping alive.
type spillSeg struct {
	id int
	// bytes counts the rows currently charged to the segment: freeze
	// adds, unspill credits back.
	bytes int64
	// minTime/maxTime approximate the segment's time range (from the
	// first/last event of each moved column); used by age retention.
	minTime trace.Time
	maxTime trace.Time
	hasTime bool
	// path and m are set once the background compaction installs the
	// written file; until then the parts are heap-backed.
	path string
	m    *store.Mapped
}

// cover grows the segment's time range to include [lo, hi].
func (seg *spillSeg) cover(lo, hi trace.Time) {
	if !seg.hasTime || lo < seg.minTime {
		seg.minTime = lo
	}
	if !seg.hasTime || hi > seg.maxTime {
		seg.maxTime = hi
	}
	seg.hasTime = true
}

// spillState is a live trace's segment bookkeeping, guarded by Live.mu.
type spillState struct {
	segs         []*spillSeg // retained segments, oldest first
	pending      int         // segments frozen but not yet compacted to disk
	droppedSegs  int
	droppedBytes int64
	err          string // first compaction failure, sticky
}

// spilledBytes sums the rows charged to the retained segments.
func (sp *spillState) spilledBytes() (n int64) {
	for _, seg := range sp.segs {
		n += seg.bytes
	}
	return n
}

// stats snapshots the bookkeeping into its public form.
func (sp *spillState) stats() SpillStats {
	return SpillStats{
		Segments:     len(sp.segs),
		SpilledBytes: sp.spilledBytes(),
		Pending:      sp.pending,
		DroppedSegs:  sp.droppedSegs,
		DroppedBytes: sp.droppedBytes,
		Err:          sp.err,
	}
}

// SpillStats reports a snapshot's spill/retention state. ok is false
// for traces that never spilled.
type SpillStats struct {
	// Segments and SpilledBytes describe the spilled columns currently
	// part of the trace; Pending of those segments still await their
	// background compaction (their columns are heap-backed until
	// installed).
	Segments     int
	SpilledBytes int64
	Pending      int
	// DroppedSegs/DroppedBytes count data aged out under the retention
	// budget — events no longer part of the trace.
	DroppedSegs  int
	DroppedBytes int64
	// Err is the first segment compaction failure, if any. The data
	// stays in RAM when compaction fails; only the memory bound is
	// lost.
	Err string
}

// SpillStats reports the snapshot's spill state; ok is false when the
// trace has no spilled data.
func (tr *Trace) SpillStats() (s SpillStats, ok bool) {
	if tr.spill == nil {
		return SpillStats{}, false
	}
	return *tr.spill, true
}

// Close releases the file mapping of a store-backed trace (OpenStore).
// Traces from Load, FromReader or live snapshots hold no mapping of
// their own and Close is a no-op for them (live segment mappings are
// released by finalizers once no snapshot references them).
func (tr *Trace) Close() error {
	if tr.backing != nil {
		return tr.backing.Close()
	}
	return nil
}

// --- live-side spilling ---

// SetRetention installs the retention policy. Takes effect at the next
// publish; safe to call while ingest is running. Dir must belong to
// this live trace alone: when the policy first enables spilling, any
// leftovers of a previous process in Dir — segment files this trace
// cannot adopt, and *.tmp* debris of a compaction killed mid-write —
// are swept, so restarts into a reused spill directory do not
// accumulate dead files.
func (lv *Live) SetRetention(p RetentionPolicy) {
	lv.mu.Lock()
	if p.enabled() && !lv.retSwept {
		// Sweep before the policy becomes visible to publishes: nothing
		// can be writing into Dir yet, so every matching file is stale.
		lv.retSwept = true
		sweepSpillDir(p.Dir)
	}
	lv.ret = p
	lv.mu.Unlock()
}

// sweepSpillDir removes segment files and compaction debris left in a
// spill directory by a previous (possibly crashed) process.
func sweepSpillDir(dir string) {
	for _, pat := range []string{"seg-*.atms", "seg-*.atms.tmp*"} {
		matches, _ := filepath.Glob(filepath.Join(dir, pat))
		for _, f := range matches {
			os.Remove(f)
		}
	}
}

// Close waits for in-flight background segment compactions to finish.
// The live trace remains usable afterwards; the next publish sees every
// compaction installed. Shutdown paths call it so they leak no
// goroutine or half-written file, and it is how tests wait for a
// compaction: Close after each publish leaves the builder where the
// compaction of that publish's segment has finished.
func (lv *Live) Close() error {
	lv.spillWG.Wait()
	return nil
}

// tailBytesLocked returns the byte size of the unspilled event and
// sample columns.
func (lv *Live) tailBytesLocked() int64 {
	var n int64
	for i := range lv.cpus {
		c := &lv.cpus[i]
		n += c.states.tailBytes() + c.discrete.tailBytes() + c.comm.tailBytes()
	}
	for _, lc := range lv.counters {
		for cpu := range lc.per {
			n += lc.per[cpu].col.tailBytes()
		}
	}
	return n
}

// maybeSpillLocked runs after each publish: freezes the RAM tail into
// a new segment when it exceeds the spill budget, kicks off its
// compaction to disk on a background goroutine, and applies the
// retention budget.
func (lv *Live) maybeSpillLocked() {
	if !lv.ret.enabled() {
		return
	}
	if lv.tailBytesLocked() >= lv.ret.SpillBytes {
		if seg, parts := lv.freezeTailsLocked(); seg != nil {
			// Capture the spill directory under mu: the goroutine
			// outlives this critical section, and ret is guarded.
			dir := lv.ret.Dir
			lv.spillWG.Add(1)
			go func() {
				defer lv.spillWG.Done()
				m, path, err := writeSegment(dir, seg.id, parts)
				lv.mu.Lock()
				lv.installLocked(seg, parts, m, path, err)
				lv.mu.Unlock()
				// Background compaction changes the spill state (Pending,
				// Err) without publishing an epoch: push it so status
				// surfaces do not serve the pre-compaction state forever.
				lv.notifyWatchers(TraceEvent{Epoch: lv.Epoch(), SpillChanged: true})
			}()
		}
	}
	lv.applyRetentionLocked()
}

// segPart is one column's share of a segment: the rows its tail froze,
// which put writes to the segment file and view replaces with their
// mapped copy, and the column install puts that view back in.
type segPart interface {
	put(w *store.Writer) store.Ref
	view(m *store.Mapped, ref store.Ref) error
	install(cpus []liveCPU, seg *spillSeg)
}

// frozenRows is a part's rows.
type frozenRows[T any] struct{ rows []T }

func (f *frozenRows[T]) put(w *store.Writer) store.Ref { return store.Put(w, f.rows) }

func (f *frozenRows[T]) view(m *store.Mapped, ref store.Ref) (err error) {
	f.rows, err = store.View[T](m, ref)
	return err
}

// cpuPart is the part of an event column of CPU slot, which col finds
// in the builder's slots as they are at install: the slot table may
// have grown, and moved, since the freeze.
type cpuPart[T any] struct {
	frozenRows[T]
	slot int
	col  func(cpus []liveCPU, slot int) *liveCol[T]
}

func (p *cpuPart[T]) install(cpus []liveCPU, seg *spillSeg) {
	p.col(cpus, p.slot).install(seg, p.rows)
}

func statesOf(cpus []liveCPU, s int) *liveCol[trace.StateEvent]      { return &cpus[s].states }
func discreteOf(cpus []liveCPU, s int) *liveCol[trace.DiscreteEvent] { return &cpus[s].discrete }
func commOf(cpus []liveCPU, s int) *liveCol[Comm]                    { return &cpus[s].comm }

// samplePart is the part of the sample column of counter lc on CPU
// slot. Its install marks the pair to rebind its trees at the next
// publish.
type samplePart struct {
	frozenRows[Sample]
	lc   *liveCounter
	slot int
}

func (p *samplePart) install(_ []liveCPU, seg *spillSeg) {
	if pair := &p.lc.per[p.slot]; pair.col.install(seg, p.rows) {
		pair.moved = true
	}
}

// freezeTailsLocked freezes every non-empty column tail into a part of
// one new segment — O(columns) slice-header moves, no event is copied —
// and returns the segment and its parts. Returns nil if every column
// was empty.
func (lv *Live) freezeTailsLocked() (*spillSeg, []segPart) {
	seg := &spillSeg{id: lv.segSeq}
	var parts []segPart
	for slot := range lv.cpus {
		c := &lv.cpus[slot]
		if rows := c.states.freeze(seg, stateTime, stateEnd); rows != nil {
			parts = append(parts, &cpuPart[trace.StateEvent]{frozenRows[trace.StateEvent]{rows}, slot, statesOf})
		}
		if rows := c.discrete.freeze(seg, discreteTime, discreteTime); rows != nil {
			parts = append(parts, &cpuPart[trace.DiscreteEvent]{frozenRows[trace.DiscreteEvent]{rows}, slot, discreteOf})
		}
		if rows := c.comm.freeze(seg, commTime, commTime); rows != nil {
			parts = append(parts, &cpuPart[Comm]{frozenRows[Comm]{rows}, slot, commOf})
		}
	}
	for _, lc := range lv.counters {
		for slot := range lc.per {
			if rows := lc.per[slot].col.freeze(seg, sampleTime, sampleTime); rows != nil {
				parts = append(parts, &samplePart{frozenRows[Sample]{rows}, lc, slot})
			}
		}
	}
	if len(parts) == 0 {
		return nil, nil
	}
	if lv.spill == nil {
		lv.spill = &spillState{}
	}
	lv.spill.segs = append(lv.spill.segs, seg)
	lv.spill.pending++
	lv.segSeq++
	return seg, parts
}

// writeSegment writes a frozen segment's parts, in order, into a store
// file (tmp+rename, so no reader meets a torn segment), maps it back
// and turns each part's rows into its mapped view. Only this process
// maps the file, straight after writing it, and SetRetention sweeps
// every other segment from the directory, so the file carries no
// layout of its own — the meta is the refs, which nothing parses — and
// is sealed without a sync: no segment is read after a crash.
func writeSegment(dir string, id int, parts []segPart) (*store.Mapped, string, error) {
	path := filepath.Join(dir, fmt.Sprintf("seg-%06d.atms", id))
	w, err := store.Create(path)
	if err != nil {
		return nil, "", err
	}
	refs := make([]store.Ref, len(parts))
	var enc store.Enc
	for i, p := range parts {
		refs[i] = p.put(w)
		enc.Ref(refs[i])
	}
	if err := w.Seal(enc.Bytes()); err != nil {
		return nil, "", err
	}
	m, err := store.Open(path)
	if err == nil {
		for i, p := range parts {
			if err = p.view(m, refs[i]); err != nil {
				m.Close()
				break
			}
		}
	}
	if err != nil {
		os.Remove(path)
		return nil, "", err
	}
	return m, path, nil
}

// installLocked swaps a compacted segment's heap rows for their mmap
// views, part by part. A segment dropped by retention while compacting
// is deleted again.
func (lv *Live) installLocked(seg *spillSeg, parts []segPart, m *store.Mapped, path string, err error) {
	sp := lv.spill // non-nil: the freeze that made seg created it
	sp.pending--
	if err != nil {
		if sp.err == "" {
			sp.err = err.Error()
		}
		return
	}
	if !slices.Contains(sp.segs, seg) {
		// Aged out while compacting: no snapshot references the
		// mapping, unmap and delete the orphan file.
		m.Close()
		os.Remove(path)
		return
	}
	seg.path = path
	seg.m = m
	for _, p := range parts {
		p.install(lv.cpus, seg)
	}
}

// applyRetentionLocked drops the oldest spilled segments while the
// byte budget is exceeded or their newest event aged past MaxAge.
// Dropped events leave the trace: logical indices shift, so the
// affected incremental indexes (dominance chains, counter trees, comm
// consumption counts) reset and rebuild over the remaining window at
// the next publish. Published snapshots keep the parts they captured —
// their mappings stay valid after the file unlink until released.
func (lv *Live) applyRetentionLocked() {
	sp := lv.spill
	if sp == nil || len(sp.segs) == 0 {
		return
	}
	drop := 0
	spilled := sp.spilledBytes()
	for drop < len(sp.segs) {
		seg := sp.segs[drop]
		over := lv.ret.MaxBytes > 0 && spilled > lv.ret.MaxBytes
		aged := lv.ret.MaxAge > 0 && lv.spanSet && seg.hasTime &&
			seg.maxTime < lv.spanMax-lv.ret.MaxAge
		if !over && !aged {
			break
		}
		spilled -= seg.bytes
		drop++
	}
	if drop == 0 {
		return
	}
	for _, seg := range sp.segs[:drop] {
		sp.droppedSegs++
		sp.droppedBytes += seg.bytes
		if seg.path != "" {
			os.Remove(seg.path)
		}
	}
	sp.segs = append([]*spillSeg(nil), sp.segs[drop:]...)
	keep := lv.segSeq
	if len(sp.segs) > 0 {
		keep = sp.segs[0].id
	}
	for slot := range lv.cpus {
		c := &lv.cpus[slot]
		if c.states.drop(keep) > 0 {
			// Logical state indices shifted: the dominance chain's leaf
			// refs are stale. Rebuild over the remaining window.
			c.dom = domChain{}
		}
		c.discrete.drop(keep)
		c.comm.drop(keep)
	}
	for _, lc := range lv.counters {
		for cpu := range lc.per {
			if p := &lc.per[cpu]; p.col.drop(keep) > 0 {
				p.tree, p.rate, p.treeN = nil, nil, 0
			}
		}
	}
}

// Window searches of one sorted run, which the accessors (core.go)
// hand to Column.win.

// stateWindow is the [lo, hi) index window of the state events of one
// sorted run overlapping [t0, t1); lo can exceed hi on an empty or
// inverted window. StatesIn and DomCPU.scan share it so they visit the
// same events even where overlapping intervals make the search
// approximate.
func stateWindow(s []trace.StateEvent, t0, t1 trace.Time) (lo, hi int) {
	lo = sort.Search(len(s), func(i int) bool { return s[i].End > t0 })
	hi = sort.Search(len(s), func(i int) bool { return s[i].Start >= t1 })
	return lo, hi
}

// discreteWindow, commWindow and sampleWindow are the [lo, hi) index
// windows of the events of one sorted run with time in [t0, t1). hi is
// searched from lo, so lo <= hi on every window, empty and inverted
// ones included. commWindow reads a window ending at MaxInt64 as
// running through it: no later instant exists to stand as the
// exclusive end of a whole-span read, and writes are recorded at task
// completion, which may be MaxInt64.
func discreteWindow(s []trace.DiscreteEvent, t0, t1 trace.Time) (lo, hi int) {
	lo = sort.Search(len(s), func(i int) bool { return s[i].Time >= t0 })
	hi = lo + sort.Search(len(s)-lo, func(i int) bool { return s[lo+i].Time >= t1 })
	return lo, hi
}

func commWindow(s []Comm, t0, t1 trace.Time) (lo, hi int) {
	lo = sort.Search(len(s), func(i int) bool { return s[i].Time >= t0 })
	if t1 == math.MaxInt64 && t0 < t1 {
		return lo, len(s)
	}
	hi = lo + sort.Search(len(s)-lo, func(i int) bool { return s[lo+i].Time >= t1 })
	return lo, hi
}

// commThrough is commWindow over the closed interval [t0, t1], which
// reaches an event at MaxInt64.
func commThrough(s []Comm, t0, t1 trace.Time) (lo, hi int) {
	lo = sort.Search(len(s), func(i int) bool { return s[i].Time >= t0 })
	hi = lo + sort.Search(len(s)-lo, func(i int) bool { return s[lo+i].Time > t1 })
	return lo, hi
}

func sampleWindow(s []Sample, t0, t1 trace.Time) (lo, hi int) {
	lo = sort.Search(len(s), func(i int) bool { return s[i].Time >= t0 })
	hi = lo + sort.Search(len(s)-lo, func(i int) bool { return s[lo+i].Time >= t1 })
	return lo, hi
}

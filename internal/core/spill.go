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
// turning the live trace into a sliding window over the run; a column
// whose producer breaks timestamp order is unspilled — pulled back
// into its tail — because its snapshot repair sorts the whole array. A
// snapshot holds the columns as they are, parts and rows together, and
// every accessor reads a column the one way whether it has parts or
// not.
//
// Concurrency model: all builder mutation happens under Live.mu. A
// published snapshot holds each column as the Column value it had at
// publish, and a column never writes at an index a captured value
// covers (see liveCol), so readers of older epochs never observe a
// mutation. Segment bookkeeping (spillState, spillSeg) is builder
// state read only under the lock; a snapshot carries a copy of the
// counters. What a freeze hands the background writer is a trace
// fragment of its own, holding only the frozen rows.
package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"unsafe"

	"github.com/openstream/aftermath/internal/mmtree"
	"github.com/openstream/aftermath/internal/mragg"
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

// segFormatVersion versions the segment meta layout inside the store
// container (which has its own magic + version). Version 2 lists every
// column of the builder, empty ones included; version 1 listed the
// frozen ones with their CPU and counter.
const segFormatVersion = 2

// layoutHash fingerprints the in-memory layout of every record and
// pyramid node type the store dumps raw, plus the word size. A file
// written by a build with a different field layout (or architecture)
// fails to open instead of misparsing. Endianness is checked separately
// by the store header probe.
func layoutHash() uint64 {
	var se trace.StateEvent
	var de trace.DiscreteEvent
	var ce trace.CommEvent
	var cs trace.CounterSample
	var mr trace.MemRegion
	var ti TaskInfo
	var mn mmtree.Node
	var dn mragg.Node
	h := uint64(1469598103934665603) // FNV-1a offset basis
	mix := func(vs ...uintptr) {
		for _, v := range vs {
			h ^= uint64(v)
			h *= 1099511628211
		}
	}
	mix(unsafe.Sizeof(uintptr(0)))
	mix(unsafe.Sizeof(se), unsafe.Offsetof(se.CPU), unsafe.Offsetof(se.State),
		unsafe.Offsetof(se.Start), unsafe.Offsetof(se.End), unsafe.Offsetof(se.Task))
	mix(unsafe.Sizeof(de), unsafe.Offsetof(de.CPU), unsafe.Offsetof(de.Kind),
		unsafe.Offsetof(de.Time), unsafe.Offsetof(de.Arg))
	mix(unsafe.Sizeof(ce), unsafe.Offsetof(ce.Kind), unsafe.Offsetof(ce.CPU),
		unsafe.Offsetof(ce.SrcCPU), unsafe.Offsetof(ce.Time), unsafe.Offsetof(ce.Task),
		unsafe.Offsetof(ce.Addr), unsafe.Offsetof(ce.Size))
	mix(unsafe.Sizeof(cs), unsafe.Offsetof(cs.CPU), unsafe.Offsetof(cs.Counter),
		unsafe.Offsetof(cs.Time), unsafe.Offsetof(cs.Value))
	mix(unsafe.Sizeof(mr), unsafe.Offsetof(mr.ID), unsafe.Offsetof(mr.Addr),
		unsafe.Offsetof(mr.Size), unsafe.Offsetof(mr.Node))
	mix(unsafe.Sizeof(ti), unsafe.Offsetof(ti.ID), unsafe.Offsetof(ti.Type),
		unsafe.Offsetof(ti.Created), unsafe.Offsetof(ti.CreatorCPU),
		unsafe.Offsetof(ti.ExecCPU), unsafe.Offsetof(ti.ExecStart), unsafe.Offsetof(ti.ExecEnd))
	mix(unsafe.Sizeof(mn), unsafe.Offsetof(mn.Min), unsafe.Offsetof(mn.Max))
	mix(unsafe.Sizeof(dn), unsafe.Offsetof(dn.Max), unsafe.Offsetof(dn.Arg))
	return h
}

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
		if seg, frag := lv.freezeTailsLocked(); seg != nil {
			// Capture the spill directory under mu: the goroutine
			// outlives this critical section, and ret is guarded.
			dir := lv.ret.Dir
			lv.spillWG.Add(1)
			go func() {
				defer lv.spillWG.Done()
				m, view, path, err := writeSegment(dir, seg.id, frag)
				lv.mu.Lock()
				lv.installLocked(seg, m, view, path, err)
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

// freezeTailsLocked freezes every clean, non-empty column tail into a
// part of one new segment — O(columns) slice-header moves, no event is
// copied — and returns the segment and what it froze: a trace fragment
// whose columns hold, as their Rows, the rows each column moved (none
// for a column that froze nothing). Returns nil if nothing was
// freezable (every column empty or dirty).
func (lv *Live) freezeTailsLocked() (*spillSeg, *Trace) {
	seg := &spillSeg{id: lv.segSeq}
	frag := &Trace{CPUs: make([]CPUData, len(lv.cpus))}
	for slot := range lv.cpus {
		c, f := &lv.cpus[slot], &frag.CPUs[slot]
		if s := c.states.freeze(seg); s != nil {
			seg.cover(s[0].Start, s[len(s)-1].End)
			f.States.Rows = s
		}
		if s := c.discrete.freeze(seg); s != nil {
			seg.cover(s[0].Time, s[len(s)-1].Time)
			f.Discrete.Rows = s
		}
		if s := c.comm.freeze(seg); s != nil {
			seg.cover(s[0].Time, s[len(s)-1].Time)
			f.Comm.Rows = s
		}
	}
	for _, lc := range lv.counters {
		fc := &Counter{PerCPU: make([]Column[trace.CounterSample], len(lc.per))}
		for cpu := range lc.per {
			if s := lc.per[cpu].col.freeze(seg); s != nil {
				seg.cover(s[0].Time, s[len(s)-1].Time)
				fc.PerCPU[cpu].Rows = s
			}
		}
		frag.Counters = append(frag.Counters, fc)
	}
	if seg.bytes == 0 {
		return nil, nil
	}
	if lv.spill == nil {
		lv.spill = &spillState{}
	}
	lv.spill.segs = append(lv.spill.segs, seg)
	lv.spill.pending++
	lv.segSeq++
	return seg, frag
}

// writeSegment compacts a frozen segment's columns into a store file
// (tmp+rename, so crashes never leave a torn segment) and maps it
// back, returning the mapped fragment whose columns mirror frag's.
func writeSegment(dir string, id int, frag *Trace) (*store.Mapped, *Trace, string, error) {
	path := filepath.Join(dir, fmt.Sprintf("seg-%06d.atms", id))
	w, err := store.Create(path)
	if err != nil {
		return nil, nil, "", err
	}
	var enc store.Enc
	enc.U64(segFormatVersion)
	enc.U64(layoutHash())
	enc.Int(len(frag.CPUs))
	for i := range frag.CPUs {
		c := &frag.CPUs[i]
		enc.Ref(store.Put(w, c.States.Rows))
		enc.Ref(store.Put(w, c.Discrete.Rows))
		enc.Ref(store.Put(w, c.Comm.Rows))
	}
	enc.Int(len(frag.Counters))
	for _, c := range frag.Counters {
		enc.Int(len(c.PerCPU))
		for cpu := range c.PerCPU {
			enc.Ref(store.Put(w, c.PerCPU[cpu].Rows))
		}
	}
	if err := w.Finish(enc.Bytes()); err != nil {
		return nil, nil, "", err
	}
	m, err := store.Open(path)
	if err != nil {
		os.Remove(path)
		return nil, nil, "", err
	}
	view, err := readSegment(m)
	if err != nil {
		m.Close()
		os.Remove(path)
		return nil, nil, "", err
	}
	return m, view, path, nil
}

// readSegment decodes a segment file's meta into a fragment whose
// columns are views into the mapping.
func readSegment(m *store.Mapped) (*Trace, error) {
	d := store.NewDec(m.Meta())
	if v := d.U64(); d.Err() == nil && v != segFormatVersion {
		return nil, fmt.Errorf("store: unsupported segment format version %d", v)
	}
	if h := d.U64(); d.Err() == nil && h != layoutHash() {
		return nil, fmt.Errorf("store: segment written with an incompatible event layout")
	}
	frag := &Trace{}
	n := d.Int()
	for i := 0; i < n && d.Err() == nil; i++ {
		var c CPUData
		var err error
		if c.States.Rows, err = store.View[trace.StateEvent](m, d.Ref()); err != nil {
			return nil, err
		}
		if c.Discrete.Rows, err = store.View[trace.DiscreteEvent](m, d.Ref()); err != nil {
			return nil, err
		}
		if c.Comm.Rows, err = store.View[trace.CommEvent](m, d.Ref()); err != nil {
			return nil, err
		}
		frag.CPUs = append(frag.CPUs, c)
	}
	n = d.Int()
	for i := 0; i < n && d.Err() == nil; i++ {
		c := &Counter{}
		for k := d.Int(); k > 0 && d.Err() == nil; k-- {
			rows, err := store.View[trace.CounterSample](m, d.Ref())
			if err != nil {
				return nil, err
			}
			c.PerCPU = append(c.PerCPU, Column[trace.CounterSample]{Rows: rows})
		}
		frag.Counters = append(frag.Counters, c)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return frag, nil
}

// installLocked swaps a compacted segment's heap rows for their mmap
// views, column by column. A segment dropped by retention while
// compacting is deleted again.
func (lv *Live) installLocked(seg *spillSeg, m *store.Mapped, view *Trace, path string, err error) {
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
	// view was read back from a file, so its shape is checked against
	// the builder's tables, which only grow, rather than trusted.
	for slot := range min(len(view.CPUs), len(lv.cpus)) {
		c, v := &lv.cpus[slot], &view.CPUs[slot]
		c.states.install(seg, v.States.Rows)
		c.discrete.install(seg, v.Discrete.Rows)
		c.comm.install(seg, v.Comm.Rows)
	}
	for ci := range min(len(view.Counters), len(lv.counters)) {
		vc, per := view.Counters[ci], lv.counters[ci].per
		for cpu := range min(len(vc.PerCPU), len(per)) {
			if per[cpu].col.install(seg, vc.PerCPU[cpu].Rows) {
				per[cpu].moved = true
			}
		}
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

func commWindow(s []trace.CommEvent, t0, t1 trace.Time) (lo, hi int) {
	lo = sort.Search(len(s), func(i int) bool { return s[i].Time >= t0 })
	if t1 == math.MaxInt64 && t0 < t1 {
		return lo, len(s)
	}
	hi = lo + sort.Search(len(s)-lo, func(i int) bool { return s[lo+i].Time >= t1 })
	return lo, hi
}

// commThrough is commWindow over the closed interval [t0, t1], which
// reaches an event at MaxInt64.
func commThrough(s []trace.CommEvent, t0, t1 trace.Time) (lo, hi int) {
	lo = sort.Search(len(s), func(i int) bool { return s[i].Time >= t0 })
	hi = lo + sort.Search(len(s)-lo, func(i int) bool { return s[lo+i].Time > t1 })
	return lo, hi
}

func sampleWindow(s []trace.CounterSample, t0, t1 trace.Time) (lo, hi int) {
	lo = sort.Search(len(s), func(i int) bool { return s[i].Time >= t0 })
	hi = lo + sort.Search(len(s)-lo, func(i int) bool { return s[lo+i].Time >= t1 })
	return lo, hi
}

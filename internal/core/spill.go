// Epoch spilling: bounded-memory live ingest.
//
// A long-lived -follow session accumulates per-CPU event arrays and
// counter samples without bound. Spilling moves frozen epoch ranges —
// the clean, already-published prefixes of each column — out of the
// builder's RAM tail into mmap-backed columnar segment files
// (internal/store), so the hot tail stays small while reads stitch the
// spilled columns and the RAM tail behind the unchanged Trace snapshot
// interface. Aged-out segments are dropped under a configurable
// byte/age budget (RetentionPolicy), turning the live trace into a
// sliding window over the run.
//
// Concurrency model: all builder mutation happens under Live.mu.
// Published snapshots hold an immutable *frozenTrace; every change to
// the frozen state (freeze, install, drop, unspill) clones it first
// (copy-on-write of the slice spines — the event columns themselves
// are shared), so readers of older epochs never observe a mutation.
// Segment files are written by a background goroutine; the install
// step swaps the heap columns for the mapped views under the lock, and
// the heap copies die with the snapshots that reference them.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"unsafe"

	"github.com/openstream/aftermath/internal/mmtree"
	"github.com/openstream/aftermath/internal/mragg"
	"github.com/openstream/aftermath/internal/store"
	"github.com/openstream/aftermath/internal/trace"
)

// RetentionPolicy bounds the memory of a long-lived Live trace. The
// zero value disables spilling entirely (the pre-spilling behavior:
// everything stays in RAM forever).
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
	// Sync compacts segments synchronously inside Publish instead of
	// on a background goroutine. Deterministic; meant for tests.
	Sync bool
}

func (p RetentionPolicy) enabled() bool { return p.Dir != "" && p.SpillBytes > 0 }

// Per-element byte sizes of the spillable columns, as stored (raw
// in-memory layout).
const (
	stateEventBytes    = int64(unsafe.Sizeof(trace.StateEvent{}))
	discreteEventBytes = int64(unsafe.Sizeof(trace.DiscreteEvent{}))
	commEventBytes     = int64(unsafe.Sizeof(trace.CommEvent{}))
	counterSampleBytes = int64(unsafe.Sizeof(trace.CounterSample{}))
)

// segFormatVersion versions the segment meta layout inside the store
// container (which has its own magic + version).
const segFormatVersion = 1

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

// spillSeg is one frozen epoch range: the columns moved out of the RAM
// tail together at one publish. Its fields are written only under
// Live.mu; snapshot readers never touch them (they read the
// frozenTrace aggregates instead).
type spillSeg struct {
	id      int
	bytes   int64
	records int64
	// minTime/maxTime approximate the segment's time range (from the
	// first/last event of each moved column); used by age retention.
	minTime trace.Time
	maxTime trace.Time
	hasTime bool
	// path and m are set once the background compaction installs the
	// written file; until then the columns are heap-backed.
	path string
	m    *store.Mapped
}

// frozenCPU holds one CPU's spilled columns, one entry per segment,
// aligned with frozenTrace.segs. A nil entry means the segment carried
// nothing for this (cpu, family).
type frozenCPU struct {
	states   [][]trace.StateEvent
	discrete [][]trace.DiscreteEvent
	comm     [][]trace.CommEvent
}

// frozenTrace is the immutable spilled portion of a live trace. A
// published snapshot references one; every mutation goes through
// clone, so the spines below are never written after publication. The
// event columns themselves are shared between generations (and swap
// from heap to mmap backing on install, in a fresh clone).
type frozenTrace struct {
	segs []*spillSeg
	cpus []frozenCPU
	// samples[counter][cpu][seg] holds the spilled sample columns, in
	// counter-table order.
	samples [][][][]trace.CounterSample

	spilledBytes int64
	pending      int // segments frozen but not yet compacted to disk
	droppedSegs  int
	droppedBytes int64
	spillErr     string // first compaction failure, sticky
}

func (f *frozenTrace) clone() *frozenTrace {
	nf := &frozenTrace{
		segs:         append([]*spillSeg(nil), f.segs...),
		cpus:         make([]frozenCPU, len(f.cpus)),
		samples:      make([][][][]trace.CounterSample, len(f.samples)),
		spilledBytes: f.spilledBytes,
		pending:      f.pending,
		droppedSegs:  f.droppedSegs,
		droppedBytes: f.droppedBytes,
		spillErr:     f.spillErr,
	}
	for i := range f.cpus {
		nf.cpus[i] = frozenCPU{
			states:   append([][]trace.StateEvent(nil), f.cpus[i].states...),
			discrete: append([][]trace.DiscreteEvent(nil), f.cpus[i].discrete...),
			comm:     append([][]trace.CommEvent(nil), f.cpus[i].comm...),
		}
	}
	for i := range f.samples {
		rows := make([][][]trace.CounterSample, len(f.samples[i]))
		for cpu := range f.samples[i] {
			rows[cpu] = append([][]trace.CounterSample(nil), f.samples[i][cpu]...)
		}
		nf.samples[i] = rows
	}
	return nf
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
	f := tr.frozen
	if f == nil {
		return SpillStats{}, false
	}
	return SpillStats{
		Segments:     len(f.segs),
		SpilledBytes: f.spilledBytes,
		Pending:      f.pending,
		DroppedSegs:  f.droppedSegs,
		DroppedBytes: f.droppedBytes,
		Err:          f.spillErr,
	}, true
}

// EventCounts returns the trace's total event count (states, discrete,
// communication) and counter sample count, spilled columns included.
func (tr *Trace) EventCounts() (events, samples int64) {
	for i := range tr.CPUs {
		c := &tr.CPUs[i]
		events += int64(len(c.States) + len(c.Discrete) + len(c.Comm))
	}
	if tr.frozen != nil {
		for i := range tr.frozen.cpus {
			fc := &tr.frozen.cpus[i]
			for _, s := range fc.states {
				events += int64(len(s))
			}
			for _, s := range fc.discrete {
				events += int64(len(s))
			}
			for _, s := range fc.comm {
				events += int64(len(s))
			}
		}
	}
	for _, c := range tr.Counters {
		for cpu := range c.PerCPU {
			samples += int64(len(c.PerCPU[cpu]))
		}
		for _, row := range c.frozen {
			for _, s := range row {
				samples += int64(len(s))
			}
		}
	}
	return events, samples
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

// stitchWin collects the window slices of time-ordered column segments
// plus the RAM tail into one slice: zero-copy when the window touches
// a single part (the overwhelmingly common case — viewer windows are
// small), a copy-concat when it crosses a segment boundary. win
// returns the [lo, hi) window of one sorted part. Returns nil for an
// empty window.
func stitchWin[T any](segs [][]T, tail []T, win func([]T) (int, int)) []T {
	var single []T
	var parts [][]T
	total := 0
	add := func(s []T) {
		if len(s) == 0 {
			return
		}
		lo, hi := win(s)
		if lo >= hi {
			return
		}
		p := s[lo:hi]
		switch {
		case total == 0:
			single = p
		case parts == nil:
			parts = [][]T{single, p}
		default:
			parts = append(parts, p)
		}
		total += len(p)
	}
	for _, s := range segs {
		add(s)
	}
	add(tail)
	if parts == nil {
		return single
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// frozenFor returns the spilled columns of a CPU, or nil.
func (tr *Trace) frozenFor(cpu int32) *frozenCPU {
	if tr.frozen == nil || int(cpu) >= len(tr.frozen.cpus) {
		return nil
	}
	return &tr.frozen.cpus[cpu]
}

// NumSamples returns the counter's sample count on a CPU, spilled
// columns included.
func (c *Counter) NumSamples(cpu int32) int {
	n := 0
	if int(cpu) < len(c.PerCPU) {
		n = len(c.PerCPU[cpu])
	}
	if int(cpu) < len(c.frozen) {
		for _, s := range c.frozen[cpu] {
			n += len(s)
		}
	}
	return n
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
// The live trace remains usable afterwards; Close exists so tests and
// shutdown paths do not leak goroutines or half-written files.
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
		n += int64(len(c.States))*stateEventBytes +
			int64(len(c.Discrete))*discreteEventBytes +
			int64(len(c.Comm))*commEventBytes
	}
	for _, lc := range lv.counters {
		for cpu := range lc.c.PerCPU {
			n += int64(len(lc.c.PerCPU[cpu])) * counterSampleBytes
		}
	}
	return n
}

// maybeSpillLocked runs after each publish: freezes the RAM tail into
// a new segment when it exceeds the spill budget, kicks off (or, under
// Sync, runs) its compaction to disk, and applies the retention
// budget.
func (lv *Live) maybeSpillLocked() {
	if !lv.ret.enabled() {
		return
	}
	if lv.tailBytesLocked() >= lv.ret.SpillBytes {
		if seg, p := lv.freezeTailsLocked(); seg != nil {
			if lv.ret.Sync {
				m, vp, path, err := writeSegment(lv.ret.Dir, seg.id, p)
				lv.installLocked(seg, m, vp, path, err)
				lv.notifyWatchers(TraceEvent{Epoch: lv.snap.Load().epoch, SpillChanged: true})
			} else {
				// Capture the spill directory under mu: the goroutine
				// outlives this critical section, and ret is guarded.
				dir := lv.ret.Dir
				lv.spillWG.Add(1)
				go func() {
					defer lv.spillWG.Done()
					m, vp, path, err := writeSegment(dir, seg.id, p)
					lv.mu.Lock()
					lv.installLocked(seg, m, vp, path, err)
					lv.mu.Unlock()
					// Background compaction changes the spill state (Pending,
					// Err) without publishing an epoch: push it so status
					// surfaces do not serve the pre-compaction state forever.
					lv.notifyWatchers(TraceEvent{Epoch: lv.Epoch(), SpillChanged: true})
				}()
			}
		}
	}
	lv.applyRetentionLocked()
}

// padTo pads a per-segment column list with nil entries up to n, so
// lists of CPUs/counters that appeared after earlier segments stay
// aligned with the segment list.
func padTo[T any](lists [][]T, n int) [][]T {
	for len(lists) < n {
		lists = append(lists, nil)
	}
	return lists
}

// ensureFrozenLocked returns a fresh frozen generation grown to the
// current CPU and counter table sizes.
func (lv *Live) ensureFrozenLocked() *frozenTrace {
	var f *frozenTrace
	if lv.frozen == nil {
		f = &frozenTrace{}
	} else {
		f = lv.frozen.clone()
	}
	nseg := len(f.segs)
	for len(f.cpus) < len(lv.cpus) {
		f.cpus = append(f.cpus, frozenCPU{
			states:   make([][]trace.StateEvent, nseg),
			discrete: make([][]trace.DiscreteEvent, nseg),
			comm:     make([][]trace.CommEvent, nseg),
		})
	}
	for len(f.samples) < len(lv.counters) {
		f.samples = append(f.samples, nil)
	}
	for ci, lc := range lv.counters {
		rows := f.samples[ci]
		for len(rows) < len(lc.c.PerCPU) {
			row := make([][]trace.CounterSample, nseg)
			rows = append(rows, row)
		}
		f.samples[ci] = rows
	}
	return f
}

// segPayload lists the columns of one segment, for the compaction
// writer (heap slices going in, mmap views coming back out).
type segPayload struct {
	cpus    []segCPU
	samples []segSamples
}

type segCPU struct {
	cpu      int32
	states   []trace.StateEvent
	discrete []trace.DiscreteEvent
	comm     []trace.CommEvent
}

type segSamples struct {
	counter int // counter table index
	cpu     int32
	samples []trace.CounterSample
}

// freezeTailsLocked moves every clean, non-empty RAM tail column into
// a new frozen segment — O(columns) slice-header moves, no event is
// copied — and returns the segment and its compaction payload. Dirty
// families (out-of-order producers) never freeze: their repair path
// needs the whole array in RAM. Returns nil if nothing was freezable.
func (lv *Live) freezeTailsLocked() (*spillSeg, *segPayload) {
	f := lv.ensureFrozenLocked()
	seg := &spillSeg{id: lv.segSeq}
	p := &segPayload{}
	idx := len(f.segs)
	grow := func(ts ...trace.Time) {
		for _, t := range ts {
			if !seg.hasTime || t < seg.minTime {
				seg.minTime = t
			}
			if !seg.hasTime || t > seg.maxTime {
				seg.maxTime = t
			}
			seg.hasTime = true
		}
	}
	for cpu := range lv.cpus {
		c := &lv.cpus[cpu]
		o := &lv.order[cpu]
		fc := &f.cpus[cpu]
		fc.states = padTo(fc.states, idx)
		fc.discrete = padTo(fc.discrete, idx)
		fc.comm = padTo(fc.comm, idx)
		sc := segCPU{cpu: int32(cpu)}
		if s := c.States; !o.stateDirty && len(s) > 0 {
			fc.states = append(fc.states, s)
			o.nStateF += len(s)
			c.States = nil
			seg.records += int64(len(s))
			seg.bytes += int64(len(s)) * stateEventBytes
			grow(s[0].Start, s[len(s)-1].End)
			sc.states = s
		} else {
			fc.states = append(fc.states, nil)
		}
		if s := c.Discrete; !o.discreteDirty && len(s) > 0 {
			fc.discrete = append(fc.discrete, s)
			o.nDiscreteF += len(s)
			c.Discrete = nil
			seg.records += int64(len(s))
			seg.bytes += int64(len(s)) * discreteEventBytes
			grow(s[0].Time, s[len(s)-1].Time)
			sc.discrete = s
		} else {
			fc.discrete = append(fc.discrete, nil)
		}
		if s := c.Comm; !o.commDirty && len(s) > 0 {
			fc.comm = append(fc.comm, s)
			o.nCommF += len(s)
			c.Comm = nil
			seg.records += int64(len(s))
			seg.bytes += int64(len(s)) * commEventBytes
			grow(s[0].Time, s[len(s)-1].Time)
			sc.comm = s
		} else {
			fc.comm = append(fc.comm, nil)
		}
		if sc.states != nil || sc.discrete != nil || sc.comm != nil {
			p.cpus = append(p.cpus, sc)
		}
	}
	for ci, lc := range lv.counters {
		rows := f.samples[ci]
		for cpu := range lc.c.PerCPU {
			rows[cpu] = padTo(rows[cpu], idx)
			if s := lc.c.PerCPU[cpu]; !lc.dirty[cpu] && len(s) > 0 {
				rows[cpu] = append(rows[cpu], s)
				lc.fsamp[cpu] += len(s)
				lc.c.PerCPU[cpu] = nil
				seg.records += int64(len(s))
				seg.bytes += int64(len(s)) * counterSampleBytes
				grow(s[0].Time, s[len(s)-1].Time)
				p.samples = append(p.samples, segSamples{counter: ci, cpu: int32(cpu), samples: s})
			} else {
				rows[cpu] = append(rows[cpu], nil)
			}
		}
		f.samples[ci] = rows
	}
	if seg.bytes == 0 {
		// Nothing freezable: every column is empty or dirty. The clone
		// is discarded, so the published generation keeps its segment
		// alignment. (No builder state was touched: counts only moved
		// together with a column.)
		return nil, nil
	}
	f.segs = append(f.segs, seg)
	f.spilledBytes += seg.bytes
	f.pending++
	lv.frozen = f
	lv.segSeq++
	return seg, p
}

// writeSegment compacts a frozen segment's columns into a store file
// (tmp+rename, so crashes never leave a torn segment) and maps it
// back, returning the mapped payload whose slices mirror p's.
func writeSegment(dir string, id int, p *segPayload) (*store.Mapped, *segPayload, string, error) {
	path := filepath.Join(dir, fmt.Sprintf("seg-%06d.atms", id))
	w, err := store.Create(path)
	if err != nil {
		return nil, nil, "", err
	}
	var enc store.Enc
	enc.U64(segFormatVersion)
	enc.U64(layoutHash())
	enc.Int(len(p.cpus))
	for i := range p.cpus {
		sc := &p.cpus[i]
		enc.I64(int64(sc.cpu))
		enc.Ref(store.Put(w, sc.states))
		enc.Ref(store.Put(w, sc.discrete))
		enc.Ref(store.Put(w, sc.comm))
	}
	enc.Int(len(p.samples))
	for i := range p.samples {
		ss := &p.samples[i]
		enc.Int(ss.counter)
		enc.I64(int64(ss.cpu))
		enc.Ref(store.Put(w, ss.samples))
	}
	if err := w.Finish(enc.Bytes()); err != nil {
		return nil, nil, "", err
	}
	m, err := store.Open(path)
	if err != nil {
		os.Remove(path)
		return nil, nil, "", err
	}
	vp, err := readSegment(m)
	if err != nil {
		m.Close()
		os.Remove(path)
		return nil, nil, "", err
	}
	return m, vp, path, nil
}

// readSegment decodes a segment file's meta into views of its columns.
func readSegment(m *store.Mapped) (*segPayload, error) {
	d := store.NewDec(m.Meta())
	if v := d.U64(); d.Err() == nil && v != segFormatVersion {
		return nil, fmt.Errorf("store: unsupported segment format version %d", v)
	}
	if h := d.U64(); d.Err() == nil && h != layoutHash() {
		return nil, fmt.Errorf("store: segment written with an incompatible event layout")
	}
	p := &segPayload{}
	n := d.Int()
	for i := 0; i < n && d.Err() == nil; i++ {
		var sc segCPU
		sc.cpu = int32(d.I64())
		var err error
		if sc.states, err = store.View[trace.StateEvent](m, d.Ref()); err != nil {
			return nil, err
		}
		if sc.discrete, err = store.View[trace.DiscreteEvent](m, d.Ref()); err != nil {
			return nil, err
		}
		if sc.comm, err = store.View[trace.CommEvent](m, d.Ref()); err != nil {
			return nil, err
		}
		p.cpus = append(p.cpus, sc)
	}
	n = d.Int()
	for i := 0; i < n && d.Err() == nil; i++ {
		var ss segSamples
		ss.counter = d.Int()
		ss.cpu = int32(d.I64())
		var err error
		if ss.samples, err = store.View[trace.CounterSample](m, d.Ref()); err != nil {
			return nil, err
		}
		p.samples = append(p.samples, ss)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// installLocked swaps a compacted segment's heap columns for its mmap
// views, in a fresh frozen generation (published snapshots keep the
// heap backing until released). Columns an unspill pulled back to the
// RAM tail meanwhile (nil entries) stay nil; a segment dropped by
// retention while compacting is deleted again.
func (lv *Live) installLocked(seg *spillSeg, m *store.Mapped, vp *segPayload, path string, err error) {
	if lv.frozen == nil {
		if m != nil {
			m.Close()
			os.Remove(path)
		}
		return
	}
	f := lv.frozen.clone()
	f.pending--
	idx := -1
	for i, s := range f.segs {
		if s == seg {
			idx = i
			break
		}
	}
	if err != nil {
		if f.spillErr == "" {
			f.spillErr = err.Error()
		}
		lv.frozen = f
		return
	}
	if idx < 0 {
		// Aged out while compacting: no snapshot references the
		// mapping, unmap and delete the orphan file.
		m.Close()
		os.Remove(path)
		lv.frozen = f
		return
	}
	seg.path = path
	seg.m = m
	for _, sc := range vp.cpus {
		if int(sc.cpu) >= len(f.cpus) {
			continue
		}
		fc := &f.cpus[sc.cpu]
		if sc.states != nil && idx < len(fc.states) && fc.states[idx] != nil {
			fc.states[idx] = sc.states
		}
		if sc.discrete != nil && idx < len(fc.discrete) && fc.discrete[idx] != nil {
			fc.discrete[idx] = sc.discrete
		}
		if sc.comm != nil && idx < len(fc.comm) && fc.comm[idx] != nil {
			fc.comm[idx] = sc.comm
		}
	}
	for _, ss := range vp.samples {
		if ss.counter >= len(f.samples) {
			continue
		}
		rows := f.samples[ss.counter]
		if int(ss.cpu) < len(rows) && idx < len(rows[ss.cpu]) && rows[ss.cpu][idx] != nil && ss.samples != nil {
			rows[ss.cpu][idx] = ss.samples
		}
	}
	lv.frozen = f
}

// applyRetentionLocked drops the oldest spilled segments while the
// byte budget is exceeded or their newest event aged past MaxAge.
// Dropped events leave the trace: logical indices shift, so the
// affected incremental indexes (dominance chains, counter trees, comm
// consumption counts) reset and rebuild over the remaining window at
// the next publish. Published snapshots keep their generation — their
// mappings stay valid after the file unlink until released.
func (lv *Live) applyRetentionLocked() {
	f := lv.frozen
	if f == nil || len(f.segs) == 0 {
		return
	}
	drop := 0
	spilled := f.spilledBytes
	for drop < len(f.segs) {
		seg := f.segs[drop]
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
	nf := f.clone()
	for i := 0; i < drop; i++ {
		seg := nf.segs[i]
		nf.droppedSegs++
		nf.droppedBytes += seg.bytes
		if seg.path != "" {
			os.Remove(seg.path)
		}
	}
	nf.segs = nf.segs[drop:]
	nf.spilledBytes = spilled
	droppedComm := false
	for cpu := range nf.cpus {
		fc := &nf.cpus[cpu]
		o := &lv.order[cpu]
		droppedStates := false
		for i := 0; i < drop; i++ {
			if i < len(fc.states) && len(fc.states[i]) > 0 {
				o.nStateF -= len(fc.states[i])
				droppedStates = true
			}
			if i < len(fc.discrete) {
				o.nDiscreteF -= len(fc.discrete[i])
			}
			if i < len(fc.comm) && len(fc.comm[i]) > 0 {
				n := len(fc.comm[i])
				o.nCommF -= n
				if cpu < len(lv.commN) {
					lv.commN[cpu] -= n
				}
				droppedComm = true
			}
		}
		fc.states = dropSegs(fc.states, drop)
		fc.discrete = dropSegs(fc.discrete, drop)
		fc.comm = dropSegs(fc.comm, drop)
		if droppedStates {
			// Logical state indices shifted: the dominance chain's leaf
			// refs are stale. Rebuild over the remaining window.
			lv.doms[cpu] = domChain{}
		}
	}
	if droppedComm {
		// The communication totals included the dropped events; force
		// a rebuild over the retained window at the next publish.
		lv.commTot = nil
	}
	for ci := range nf.samples {
		lc := lv.counters[ci]
		for cpu := range nf.samples[ci] {
			row := nf.samples[ci][cpu]
			removed := 0
			for i := 0; i < drop && i < len(row); i++ {
				removed += len(row[i])
			}
			nf.samples[ci][cpu] = dropSegs(row, drop)
			if removed > 0 && cpu < len(lc.fsamp) {
				lc.fsamp[cpu] -= removed
				lc.trees[cpu], lc.rateTrees[cpu], lc.treeN[cpu] = nil, nil, 0
			}
		}
	}
	lv.frozen = nf
}

// dropSegs removes the first drop per-segment entries of a column
// list, tolerating lists shorter than the segment list (never grown
// past their last freeze).
func dropSegs[T any](lists [][]T, drop int) [][]T {
	if drop >= len(lists) {
		return lists[:0]
	}
	return lists[drop:]
}

// --- unspill: pulling frozen columns back into the RAM tail ---
//
// A family that goes dirty (an out-of-order producer) is repaired at
// snapshot time by sorting the whole array — which requires the whole
// array in RAM. The moment a family transitions to dirty, its frozen
// columns are concatenated back in front of the RAM tail and the
// frozen entries nil out (in a fresh generation); dirty families never
// freeze again, so this happens at most once per family.

func (lv *Live) unspillStatesLocked(cpu int32) {
	o := &lv.order[cpu]
	if o.nStateF == 0 || lv.frozen == nil {
		return
	}
	f := lv.frozen.clone()
	fc := &f.cpus[cpu]
	merged := make([]trace.StateEvent, 0, o.nStateF+len(lv.cpus[cpu].States))
	for si, s := range fc.states {
		if len(s) > 0 {
			merged = append(merged, s...)
			delta := int64(len(s)) * stateEventBytes
			f.segs[si].records -= int64(len(s))
			f.segs[si].bytes -= delta
			f.spilledBytes -= delta
		}
		fc.states[si] = nil
	}
	lv.cpus[cpu].States = append(merged, lv.cpus[cpu].States...)
	o.nStateF = 0
	lv.frozen = f
}

func (lv *Live) unspillDiscreteLocked(cpu int32) {
	o := &lv.order[cpu]
	if o.nDiscreteF == 0 || lv.frozen == nil {
		return
	}
	f := lv.frozen.clone()
	fc := &f.cpus[cpu]
	merged := make([]trace.DiscreteEvent, 0, o.nDiscreteF+len(lv.cpus[cpu].Discrete))
	for si, s := range fc.discrete {
		if len(s) > 0 {
			merged = append(merged, s...)
			delta := int64(len(s)) * discreteEventBytes
			f.segs[si].records -= int64(len(s))
			f.segs[si].bytes -= delta
			f.spilledBytes -= delta
		}
		fc.discrete[si] = nil
	}
	lv.cpus[cpu].Discrete = append(merged, lv.cpus[cpu].Discrete...)
	o.nDiscreteF = 0
	lv.frozen = f
}

func (lv *Live) unspillCommLocked(cpu int32) {
	o := &lv.order[cpu]
	if o.nCommF == 0 || lv.frozen == nil {
		return
	}
	f := lv.frozen.clone()
	fc := &f.cpus[cpu]
	merged := make([]trace.CommEvent, 0, o.nCommF+len(lv.cpus[cpu].Comm))
	for si, s := range fc.comm {
		if len(s) > 0 {
			merged = append(merged, s...)
			delta := int64(len(s)) * commEventBytes
			f.segs[si].records -= int64(len(s))
			f.segs[si].bytes -= delta
			f.spilledBytes -= delta
		}
		fc.comm[si] = nil
	}
	lv.cpus[cpu].Comm = append(merged, lv.cpus[cpu].Comm...)
	o.nCommF = 0
	lv.frozen = f
}

func (lv *Live) unspillSamplesLocked(ci int, cpu int32) {
	lc := lv.counters[ci]
	if int(cpu) >= len(lc.fsamp) || lc.fsamp[cpu] == 0 || lv.frozen == nil ||
		ci >= len(lv.frozen.samples) || int(cpu) >= len(lv.frozen.samples[ci]) {
		return
	}
	f := lv.frozen.clone()
	row := f.samples[ci][cpu]
	merged := make([]trace.CounterSample, 0, lc.fsamp[cpu]+len(lc.c.PerCPU[cpu]))
	for si, s := range row {
		if len(s) > 0 {
			merged = append(merged, s...)
			delta := int64(len(s)) * counterSampleBytes
			f.segs[si].records -= int64(len(s))
			f.segs[si].bytes -= delta
			f.spilledBytes -= delta
		}
		row[si] = nil
	}
	lc.c.PerCPU[cpu] = append(merged, lc.c.PerCPU[cpu]...)
	lc.fsamp[cpu] = 0
	lv.frozen = f
}

// --- logical views for the incremental index extenders ---

// stateWindowLocked gathers the logical state events [from, total) of
// a CPU — frozen columns first, then the RAM tail. Zero-copy while the
// window lies entirely in the tail (the steady state: the extenders
// only ever ask for the newly appended suffix); a drop-triggered
// rebuild re-gathers the remaining frozen window once.
func (lv *Live) stateWindowLocked(cpu, from int) []trace.StateEvent {
	o := &lv.order[cpu]
	tail := lv.cpus[cpu].States
	if from >= o.nStateF {
		return tail[from-o.nStateF:]
	}
	out := make([]trace.StateEvent, 0, o.nStateF+len(tail)-from)
	at := 0
	if lv.frozen != nil && cpu < len(lv.frozen.cpus) {
		for _, s := range lv.frozen.cpus[cpu].states {
			if at+len(s) <= from {
				at += len(s)
				continue
			}
			start := 0
			if from > at {
				start = from - at
			}
			out = append(out, s[start:]...)
			at += len(s)
		}
	}
	return append(out, tail...)
}

// sampleWindowLocked gathers the logical samples [from, total) of a
// (counter, cpu) pair, like stateWindowLocked.
func (lv *Live) sampleWindowLocked(ci int, cpu, from int) []trace.CounterSample {
	lc := lv.counters[ci]
	tail := lc.c.PerCPU[cpu]
	nf := 0
	if cpu < len(lc.fsamp) {
		nf = lc.fsamp[cpu]
	}
	if from >= nf {
		return tail[from-nf:]
	}
	out := make([]trace.CounterSample, 0, nf+len(tail)-from)
	at := 0
	if lv.frozen != nil && ci < len(lv.frozen.samples) && cpu < len(lv.frozen.samples[ci]) {
		for _, s := range lv.frozen.samples[ci][cpu] {
			if at+len(s) <= from {
				at += len(s)
				continue
			}
			start := 0
			if from > at {
				start = from - at
			}
			out = append(out, s[start:]...)
			at += len(s)
		}
	}
	return append(out, tail...)
}

// stateSegViewLocked returns the non-empty state columns of a CPU in
// logical order (frozen segments, then the given RAM tail) with their
// cumulative start offsets, for seeding a snapshot's segmented
// dominance entry.
func (lv *Live) stateSegViewLocked(cpu int, tail []trace.StateEvent) (segs [][]trace.StateEvent, cum []int) {
	at := 0
	if lv.frozen != nil && cpu < len(lv.frozen.cpus) {
		for _, s := range lv.frozen.cpus[cpu].states {
			if len(s) == 0 {
				continue
			}
			segs = append(segs, s)
			cum = append(cum, at)
			at += len(s)
		}
	}
	if len(tail) > 0 {
		segs = append(segs, tail)
		cum = append(cum, at)
	}
	return segs, cum
}

// Window search helpers shared by the stitched accessors (core.go).

func stateWin(t0, t1 trace.Time) func([]trace.StateEvent) (int, int) {
	return func(s []trace.StateEvent) (int, int) {
		lo := sort.Search(len(s), func(i int) bool { return s[i].End > t0 })
		hi := sort.Search(len(s), func(i int) bool { return s[i].Start >= t1 })
		return lo, hi
	}
}

func discreteWin(t0, t1 trace.Time) func([]trace.DiscreteEvent) (int, int) {
	return func(s []trace.DiscreteEvent) (int, int) {
		lo := sort.Search(len(s), func(i int) bool { return s[i].Time >= t0 })
		hi := sort.Search(len(s), func(i int) bool { return s[i].Time >= t1 })
		return lo, hi
	}
}

func commWin(t0, t1 trace.Time) func([]trace.CommEvent) (int, int) {
	return func(s []trace.CommEvent) (int, int) {
		lo := sort.Search(len(s), func(i int) bool { return s[i].Time >= t0 })
		hi := sort.Search(len(s), func(i int) bool { return s[i].Time >= t1 })
		return lo, hi
	}
}

func sampleWin(t0, t1 trace.Time) func([]trace.CounterSample) (int, int) {
	return func(s []trace.CounterSample) (int, int) {
		lo := sort.Search(len(s), func(i int) bool { return s[i].Time >= t0 })
		hi := sort.Search(len(s), func(i int) bool { return s[i].Time >= t1 })
		return lo, hi
	}
}

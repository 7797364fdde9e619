package core

import (
	"fmt"
	"unsafe"

	"github.com/openstream/aftermath/internal/agg"
	"github.com/openstream/aftermath/internal/mmtree"
	"github.com/openstream/aftermath/internal/mragg"
	"github.com/openstream/aftermath/internal/store"
	"github.com/openstream/aftermath/internal/trace"
)

// snapshotFormatVersion is the columnar snapshot meta layout version.
// Segment files (spill.go) carry no version: only the process that
// wrote one maps it. Every index is stored as what it owns, never a
// copy of the events it indexes: a dominance set as per CPU the
// all-states pyramid, per worker state refs, cover prefix sums and
// pyramid (since version 3; version 2 also dumped every state's start
// and end, twice); a counter's value tree as its pyramid and its rate
// tree as its rates and pyramid (since version 4; version 3 also
// dumped every sample's time and value, twice). Every pyramid level
// holds complete blocks only (since version 5; version 4 also stored
// the node of each level's partial tail block). OpenStore binds them
// to the mapped columns they index. Per-CPU tables are stored by row,
// and the CPU ids, one per row, as a column of their own; every
// counter has one sample column per row (since version 6; version 5
// stored one entry per id up to the largest). A communication event is
// stored without its CPU and a sample without its counter and CPU, the
// keys their column implies (since version 7; version 6 stored the
// trace records whole).
// Older snapshots must be re-saved from their source trace.
const snapshotFormatVersion = 7

// layoutHash fingerprints the in-memory layout of every record and
// pyramid node type the store dumps raw, plus the word size. A file
// written by a build with a different field layout (or architecture)
// fails to open instead of misparsing. Endianness is checked separately
// by the store header probe.
func layoutHash() uint64 {
	var se trace.StateEvent
	var de trace.DiscreteEvent
	var ce Comm
	var cs Sample
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
	mix(unsafe.Sizeof(ce), unsafe.Offsetof(ce.Kind),
		unsafe.Offsetof(ce.SrcCPU), unsafe.Offsetof(ce.Time), unsafe.Offsetof(ce.Task),
		unsafe.Offsetof(ce.Addr), unsafe.Offsetof(ce.Size))
	mix(unsafe.Sizeof(cs), unsafe.Offsetof(cs.Time), unsafe.Offsetof(cs.Value))
	mix(unsafe.Sizeof(mr), unsafe.Offsetof(mr.ID), unsafe.Offsetof(mr.Addr),
		unsafe.Offsetof(mr.Size), unsafe.Offsetof(mr.Node))
	mix(unsafe.Sizeof(ti), unsafe.Offsetof(ti.ID), unsafe.Offsetof(ti.Type),
		unsafe.Offsetof(ti.Created), unsafe.Offsetof(ti.CreatorCPU),
		unsafe.Offsetof(ti.ExecCPU), unsafe.Offsetof(ti.ExecStart), unsafe.Offsetof(ti.ExecEnd))
	mix(unsafe.Sizeof(mn), unsafe.Offsetof(mn.Min), unsafe.Offsetof(mn.Max))
	mix(unsafe.Sizeof(dn), unsafe.Offsetof(dn.Max), unsafe.Offsetof(dn.Arg))
	return h
}

// SaveStore writes the trace as a columnar snapshot: every per-CPU
// event array, counter sample array and table dumped as raw columns,
// plus the fully built aggregation pyramids (the dominance sets and
// the counter min/max and rate trees), so OpenStore can map the file
// and answer indexed queries without rebuilding anything. Each column
// is written whole, its spilled parts and its rows as one section,
// making SaveStore also the natural "compact a live session to one
// file" path.
func SaveStore(tr *Trace, path string) (err error) {
	// Build the indexes being persisted. The pyramids' leaf refs are
	// logical indices into whole columns, which is exactly the layout
	// the columns are written in.
	di := tr.DomIndex()
	tr.BuildCounterIndex(0)

	w, err := store.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			w.Abort()
		}
	}()

	var e store.Enc
	e.Int(snapshotFormatVersion)
	e.U64(layoutHash())
	e.I64(tr.Span.Start)
	e.I64(tr.Span.End)

	e.Str(tr.Topology.Name)
	e.Int(int(tr.Topology.NumNodes))
	e.Ref(store.Put(w, tr.Topology.NodeOfCPU))
	e.Ref(store.Put(w, tr.Topology.Distance))

	e.Int(len(tr.Types))
	for _, tt := range tr.Types {
		e.U64(uint64(tt.ID))
		e.U64(tt.Addr)
		e.Str(tt.Name)
	}
	e.Ref(store.Put(w, tr.Tasks))
	e.Ref(store.Put(w, tr.Regions))

	ids := make([]int32, len(tr.CPUs))
	for i := range tr.CPUs {
		ids[i] = tr.CPUs[i].ID
	}
	e.Ref(store.Put(w, ids))
	for i := range tr.CPUs {
		c := &tr.CPUs[i]
		e.Ref(store.Put(w, c.States.all()))
		e.Ref(store.Put(w, c.Discrete.all()))
		e.Ref(store.Put(w, c.Comm.all()))
	}

	e.Int(len(tr.Counters))
	for _, c := range tr.Counters {
		e.U64(uint64(c.Desc.ID))
		e.Str(c.Desc.Name)
		if c.Desc.Monotonic {
			e.Int(1)
		} else {
			e.Int(0)
		}
		for cpu := range tr.CPUs {
			e.Ref(store.Put(w, c.column(int32(cpu)).all()))
		}
	}

	// Dominance pyramids, one entry per CPU: the all-states set and the
	// per-worker-state sets. CPUs whose intervals were unindexable
	// store absent sets; OpenStore leaves those entries to the lazy
	// builder, which reproduces the unindexable verdict from the
	// columns.
	for cpu := int32(0); int(cpu) < len(tr.CPUs); cpu++ {
		dc := di.CPU(tr, cpu)
		putSet(w, &e, dc.all)
		for k := 0; k < trace.NumWorkerStates; k++ {
			putSet(w, &e, dc.byState[k])
		}
	}

	// Counter min/max and rate trees for every (counter, cpu) with
	// samples, in table order.
	ci := tr.CounterIndex()
	for _, c := range tr.Counters {
		for cpu := range tr.CPUs {
			if c.NumSamples(int32(cpu)) == 0 {
				e.Int(0)
				continue
			}
			e.Int(1)
			_, pyramid := ci.Tree(c, int32(cpu)).Columns()
			putPyramid(w, &e, pyramid)
			rates, pyramid := ci.RateTree(c, int32(cpu)).Columns()
			e.Ref(store.Put(w, rates))
			putPyramid(w, &e, pyramid)
		}
	}

	return w.Finish(e.Bytes())
}

// putPyramid appends a pyramid: arity, level count, one node column
// per level.
func putPyramid[S any](w *store.Writer, e *store.Enc, t agg.Tree[S]) {
	levels := t.Levels()
	e.Int(t.Arity())
	e.Int(len(levels))
	for _, lv := range levels {
		e.Ref(store.Put(w, lv))
	}
}

// viewPyramid adopts a pyramid over n leaves written by putPyramid.
// The meta blob is not trusted: the level count is bounded before
// anything is allocated for it and agg.FromLevels checks every level
// length against n, so a corrupt file fails here, not in a query.
func viewPyramid[S any](m *store.Mapped, d *store.Dec, n int) (agg.Tree[S], error) {
	arity := d.Int()
	count := d.Int() // 0 after a decode error, which d.Err reports below
	if count > agg.MaxLevels {
		return agg.Tree[S]{}, fmt.Errorf("store: corrupt snapshot: pyramid with %d levels", count)
	}
	levels := make([][]S, count)
	for l := range levels {
		var err error
		if levels[l], err = store.View[S](m, d.Ref()); err != nil {
			return agg.Tree[S]{}, err
		}
	}
	if err := d.Err(); err != nil {
		return agg.Tree[S]{}, err
	}
	return agg.FromLevels(arity, n, levels)
}

// putSet appends what a dominance set owns — a subset's refs and
// prefix sums, then the pyramid; nil sets store a present=0 flag only.
func putSet(w *store.Writer, e *store.Enc, s *mragg.Set) {
	if s == nil {
		e.Int(0)
		return
	}
	e.Int(1)
	refs, prefix, pyramid := s.Columns()
	if prefix != nil {
		e.Ref(store.Put(w, refs))
		e.Ref(store.Put(w, prefix))
	}
	putPyramid(w, e, pyramid)
}

// viewAllSet adopts an all-states set written by putSet for a CPU with
// the given number of state events. The pyramid's shape is checked
// against that count, so a corrupt file fails at open.
func viewAllSet(m *store.Mapped, d *store.Dec, states int) (*mragg.Set, error) {
	if d.Int() == 0 {
		return nil, d.Err()
	}
	pyramid, err := viewPyramid[mragg.Node](m, d, states)
	if err != nil {
		return nil, err
	}
	return mragg.AdoptAll(states, pyramid)
}

// viewSubSet is viewAllSet for a per-state subset. Everything a query
// indexes by is checked here — the prefix sums and the pyramid against
// the refs, the refs' two ends (two touched pages) against the state
// events.
func viewSubSet(m *store.Mapped, d *store.Dec, states int) (*mragg.Set, error) {
	if d.Int() == 0 {
		return nil, d.Err()
	}
	refs, err := store.View[int32](m, d.Ref())
	if err != nil {
		return nil, err
	}
	prefix, err := store.View[int64](m, d.Ref())
	if err != nil {
		return nil, err
	}
	pyramid, err := viewPyramid[mragg.Node](m, d, len(refs))
	if err != nil {
		return nil, err
	}
	return mragg.AdoptSub(states, refs, prefix, pyramid)
}

// viewTrees adopts a pair's value and rate trees written by SaveStore
// over the pair's mapped sample column. The pyramids and the rates are
// checked against the column's length, so a corrupt file fails at
// open.
func viewTrees(m *store.Mapped, d *store.Dec, col mmtree.Samples) (vt, rt *mmtree.Tree, err error) {
	pyramid, err := viewPyramid[mmtree.Node](m, d, col.Len())
	if err != nil {
		return nil, nil, err
	}
	if vt, err = mmtree.Adopt(col, pyramid); err != nil {
		return nil, nil, err
	}
	rates, err := store.View[int64](m, d.Ref())
	if err != nil {
		return nil, nil, err
	}
	if pyramid, err = viewPyramid[mmtree.Node](m, d, max(col.Len()-1, 0)); err != nil {
		return nil, nil, err
	}
	if rt, err = mmtree.AdoptRates(col, rates, pyramid); err != nil {
		return nil, nil, err
	}
	return vt, rt, nil
}

// OpenStore maps a columnar snapshot written by SaveStore. Event and
// sample columns, tables and aggregation pyramids are zero-copy views
// into the mapping: the open cost is parsing the meta blob — O(CPUs +
// counters + types), independent of event count — and query cost is
// O(touched pages). The task-ID map builds lazily on first TaskByID.
// The returned trace owns the mapping; Close releases it.
func OpenStore(path string) (tr *Trace, err error) {
	m, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			m.Close()
		}
	}()

	d := store.NewDec(m.Meta())
	if v := d.Int(); v != snapshotFormatVersion {
		return nil, fmt.Errorf("store: snapshot format version %d, this build reads version %d (re-save the snapshot from its source trace)", v, snapshotFormatVersion)
	}
	if h := d.U64(); h != layoutHash() {
		return nil, fmt.Errorf("store: snapshot written with incompatible type layout (hash %#x, want %#x)", h, layoutHash())
	}

	tr = newTrace()
	tr.backing = m
	tr.Span.Start = d.I64()
	tr.Span.End = d.I64()

	tr.Topology.Name = d.Str()
	tr.Topology.NumNodes = int32(d.Int())
	if tr.Topology.NodeOfCPU, err = store.View[int32](m, d.Ref()); err != nil {
		return nil, err
	}
	if tr.Topology.Distance, err = store.View[int32](m, d.Ref()); err != nil {
		return nil, err
	}
	if err := tr.Topology.Validate(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}

	nTypes := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	tr.Types = make([]trace.TaskType, 0, nTypes)
	for i := 0; i < nTypes; i++ {
		tt := trace.TaskType{ID: trace.TypeID(d.U64()), Addr: d.U64(), Name: d.Str()}
		tr.Types = append(tr.Types, tt)
		tr.typeByID[tt.ID] = i
	}
	if tr.Tasks, err = store.View[TaskInfo](m, d.Ref()); err != nil {
		return nil, err
	}
	if tr.Regions, err = store.View[trace.MemRegion](m, d.Ref()); err != nil {
		return nil, err
	}

	ids, err := store.View[int32](m, d.Ref())
	if err != nil {
		return nil, err
	}
	nCPU := len(ids)
	tr.CPUs = make([]CPUData, nCPU)
	for i := 0; i < nCPU; i++ {
		c := &tr.CPUs[i]
		if c.ID = ids[i]; c.ID < 0 || c.ID > trace.MaxCPUID || i > 0 && c.ID <= ids[i-1] {
			return nil, fmt.Errorf("store: corrupt snapshot: CPU id %d at row %d", c.ID, i)
		}
		if c.States.Rows, err = store.View[trace.StateEvent](m, d.Ref()); err != nil {
			return nil, err
		}
		if c.Discrete.Rows, err = store.View[trace.DiscreteEvent](m, d.Ref()); err != nil {
			return nil, err
		}
		if c.Comm.Rows, err = store.View[Comm](m, d.Ref()); err != nil {
			return nil, err
		}
	}

	nCounters := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	tr.Counters = make([]*Counter, 0, nCounters)
	for i := 0; i < nCounters; i++ {
		c := &Counter{Desc: trace.CounterDesc{
			ID:        trace.CounterID(d.U64()),
			Name:      d.Str(),
			Monotonic: d.Int() != 0,
		}}
		c.size(nCPU)
		for cpu := range c.PerCPU {
			if c.PerCPU[cpu].Rows, err = store.View[Sample](m, d.Ref()); err != nil {
				return nil, err
			}
		}
		tr.counterByID[c.Desc.ID] = i
		tr.Counters = append(tr.Counters, c)
	}
	tr.counterByName = buildCounterNameIndex(tr.Counters)

	di := newDomIndex(nCPU)
	for cpu := range nCPU {
		states := tr.CPUs[cpu].States.Rows
		sets := domSets{}
		if sets.all, err = viewAllSet(m, d, len(states)); err != nil {
			return nil, fmt.Errorf("store: cpu %d all-states dominance set: %w", ids[cpu], err)
		}
		for k := 0; k < trace.NumWorkerStates; k++ {
			if sets.byState[k], err = viewSubSet(m, d, len(states)); err != nil {
				return nil, fmt.Errorf("store: cpu %d state %d dominance set: %w", ids[cpu], k, err)
			}
		}
		// A stored nil all-set means the CPU was empty or unindexable;
		// leave the entry to the lazy builder, which re-derives that
		// verdict from the (possibly empty) column.
		if sets.all != nil {
			di.seed(cpu, mragg.Over(states), sets)
		}
	}
	tr.domOnce.Do(func() { tr.dom = di })

	for _, c := range tr.Counters {
		for cpu := range c.PerCPU {
			if d.Int() == 0 {
				continue
			}
			vt, rt, err := viewTrees(m, d, c.sampleLeaves(int32(cpu)))
			if err != nil {
				return nil, fmt.Errorf("store: counter %d cpu %d trees: %w", c.Desc.ID, ids[cpu], err)
			}
			c.trees[cpu] = counterTrees{value: vt, rate: rt}
		}
	}

	if err := d.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

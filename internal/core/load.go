package core

import (
	"cmp"
	"io"
	"slices"
	"sort"

	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/trace"
)

// Load reads and indexes a trace file.
func Load(path string) (*Trace, error) {
	rc, err := trace.Open(path)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return FromReader(rc)
}

// FromReader reads and indexes a trace from a stream.
//
// Loading writes each per-CPU record twice and allocates each array
// once. The decode stage turns the byte stream into typed record batches
// (trace.ReadBatched: the trace package's one framer cuts runs of whole
// records, counting them by kind, and each run is decoded into a batch
// whose slices are allocated at that count and which carries how many
// of its records belong to each CPU and each counter on each CPU, the
// latter found through a trace.PairIndex). The calling goroutine
// applies the global records (topology, types, counter registrations)
// in stream order and keeps the batches. At the end of the stream the
// task records are applied in stream order to a task table made once
// at their count; a task record finds its entry by its slot in the
// dense table (taskTable), not by a map. Then the counts are summed, every
// per-CPU state, discrete, communication and sample array is allocated
// at its final length, each batch learns the offsets its records start
// at by a prefix sum in stream order, and the batches are scattered
// into the arrays concurrently — they write disjoint ranges, so every
// per-CPU array comes out in trace order without merging
// (Trace.scatter). Then Trace.index. This is the one batch loader at
// every worker count: with one worker ReadBatched frames and decodes
// inline on the calling goroutine, and the scatter and the index run
// their loops inline through par.Do. FromDecoder is the other way to a
// Trace, the pollable trace.StreamReader fed through the live ingest
// path.
func FromReader(r io.Reader) (*Trace, error) {
	return fromReader(r, par.Workers())
}

// FromDecoder builds a trace by draining an incremental decoder: the
// whole stream is fed through the live ingest path and the final
// snapshot returned. Foreign-format importers load through here — a
// snapshot is byte-identical to what a batch indexer would build from
// the same record stream (the TestStreamEqualsBatch guarantee), so one
// Decoder implementation gives a format both batch loading and live
// tailing.
func FromDecoder(d trace.Decoder) (*Trace, error) {
	lv := NewLive()
	if _, err := lv.Feed(d); err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	tr, _ := lv.Snapshot()
	return tr, nil
}

// maxDecodeWorkers caps the pipeline: decode parallelism saturates well
// below large GOMAXPROCS values.
const maxDecodeWorkers = 16

func fromReader(r io.Reader, workers int) (*Trace, error) {
	workers = min(max(workers, 1), maxDecodeWorkers)
	tr := newTrace()

	var hasTopo bool
	var batches []*trace.RecordBatch
	err := trace.ReadBatched(r, workers, func(b *trace.RecordBatch) error {
		// Global records are rare; apply them in stream order here.
		for _, t := range b.Topologies {
			tr.Topology = t
			hasTopo = true
		}
		for _, t := range b.TaskTypes {
			tr.Types = registerType(tr.Types, tr.typeByID, t)
		}
		// Register counters in first-touch order, as the live applier
		// does, then apply the descriptions.
		for _, id := range b.CounterIDs {
			tr.counterFor(id)
		}
		for _, d := range b.Descs {
			tr.counterFor(d.ID).Desc = d
		}
		// The per-CPU families and the regions wait for the end of the
		// stream, when their arrays can be allocated at their final size.
		batches = append(batches, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The task records are applied at the end of the stream, in stream
	// order, to a table made once at their count.
	n := 0
	for _, b := range batches {
		n += len(b.Tasks)
	}
	tasks := taskTable{tasks: slices.Grow([]TaskInfo(nil), n)}
	for _, b := range batches {
		for _, t := range b.Tasks {
			tasks.apply(t)
		}
	}
	tr.scatter(batches, workers)
	tr.index(hasTopo, &tasks, workers)
	tr.Tasks = tasks.tasks
	tr.taskIDOnce.Do(func() { tr.taskOff = tasks.off })
	return tr, nil
}

// scatter builds the row table, the per-CPU event and sample arrays
// and the region table from the batches of a whole stream, given in
// stream order with the counts ReadBatched left on them: every array is
// allocated once at its final length and every record copied once to
// its final place. The counts of a batch are turned into the offsets its
// records start at (a prefix sum in stream order), so batches write
// disjoint ranges, are scattered concurrently, and per-CPU stream order
// holds by construction. A sample finds its (counter, CPU) pair's range
// through a per-batch trace.PairIndex, by position. The rows are every
// CPU a topology record declares or a count names, in id order. batches
// is consumed: a batch is dropped as soon as it is scattered.
func (tr *Trace) scatter(batches []*trace.RecordBatch, workers int) {
	seen := make(map[int32]bool)
	var ids []int32
	add := func(id int32) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for _, b := range batches {
		for _, t := range b.Topologies {
			for id := range int32(len(t.NodeOfCPU)) {
				add(id)
			}
		}
		for _, e := range b.CPUCounts {
			add(e.CPU)
		}
		for _, e := range b.SampleCounts {
			add(e.CPU)
		}
	}
	slices.Sort(ids)
	tr.CPUs = sized[CPUData](len(ids))
	for r, id := range ids {
		tr.CPUs[r].ID = id
	}

	total := make([]trace.CPUCount, len(ids))
	samples := make([][]int, len(tr.Counters)) // [counter index][row]
	for ci := range samples {
		samples[ci] = make([]int, len(ids))
	}
	regions := 0
	for _, b := range batches {
		for i := range b.CPUCounts {
			e := &b.CPUCounts[i]
			t := &total[tr.RowOf(e.CPU)]
			e.States, t.States = t.States, t.States+e.States
			e.Discrete, t.Discrete = t.Discrete, t.Discrete+e.Discrete
			e.Comms, t.Comms = t.Comms, t.Comms+e.Comms
		}
		for i := range b.SampleCounts {
			e := &b.SampleCounts[i]
			t := &samples[tr.counterByID[e.Counter]][tr.RowOf(e.CPU)]
			e.N, *t = *t, *t+e.N
		}
		regions += len(b.Regions)
	}

	// Allocation clears 35 bytes a record: worth the workers too.
	par.Do(workers, len(total), func(r int) {
		c, t := &tr.CPUs[r], &total[r]
		c.States.Rows = sized[trace.StateEvent](t.States)
		c.Discrete.Rows = sized[trace.DiscreteEvent](t.Discrete)
		c.Comm.Rows = sized[Comm](t.Comms)
	})
	par.Do(workers, len(samples), func(ci int) {
		c := tr.Counters[ci]
		c.size(len(ids))
		for r, n := range samples[ci] {
			c.PerCPU[r].Rows = sized[Sample](n)
		}
	})
	tr.Regions = sized[trace.MemRegion](regions)[:0]
	for _, b := range batches {
		tr.Regions = append(tr.Regions, b.Regions...)
	}

	// Each worker takes a contiguous share of the batches, so its look-up
	// tables are allocated once: at, where a CPU's offsets are, and pairs,
	// which numbers a batch's (counter, CPU) pairs as its SampleCounts
	// lists them, so ranges[k] is what remains of pair k's range and a
	// sample finds its pair by position (trace.PairIndex).
	bounds := par.Chunks(workers, len(batches))
	par.Do(workers, len(bounds)-1, func(chunk int) {
		at := make(map[int32]*trace.CPUCount)
		var pairs trace.PairIndex
		var ranges [][]Sample
		for i := bounds[chunk]; i < bounds[chunk+1]; i++ {
			b := batches[i]
			batches[i] = nil
			clear(at)
			for j := range b.CPUCounts {
				at[b.CPUCounts[j].CPU] = &b.CPUCounts[j]
			}
			// Records of one CPU come in runs: most look-ups repeat the last.
			e, c := &trace.CPUCount{CPU: -1}, (*CPUData)(nil)
			for _, s := range b.States {
				if s.CPU != e.CPU {
					e, c = at[s.CPU], &tr.CPUs[tr.RowOf(s.CPU)]
				}
				c.States.Rows[e.States] = s
				e.States++
			}
			for _, ev := range b.Discrete {
				if ev.CPU != e.CPU {
					e, c = at[ev.CPU], &tr.CPUs[tr.RowOf(ev.CPU)]
				}
				c.Discrete.Rows[e.Discrete] = ev
				e.Discrete++
			}
			// A communication event and a sample are stored without the
			// keys their column implies: the CPU, and the counter.
			for i := range b.Comms {
				ev := &b.Comms[i]
				if ev.CPU != e.CPU {
					e, c = at[ev.CPU], &tr.CPUs[tr.RowOf(ev.CPU)]
				}
				c.Comm.Rows[e.Comms] = toComm(ev)
				e.Comms++
			}
			pairs.Reset()
			ranges = ranges[:0]
			for _, e := range b.SampleCounts {
				pairs.Find(e.Counter, e.CPU)
				ranges = append(ranges, tr.Counters[tr.counterByID[e.Counter]].PerCPU[tr.RowOf(e.CPU)].Rows[e.N:])
			}
			for i := range b.Samples {
				s := &b.Samples[i]
				k, _ := pairs.Find(s.Counter, s.CPU)
				r := &ranges[k]
				(*r)[0], *r = toSample(s), (*r)[1:]
			}
		}
	})
}

// sized returns a slice of n zero records, nil for none: a CPU without
// records of a family holds no array for it.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

func newTrace() *Trace {
	return &Trace{
		typeByID:    make(map[trace.TypeID]int),
		counterByID: make(map[trace.CounterID]int),
		home:        &homeIndex{},
	}
}

// registerType adds a task type to a type table in first-touch order:
// the first record for an ID is kept, later ones ignored. byID is
// updated; the (possibly grown) table is returned.
func registerType(types []trace.TaskType, byID map[trace.TypeID]int, t trace.TaskType) []trace.TaskType {
	if _, ok := byID[t.ID]; ok {
		return types
	}
	byID[t.ID] = len(types)
	return append(types, t)
}

// execSpan is one task execution interval collected from a CPU's
// state events, in event order. Both the batch indexer and the live
// snapshot path apply these through taskTable.applyExecs.
type execSpan struct {
	task       trace.TaskID
	start, end trace.Time
}

// cpuExecs is one CPU's execution spans, in event order, with the id
// the placements name.
type cpuExecs struct {
	cpu   int32
	spans []execSpan
}

// synthTopology returns the flat single-node topology synthesized for
// traces without a topology record, over a trace of n rows.
func synthTopology(n int) trace.Topology {
	return trace.Topology{
		Name:      "unknown",
		NumNodes:  1,
		NodeOfCPU: make([]int32, max(n, 1)),
		Distance:  []int32{0},
	}
}

// collectExecs returns the task execution intervals of a sorted state
// array, in event order.
func collectExecs(states []trace.StateEvent) []execSpan {
	isExec := func(s *trace.StateEvent) bool { return s.State == trace.StateTaskExec && s.Task != trace.NoTask }
	n := 0
	for i := range states {
		if isExec(&states[i]) {
			n++
		}
	}
	out := make([]execSpan, 0, n)
	for i := range states {
		if s := &states[i]; isExec(s) {
			out = append(out, execSpan{s.Task, s.Start, s.End})
		}
	}
	return out
}

// finalizeTypes sorts the type table by ID in place and rewrites byID
// to the sorted positions.
func finalizeTypes(types []trace.TaskType, byID map[trace.TypeID]int) {
	sort.Slice(types, func(a, b int) bool { return types[a].ID < types[b].ID })
	for i, t := range types {
		byID[t.ID] = i
	}
}

// sortRegions sorts the region table by address in place, stably: of two
// regions registered at one address (memory freed and allocated again)
// the later one sorts last and is the one RegionAt finds. A table that
// arrives sorted is left alone; any other goes through a byte-wise radix
// sort from the low address byte up, which keeps arrival order among
// equal addresses and skips the bytes every address shares.
func sortRegions(regions []trace.MemRegion) {
	if slices.IsSortedFunc(regions, func(a, b trace.MemRegion) int { return cmp.Compare(a.Addr, b.Addr) }) {
		return
	}
	var hist [8][256]int // per address byte, how many regions hold each value
	for i := range regions {
		for k := range hist {
			hist[k][byte(regions[i].Addr>>(8*k))]++
		}
	}
	src, dst := regions, make([]trace.MemRegion, len(regions))
	for k := range hist {
		h, shift := &hist[k], 8*k
		if h[byte(src[0].Addr>>shift)] == len(src) {
			continue
		}
		next := 0 // counts become the position each value's run starts at
		for v, n := range h {
			h[v], next = next, next+n
		}
		for i := range src {
			v := byte(src[i].Addr >> shift)
			dst[h[v]] = src[i]
			h[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &regions[0] {
		copy(regions, src)
	}
}

// mergeRegions merges two address-sorted region lists into a fresh
// array; at equal addresses the regions of sorted, which arrived
// earlier, come first — the order sortRegions gives the concatenation.
func mergeRegions(sorted, arrivals []trace.MemRegion) []trace.MemRegion {
	out := make([]trace.MemRegion, 0, len(sorted)+len(arrivals))
	for _, r := range arrivals {
		n := sort.Search(len(sorted), func(i int) bool { return sorted[i].Addr > r.Addr })
		out = append(append(out, sorted[:n]...), r)
		sorted = sorted[n:]
	}
	return append(out, sorted...)
}

// inOrder reports whether no event of s comes before its predecessor
// by key — what the format guarantees of every per-CPU array, so this
// check is all a load pays for the repair it almost never runs. Small
// enough to inline with its key, it is one typed pass over the array.
func inOrder[T any](s []T, key func(*T) trace.Time) bool {
	for i := 1; i < len(s); i++ {
		if key(&s[i]) < key(&s[i-1]) {
			return false
		}
	}
	return true
}

// buildCounterNameIndex returns the name index over the counter table:
// the first counter (in table order) wins each name.
func buildCounterNameIndex(counters []*Counter) map[string]int {
	byName := make(map[string]int, len(counters))
	for i, c := range counters {
		if _, ok := byName[c.Desc.Name]; !ok {
			byName[c.Desc.Name] = i
		}
	}
	return byName
}

// index finalizes the loaded trace: synthesizes a topology if absent,
// repairs ordering if a producer violated it, sorts the region table,
// applies task execution placement to tasks and computes the time span. The
// per-CPU and per-(counter, cpu) passes run on up to workers
// goroutines; their results merge serially in CPU order so the
// outcome is identical to a sequential pass.
func (tr *Trace) index(hasTopo bool, tasks *taskTable, workers int) {
	if !hasTopo {
		tr.Topology = synthTopology(len(tr.CPUs))
	}

	// Per-CPU finalization: verify/repair event order (the format
	// guarantees per-CPU order; tolerate producers that violated it by
	// re-sorting, cheap when already sorted), find the CPU's time
	// bounds, and collect task execution intervals in event order.
	type cpuIndex struct {
		min, max trace.Time
		has      bool
	}
	perCPU := make([]cpuIndex, len(tr.CPUs))
	execs := make([]cpuExecs, len(tr.CPUs))
	di := newDomIndex(len(tr.CPUs))
	par.Do(workers, len(tr.CPUs), func(i int) {
		states, discrete, comm := tr.CPUs[i].States.Rows, tr.CPUs[i].Discrete.Rows, tr.CPUs[i].Comm.Rows
		if !inOrder(states, stateTime) {
			sort.SliceStable(states, func(a, b int) bool { return states[a].Start < states[b].Start })
		}
		if !inOrder(discrete, discreteTime) {
			sort.SliceStable(discrete, func(a, b int) bool { return discrete[a].Time < discrete[b].Time })
		}
		if !inOrder(comm, commTime) {
			sort.SliceStable(comm, func(a, b int) bool { return comm[a].Time < comm[b].Time })
		}
		res := &perCPU[i]
		for _, s := range states {
			if !res.has || s.Start < res.min {
				res.min = s.Start
			}
			if !res.has || s.End > res.max {
				res.max = s.End
			}
			res.has = true
		}
		execs[i] = cpuExecs{tr.CPUs[i].ID, collectExecs(states)}
		// Build the dominance pyramid over the freshly sorted states
		// (Section VI-B: rendering cost proportional to pixels, not
		// events), eagerly so the first viewer request pays nothing. A
		// CPU without states is left to DomIndex.CPU, which builds the
		// empty entry for whoever asks.
		if len(states) > 0 {
			di.CPU(tr, int32(i))
		}
	})

	// Per-(counter, cpu) sample arrays are independent too.
	type samplePair struct {
		c   *Counter
		cpu int
	}
	var pairs []samplePair
	for _, c := range tr.Counters {
		for cpu := range c.PerCPU {
			if len(c.PerCPU[cpu].Rows) > 1 {
				pairs = append(pairs, samplePair{c, cpu})
			}
		}
	}
	par.Do(workers, len(pairs), func(i int) {
		s := pairs[i].c.PerCPU[pairs[i].cpu].Rows
		if !inOrder(s, sampleTime) {
			sort.SliceStable(s, func(a, b int) bool { return s[a].Time < s[b].Time })
		}
	})

	sortRegions(tr.Regions)

	// Serial merge, in CPU order: the span, and task placement derived
	// from execution states — synthesizing tasks for traces without
	// task records (Section VI-A tolerance). Applying placements in
	// CPU and event order reproduces the sequential last-writer-wins
	// semantics exactly.
	var start, end trace.Time
	first := true
	for i := range perCPU {
		r := &perCPU[i]
		if !r.has {
			continue
		}
		if first || r.min < start {
			start = r.min
		}
		if first || r.max > end {
			end = r.max
		}
		first = false
	}
	tasks.applyExecs(execs)
	for _, c := range tr.Counters {
		for cpu := range c.PerCPU {
			s := c.PerCPU[cpu].Rows
			if len(s) == 0 {
				continue
			}
			if first || s[0].Time < start {
				start = s[0].Time
			}
			if first || s[len(s)-1].Time > end {
				end = s[len(s)-1].Time
			}
			first = false
		}
	}
	tr.Span = Interval{Start: start, End: end}
	finalizeTypes(tr.Types, tr.typeByID)
	tr.counterByName = buildCounterNameIndex(tr.Counters)

	tr.domOnce.Do(func() { tr.dom = di })
}

package trace

import (
	"io"

	"github.com/openstream/aftermath/internal/par"
)

// RecordBatch holds a contiguous run of decoded records, grouped by
// kind. Within each slice the original stream order is preserved, and
// ReadBatched delivers batches in stream order, so the per-CPU and
// per-counter ordering guarantees of the format survive parallel
// decoding. A batch is handed off to the consumer and never reused by
// the reader, so consumers may retain or process it asynchronously.
type RecordBatch struct {
	Topologies []Topology
	TaskTypes  []TaskType
	Tasks      []Task
	States     []StateEvent
	Discrete   []DiscreteEvent
	Descs      []CounterDesc
	Samples    []CounterSample
	Comms      []CommEvent
	Regions    []MemRegion
	// CounterIDs lists the counter IDs touched by Descs and Samples in
	// first-touch stream order, deduplicated within the batch, so a
	// consumer can reproduce the counter registration order of a
	// sequential read.
	CounterIDs []CounterID
	// CPUCounts and SampleCounts say where the batch's per-CPU records
	// go: one entry per CPU with states, discrete events or
	// communication in the batch, one per (counter, CPU) pair with
	// samples, each in first-touch order — never more entries than the
	// batch has records, however large the CPU ids. A consumer that sums
	// them over the stream can size every per-CPU array before it copies
	// a record. ReadBatched and StreamReader fill them; other producers
	// leave them nil.
	CPUCounts    []CPUCount
	SampleCounts []SampleCount
}

// CPUCount is the number of records of each per-CPU family a batch
// holds for one CPU.
type CPUCount struct {
	CPU                     int32
	States, Discrete, Comms int
}

// SampleCount is the number of samples a batch holds for one counter on
// one CPU.
type SampleCount struct {
	Counter CounterID
	CPU     int32
	N       int
}

// empty reports whether the batch decoded no records.
func (b *RecordBatch) empty() bool {
	return len(b.Topologies) == 0 && len(b.TaskTypes) == 0 && len(b.Tasks) == 0 &&
		len(b.States) == 0 && len(b.Discrete) == 0 && len(b.Descs) == 0 &&
		len(b.Samples) == 0 && len(b.Comms) == 0 && len(b.Regions) == 0
}

// Batching parameters: a batch is flushed (a run handed to a decode
// worker) once it holds this many records or bytes, whichever comes
// first. Large enough to amortize channel hand-offs, small enough to
// keep all workers busy on medium traces.
const (
	batchRecords = 4096
	batchBytes   = 1 << 18
)

// ReadBatched decodes all records from r and delivers them as
// RecordBatch values, in stream order, to emit, which always runs on
// the calling goroutine. It stops at the first framing or decode error
// or the first error returned by emit; the stream must end at a record
// boundary. With one worker it is a StreamReader polled to io.EOF — the
// batch reader and the live reader are the same code. With more
// (workers <= 0 selects GOMAXPROCS) the framer runs on its own
// goroutine and hands runs of whole records to that many decoders.
func ReadBatched(r io.Reader, workers int, emit func(*RecordBatch) error) error {
	if workers <= 0 {
		workers = par.Workers()
	}
	if workers > 1 {
		return readBatchedPar(r, workers, emit)
	}
	sr := NewStreamReader(r)
	sr.f.toEOF = true
	sr.Poll(emit) // an error sticks, and is what Done reports
	return sr.Done()
}

// frameJob is a run of whole records awaiting decode: bytes of the
// framer's buffer, released for good, which the worker reads in place,
// and how many records of each kind the framer cut into it (kinds it
// does not know are not counted: they decode to nothing).
type frameJob struct {
	run   []byte
	kinds kindCounts
	out   chan decoded
}

// kindCounts holds a number of records per record kind, indexed by kind.
type kindCounts [recMemRegion + 1]int

// add counts a record of a kind; kinds it does not know decode to
// nothing and are not counted.
func (k *kindCounts) add(kind uint64) {
	if kind < uint64(len(k)) {
		k[kind]++
	}
}

// withCap returns an empty slice with room for exactly n records, nil
// for none: a kind absent from a run stays nil in its batch.
func withCap[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// newBatch returns the batch a run decodes into, every slice allocated
// once at the length the run will fill it to.
func (j *frameJob) newBatch() *RecordBatch {
	return &RecordBatch{
		Topologies: withCap[Topology](j.kinds[recTopology]),
		TaskTypes:  withCap[TaskType](j.kinds[recTaskType]),
		Tasks:      withCap[Task](j.kinds[recTask]),
		States:     withCap[StateEvent](j.kinds[recState]),
		Discrete:   withCap[DiscreteEvent](j.kinds[recDiscrete]),
		Descs:      withCap[CounterDesc](j.kinds[recCounterDesc]),
		Samples:    withCap[CounterSample](j.kinds[recCounterSample]),
		Comms:      withCap[CommEvent](j.kinds[recComm]),
		Regions:    withCap[MemRegion](j.kinds[recMemRegion]),
	}
}

// decode decodes the run into a batch built by newBatch, t keeping the
// batch's counts, and returns the batch, the number of records decoded
// and the first decode error; the records before it are in the batch.
func (j *frameJob) decode(t *tally) (b *RecordBatch, n int, err error) {
	b = j.newBatch()
	for run := j.run; len(run) > 0; n++ { // whole records: cutRecord cannot fail
		kind, payload, size, _ := cutRecord(run)
		if err = decodeInto(kind, payload, b, t); err != nil {
			break
		}
		run = run[size:]
	}
	t.reset(b)
	return b, n, err
}

// clip trims every record slice of b to its length, nil when empty: what
// a run that failed to decode part way leaves is exactly sized too.
func (b *RecordBatch) clip() {
	b.Topologies, b.TaskTypes, b.Tasks = clipped(b.Topologies), clipped(b.TaskTypes), clipped(b.Tasks)
	b.States, b.Discrete, b.Descs = clipped(b.States), clipped(b.Discrete), clipped(b.Descs)
	b.Samples, b.Comms, b.Regions = clipped(b.Samples), clipped(b.Comms), clipped(b.Regions)
}

func clipped[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s[:len(s):len(s)]
}

type decoded struct {
	batch *RecordBatch
	err   error
}

// readBatchedPar frames on one goroutine, decodes the released runs on
// workers more and emits the batches in stream order on the caller's.
func readBatchedPar(r io.Reader, workers int, emit func(*RecordBatch) error) error {
	done := make(chan struct{})
	defer close(done)

	jobs := make(chan *frameJob, workers)
	order := make(chan chan decoded, 2*workers)
	frameErr := make(chan error, 1)

	// Framing stage.
	go func() {
		defer close(jobs)
		defer close(order)
		f := newFramer(r, batchBytes, true, true)
		var kinds kindCounts
		// send releases the records cut so far to a worker; false: the
		// consumer has gone away.
		send := func() bool {
			job := &frameJob{run: f.release(), kinds: kinds, out: make(chan decoded, 1)}
			if len(job.run) == 0 {
				return true
			}
			kinds = kindCounts{}
			select {
			case jobs <- job:
			case <-done:
				return false
			}
			select {
			case order <- job.out:
			case <-done:
				return false
			}
			return true
		}
		for nrec := 0; ; {
			kind, _, err := f.record()
			if err != nil {
				// What was cut before the failure goes out first: an
				// earlier decode error wins, as in the other readers.
				send()
				if err == io.EOF {
					err = nil
				}
				frameErr <- err
				return
			}
			kinds.add(kind)
			if nrec++; nrec >= batchRecords || f.off-f.lo >= batchBytes {
				if nrec = 0; !send() {
					return
				}
			}
		}
	}()

	// Decode workers.
	for w := 0; w < workers; w++ {
		go func() {
			t := newTally()
			for job := range jobs {
				b, _, err := job.decode(t)
				job.out <- decoded{batch: b, err: err}
			}
		}()
	}

	// In-order consumption on the calling goroutine.
	for out := range order {
		d := <-out
		if d.err != nil {
			return d.err
		}
		if err := emit(d.batch); err != nil {
			return err
		}
	}
	return <-frameErr
}

// tally is the bookkeeping a decoder keeps beside the batch it is
// filling: which counters the batch already lists in CounterIDs, where
// each CPU's entry sits in CPUCounts and each (counter, CPU) pair's in
// SampleCounts. A map for the CPUs, asked once per run of one CPU's
// records, not a table indexed by CPU id: an id may be anything up to
// MaxCPUID and a batch is a few thousand records.
type tally struct {
	// pairs numbers the batch's (counter, CPU) pairs as SampleCounts
	// lists them, so a sample finds its entry by position.
	pairs PairIndex
	// listed holds the counters CounterIDs lists.
	listed map[CounterID]struct{}
	cpus   map[int32]int
	// last is the CPUCounts entry of the record before, the one most
	// records want: a CPU's records come in runs.
	last int
	// nCPU and nPair are the lengths the last batch's CPUCounts and
	// SampleCounts reached, the capacity the next batch's start with.
	nCPU, nPair int
}

func newTally() *tally {
	return &tally{listed: make(map[CounterID]struct{}), cpus: make(map[int32]int)}
}

// reset forgets the finished batch b.
func (t *tally) reset(b *RecordBatch) {
	t.pairs.Reset()
	clear(t.listed)
	clear(t.cpus)
	t.last, t.nCPU, t.nPair = 0, len(b.CPUCounts), len(b.SampleCounts)
}

// counter lists id in the batch's CounterIDs at its first touch.
func (t *tally) counter(b *RecordBatch, id CounterID) {
	if t == nil {
		return
	}
	if _, ok := t.listed[id]; !ok {
		t.listed[id] = struct{}{}
		b.CounterIDs = append(b.CounterIDs, id)
	}
}

// sample accounts for one sample of counter id on cpu.
func (t *tally) sample(b *RecordBatch, id CounterID, cpu int32) {
	if t == nil {
		return
	}
	i, added := t.pairs.Find(id, cpu)
	if added {
		t.counter(b, id)
		if b.SampleCounts == nil {
			b.SampleCounts = make([]SampleCount, 0, t.nPair)
		}
		b.SampleCounts = append(b.SampleCounts, SampleCount{Counter: id, CPU: cpu})
	}
	b.SampleCounts[i].N++
}

// cpu returns the batch's CPUCounts entry for cpu, nil from a nil t.
func (t *tally) cpu(b *RecordBatch, cpu int32) *CPUCount {
	if t == nil {
		return nil
	}
	if t.last < len(b.CPUCounts) && b.CPUCounts[t.last].CPU == cpu {
		return &b.CPUCounts[t.last]
	}
	i, ok := t.cpus[cpu]
	if !ok {
		if b.CPUCounts == nil {
			b.CPUCounts = make([]CPUCount, 0, t.nCPU)
		}
		i = len(b.CPUCounts)
		t.cpus[cpu] = i
		b.CPUCounts = append(b.CPUCounts, CPUCount{CPU: cpu})
	}
	t.last = i
	return &b.CPUCounts[i]
}

// decodeInto decodes one record payload and appends it to the batch.
// Unknown record kinds are skipped, matching Read with a nil Unknown
// handler. t deduplicates CounterIDs within the batch and keeps the
// batch's counts; a nil t leaves both alone (Read's one-record scratch
// batch).
func decodeInto(kind uint64, payload []byte, b *RecordBatch, t *tally) error {
	d := &dec{b: payload}
	switch kind {
	case recTopology:
		topo, err := decodeTopology(d)
		if err != nil {
			return err
		}
		b.Topologies = append(b.Topologies, topo)
	case recTaskType:
		var tt TaskType
		tt.ID = TypeID(d.uvarint())
		tt.Addr = d.uvarint()
		tt.Name = d.str()
		if d.err == nil {
			b.TaskTypes = append(b.TaskTypes, tt)
		}
	case recTask:
		var tk Task
		tk.ID = TaskID(d.uvarint())
		tk.Type = TypeID(d.uvarint())
		tk.Created = d.varint()
		tk.CreatorCPU = d.cpuID(true)
		if d.err == nil {
			b.Tasks = append(b.Tasks, tk)
		}
	case recState:
		var s StateEvent
		s.CPU = d.cpuID(false)
		s.State = WorkerState(d.uvarint())
		s.Start = d.varint()
		s.End = s.Start + int64(d.uvarint())
		s.Task = TaskID(d.uvarint())
		if d.err == nil {
			b.States = append(b.States, s)
			if c := t.cpu(b, s.CPU); c != nil {
				c.States++
			}
		}
	case recDiscrete:
		var ev DiscreteEvent
		ev.CPU = d.cpuID(false)
		ev.Kind = EventKind(d.uvarint())
		ev.Time = d.varint()
		ev.Arg = d.uvarint()
		if d.err == nil {
			b.Discrete = append(b.Discrete, ev)
			if c := t.cpu(b, ev.CPU); c != nil {
				c.Discrete++
			}
		}
	case recCounterDesc:
		var c CounterDesc
		c.ID = CounterID(d.uvarint())
		c.Monotonic = d.bool()
		c.Name = d.str()
		if d.err == nil {
			t.counter(b, c.ID)
			b.Descs = append(b.Descs, c)
		}
	case recCounterSample:
		var s CounterSample
		s.CPU = d.cpuID(false)
		s.Counter = CounterID(d.uvarint())
		s.Time = d.varint()
		s.Value = d.varint()
		if d.err == nil {
			t.sample(b, s.Counter, s.CPU)
			b.Samples = append(b.Samples, s)
		}
	case recComm:
		var c CommEvent
		c.Kind = CommKind(d.uvarint())
		c.CPU = d.cpuID(false)
		c.SrcCPU = d.cpuID(true)
		c.Time = d.varint()
		c.Task = TaskID(d.uvarint())
		c.Addr = d.uvarint()
		c.Size = d.uvarint()
		if d.err == nil {
			b.Comms = append(b.Comms, c)
			if n := t.cpu(b, c.CPU); n != nil {
				n.Comms++
			}
		}
	case recMemRegion:
		var r MemRegion
		r.ID = RegionID(d.uvarint())
		r.Addr = d.uvarint()
		r.Size = d.uvarint()
		r.Node = int32(d.varint())
		if d.err == nil {
			b.Regions = append(b.Regions, r)
		}
	}
	return d.err
}

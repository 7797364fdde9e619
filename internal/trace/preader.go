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
	// MaxCPU is the largest CPU id referenced by any record in the
	// batch, or -1 if none.
	MaxCPU int32
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
// framer's buffer, released for good, which the worker reads in place.
type frameJob struct {
	run []byte
	out chan decoded
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
		// send releases the records cut so far to a worker; false: the
		// consumer has gone away.
		send := func() bool {
			job := &frameJob{run: f.release(), out: make(chan decoded, 1)}
			if len(job.run) == 0 {
				return true
			}
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
			if _, _, err := f.record(); err != nil {
				// What was cut before the failure goes out first: an
				// earlier decode error wins, as in the other readers.
				send()
				if err == io.EOF {
					err = nil
				}
				frameErr <- err
				return
			}
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
			for job := range jobs {
				b := &RecordBatch{MaxCPU: -1}
				seen := make(map[CounterID]struct{})
				var err error
				for run := job.run; len(run) > 0 && err == nil; { // whole records: cutRecord cannot fail
					kind, payload, n, _ := cutRecord(run)
					err = decodeInto(kind, payload, b, seen)
					run = run[n:]
				}
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

// decodeInto decodes one record payload and appends it to the batch.
// Unknown record kinds are skipped, matching Read with a nil Unknown
// handler. seen deduplicates CounterIDs within the batch; a nil seen
// leaves CounterIDs alone (Read's one-record scratch batch).
func decodeInto(kind uint64, payload []byte, b *RecordBatch, seen map[CounterID]struct{}) error {
	d := &dec{b: payload}
	touch := func(id CounterID) {
		if _, ok := seen[id]; !ok && seen != nil {
			seen[id] = struct{}{}
			b.CounterIDs = append(b.CounterIDs, id)
		}
	}
	switch kind {
	case recTopology:
		t, err := decodeTopology(d)
		if err != nil {
			return err
		}
		b.Topologies = append(b.Topologies, t)
	case recTaskType:
		var tt TaskType
		tt.ID = TypeID(d.uvarint())
		tt.Addr = d.uvarint()
		tt.Name = d.str()
		if d.err == nil {
			b.TaskTypes = append(b.TaskTypes, tt)
		}
	case recTask:
		var t Task
		t.ID = TaskID(d.uvarint())
		t.Type = TypeID(d.uvarint())
		t.Created = d.varint()
		t.CreatorCPU = d.cpuID(true)
		if d.err == nil {
			b.Tasks = append(b.Tasks, t)
		}
	case recState:
		var s StateEvent
		s.CPU = d.cpuID(false)
		s.State = WorkerState(d.uvarint())
		s.Start = d.varint()
		s.End = s.Start + int64(d.uvarint())
		s.Task = TaskID(d.uvarint())
		if d.err == nil {
			b.MaxCPU = max(b.MaxCPU, s.CPU)
			b.States = append(b.States, s)
		}
	case recDiscrete:
		var ev DiscreteEvent
		ev.CPU = d.cpuID(false)
		ev.Kind = EventKind(d.uvarint())
		ev.Time = d.varint()
		ev.Arg = d.uvarint()
		if d.err == nil {
			b.MaxCPU = max(b.MaxCPU, ev.CPU)
			b.Discrete = append(b.Discrete, ev)
		}
	case recCounterDesc:
		var c CounterDesc
		c.ID = CounterID(d.uvarint())
		c.Monotonic = d.bool()
		c.Name = d.str()
		if d.err == nil {
			touch(c.ID)
			b.Descs = append(b.Descs, c)
		}
	case recCounterSample:
		var s CounterSample
		s.CPU = d.cpuID(false)
		s.Counter = CounterID(d.uvarint())
		s.Time = d.varint()
		s.Value = d.varint()
		if d.err == nil {
			b.MaxCPU = max(b.MaxCPU, s.CPU)
			touch(s.Counter)
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
			b.MaxCPU = max(b.MaxCPU, c.CPU)
			b.Comms = append(b.Comms, c)
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

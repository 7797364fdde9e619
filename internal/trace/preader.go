package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
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

// Batching parameters: a frame batch is flushed to a decode worker
// once it holds this many records or payload bytes, whichever comes
// first. Large enough to amortize channel hand-offs, small enough to
// keep all workers busy on medium traces.
const (
	batchRecords = 4096
	batchBytes   = 1 << 18
)

// readHeader consumes and validates the stream magic and version.
func readHeader(br *bufio.Reader) error {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		if err == io.EOF {
			return ErrBadMagic
		}
		return err
	}
	if m != magic {
		return ErrBadMagic
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("trace: reading version: %w", err)
	}
	if version > formatVersion {
		return fmt.Errorf("trace: unsupported format version %d (max %d)", version, formatVersion)
	}
	return nil
}

// ReadBatched decodes all records from r and delivers them as
// RecordBatch values, in stream order, to emit. Payload decoding is
// spread over up to workers goroutines (workers <= 0 selects
// GOMAXPROCS); emit always runs on the calling goroutine. It stops at
// the first framing or decode error, or the first error returned by
// emit.
func ReadBatched(r io.Reader, workers int, emit func(*RecordBatch) error) error {
	if workers <= 0 {
		workers = par.Workers()
	}
	br := bufio.NewReaderSize(r, 1<<16)
	if err := readHeader(br); err != nil {
		return err
	}
	if workers <= 1 {
		return readBatchedSeq(br, emit)
	}
	return readBatchedPar(br, workers, emit)
}

// readBatchedSeq is the single-goroutine path: decode frames directly
// into batches and emit them inline.
func readBatchedSeq(br *bufio.Reader, emit func(*RecordBatch) error) error {
	var payload []byte
	b := &RecordBatch{MaxCPU: -1}
	seen := make(map[CounterID]struct{})
	n := 0
	for {
		kind, err := binary.ReadUvarint(br)
		if err == io.EOF {
			if !b.empty() {
				return emit(b)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: reading record kind: %w", err)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return ErrTruncated
		}
		if payload, err = readPayload(br, payload, size); err != nil {
			return err
		}
		if err := decodeInto(kind, payload, b, seen); err != nil {
			return err
		}
		if n++; n >= batchRecords {
			if err := emit(b); err != nil {
				return err
			}
			b = &RecordBatch{MaxCPU: -1}
			clear(seen)
			n = 0
		}
	}
}

// frameJob is a batch of raw frames awaiting decode: payloads are
// packed back to back in arena, frame i is kinds[i] with payload
// arena[offs[i]:offs[i+1]].
type frameJob struct {
	arena []byte
	kinds []uint64
	offs  []int
	out   chan decoded
}

type decoded struct {
	batch *RecordBatch
	err   error
}

// readBatchedPar frames records on one goroutine, decodes frame
// batches on workers goroutines, and emits decoded batches in stream
// order on the calling goroutine.
func readBatchedPar(br *bufio.Reader, workers int, emit func(*RecordBatch) error) error {
	done := make(chan struct{})
	defer close(done)

	jobs := make(chan *frameJob, workers)
	order := make(chan chan decoded, 2*workers)
	frameErr := make(chan error, 1)

	// Framing stage.
	newJob := func() *frameJob {
		// Start small and let growth double: tiny traces stay cheap,
		// large ones amortize the copies within the first batch.
		return &frameJob{
			arena: make([]byte, 0, 16<<10),
			offs:  []int{0},
		}
	}
	go func() {
		defer close(jobs)
		defer close(order)
		job := newJob()
		flush := func() bool {
			if len(job.kinds) == 0 {
				return true
			}
			job.out = make(chan decoded, 1)
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
			job = newJob()
			return true
		}
		for {
			kind, err := binary.ReadUvarint(br)
			if err == io.EOF {
				flush()
				frameErr <- nil
				return
			}
			if err != nil {
				frameErr <- fmt.Errorf("trace: reading record kind: %w", err)
				return
			}
			size, err := binary.ReadUvarint(br)
			if err != nil {
				frameErr <- ErrTruncated
				return
			}
			if size > maxRecordSize {
				frameErr <- fmt.Errorf("trace: record payload of %d bytes exceeds the %d byte limit", size, maxRecordSize)
				return
			}
			// Grow the arena in bounded chunks as payload bytes
			// actually arrive: frames must stay contiguous in the
			// arena, and a corrupt length field must not trigger a
			// huge allocation before the stream runs dry.
			for remaining := int(size); remaining > 0; {
				c := remaining
				if c > payloadChunk {
					c = payloadChunk
				}
				start := len(job.arena)
				if need := start + c; need > cap(job.arena) {
					grown := make([]byte, start, 2*need)
					copy(grown, job.arena)
					job.arena = grown
				}
				job.arena = job.arena[:start+c]
				if _, err := io.ReadFull(br, job.arena[start:]); err != nil {
					frameErr <- ErrTruncated
					return
				}
				remaining -= c
			}
			job.kinds = append(job.kinds, kind)
			job.offs = append(job.offs, len(job.arena))
			if len(job.kinds) >= batchRecords || len(job.arena) >= batchBytes {
				if !flush() {
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
				for i, kind := range job.kinds {
					if err = decodeInto(kind, job.arena[job.offs[i]:job.offs[i+1]], b, seen); err != nil {
						break
					}
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
	cpu := func(c int32) (int32, error) {
		if c < 0 {
			return 0, fmt.Errorf("trace: negative CPU id %d", c)
		}
		if c > b.MaxCPU {
			b.MaxCPU = c
		}
		return c, nil
	}
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
		if d.err != nil {
			return d.err
		}
		b.TaskTypes = append(b.TaskTypes, tt)
	case recTask:
		var t Task
		t.ID = TaskID(d.uvarint())
		t.Type = TypeID(d.uvarint())
		t.Created = d.varint()
		t.CreatorCPU = d.cpuID(true)
		if d.err != nil {
			return d.err
		}
		b.Tasks = append(b.Tasks, t)
	case recState:
		var s StateEvent
		s.CPU = d.cpuID(false)
		s.State = WorkerState(d.uvarint())
		s.Start = d.varint()
		s.End = s.Start + int64(d.uvarint())
		s.Task = TaskID(d.uvarint())
		if d.err != nil {
			return d.err
		}
		var err error
		if s.CPU, err = cpu(s.CPU); err != nil {
			return err
		}
		b.States = append(b.States, s)
	case recDiscrete:
		var ev DiscreteEvent
		ev.CPU = d.cpuID(false)
		ev.Kind = EventKind(d.uvarint())
		ev.Time = d.varint()
		ev.Arg = d.uvarint()
		if d.err != nil {
			return d.err
		}
		var err error
		if ev.CPU, err = cpu(ev.CPU); err != nil {
			return err
		}
		b.Discrete = append(b.Discrete, ev)
	case recCounterDesc:
		var c CounterDesc
		c.ID = CounterID(d.uvarint())
		c.Monotonic = d.bool()
		c.Name = d.str()
		if d.err != nil {
			return d.err
		}
		touch(c.ID)
		b.Descs = append(b.Descs, c)
	case recCounterSample:
		var s CounterSample
		s.CPU = d.cpuID(false)
		s.Counter = CounterID(d.uvarint())
		s.Time = d.varint()
		s.Value = d.varint()
		if d.err != nil {
			return d.err
		}
		var err error
		if s.CPU, err = cpu(s.CPU); err != nil {
			return err
		}
		touch(s.Counter)
		b.Samples = append(b.Samples, s)
	case recComm:
		var c CommEvent
		c.Kind = CommKind(d.uvarint())
		c.CPU = d.cpuID(false)
		c.SrcCPU = d.cpuID(true)
		c.Time = d.varint()
		c.Task = TaskID(d.uvarint())
		c.Addr = d.uvarint()
		c.Size = d.uvarint()
		if d.err != nil {
			return d.err
		}
		var err error
		if c.CPU, err = cpu(c.CPU); err != nil {
			return err
		}
		b.Comms = append(b.Comms, c)
	case recMemRegion:
		var r MemRegion
		r.ID = RegionID(d.uvarint())
		r.Addr = d.uvarint()
		r.Size = d.uvarint()
		r.Node = int32(d.varint())
		if d.err != nil {
			return d.err
		}
		b.Regions = append(b.Regions, r)
	}
	return nil
}

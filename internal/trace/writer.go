package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Wire-level record kind tags. New kinds may be added; readers skip
// tags they do not understand.
const (
	recTopology      = 1
	recTaskType      = 2
	recTask          = 3
	recState         = 4
	recDiscrete      = 5
	recCounterDesc   = 6
	recCounterSample = 7
	recComm          = 8
	recMemRegion     = 9
)

// magic identifies Aftermath trace files.
var magic = [4]byte{'A', 'T', 'M', 'G'}

// formatVersion is the current trace format version.
const formatVersion = 1

// Writer serializes trace records to a stream.
//
// Records may be written in any order, except that events of the same
// family on the same CPU must be written with non-decreasing
// timestamps; Writer enforces this (Section VI-A: a total order per
// core is required, interleaving across cores is free). Writer is not
// safe for concurrent use.
type Writer struct {
	w       *bufio.Writer
	scratch []byte
	// lastTime tracks the last timestamp per (family, cpu, counter)
	// to enforce per-core ordering.
	lastTime    map[orderKey]Time
	wroteHeader bool
	err         error
}

type orderKey struct {
	family  uint8
	cpu     int32
	counter CounterID
}

// NewWriter returns a Writer emitting the binary trace format to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{
		w:        bufio.NewWriterSize(w, 1<<16),
		lastTime: make(map[orderKey]Time),
	}
}

func (w *Writer) header() error {
	if w.wroteHeader {
		return nil
	}
	w.wroteHeader = true
	if _, err := w.w.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], formatVersion)
	_, err := w.w.Write(buf[:n])
	return err
}

// checkOrder verifies per-CPU timestamp monotonicity for one event
// family and remembers the new timestamp.
func (w *Writer) checkOrder(family uint8, cpu int32, counter CounterID, t Time) error {
	k := orderKey{family, cpu, counter}
	if last, ok := w.lastTime[k]; ok && t < last {
		return fmt.Errorf("trace: out-of-order %s event on CPU %d: %d after %d",
			familyName(family), cpu, t, last)
	}
	w.lastTime[k] = t
	return nil
}

func familyName(f uint8) string {
	switch f {
	case recState:
		return "state"
	case recDiscrete:
		return "discrete"
	case recCounterSample:
		return "counter sample"
	case recComm:
		return "communication"
	}
	return "record"
}

// record writes one framed record: kind, payload length, payload.
func (w *Writer) record(kind uint64, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if err := w.header(); err != nil {
		w.err = err
		return err
	}
	var buf [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], kind)
	n += binary.PutUvarint(buf[n:], uint64(len(payload)))
	if _, err := w.w.Write(buf[:n]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = err
		return err
	}
	return nil
}

// enc builds a record payload in the writer's scratch buffer.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *enc) varint(v int64) {
	e.b = binary.AppendVarint(e.b, v)
}

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (w *Writer) enc() *enc {
	w.scratch = w.scratch[:0]
	return &enc{b: w.scratch}
}

func (w *Writer) emit(kind uint64, e *enc) error {
	w.scratch = e.b
	return w.record(kind, e.b)
}

// WriteTopology writes the machine topology record.
func (w *Writer) WriteTopology(t Topology) error {
	if err := t.Validate(); err != nil {
		return err
	}
	e := w.enc()
	e.str(t.Name)
	e.uvarint(uint64(t.NumNodes))
	e.uvarint(uint64(len(t.NodeOfCPU)))
	for _, n := range t.NodeOfCPU {
		e.uvarint(uint64(n))
	}
	for _, d := range t.Distance {
		e.uvarint(uint64(d))
	}
	return w.emit(recTopology, e)
}

// WriteTaskType writes a task type description.
func (w *Writer) WriteTaskType(tt TaskType) error {
	e := w.enc()
	e.uvarint(uint64(tt.ID))
	e.uvarint(tt.Addr)
	e.str(tt.Name)
	return w.emit(recTaskType, e)
}

// WriteTask writes a task instance description.
func (w *Writer) WriteTask(t Task) error {
	e := w.enc()
	e.uvarint(uint64(t.ID))
	e.uvarint(uint64(t.Type))
	e.varint(t.Created)
	e.varint(int64(t.CreatorCPU))
	return w.emit(recTask, e)
}

// WriteState writes a worker state interval. Intervals on the same CPU
// must be written ordered by start time.
func (w *Writer) WriteState(s StateEvent) error {
	if s.End < s.Start {
		return fmt.Errorf("trace: state interval ends (%d) before it starts (%d)", s.End, s.Start)
	}
	if err := w.checkOrder(recState, s.CPU, 0, s.Start); err != nil {
		return err
	}
	e := w.enc()
	e.varint(int64(s.CPU))
	e.uvarint(uint64(s.State))
	e.varint(s.Start)
	e.uvarint(uint64(s.End - s.Start))
	e.uvarint(uint64(s.Task))
	return w.emit(recState, e)
}

// WriteDiscrete writes a discrete event. Events on the same CPU must
// be written in timestamp order.
func (w *Writer) WriteDiscrete(d DiscreteEvent) error {
	if err := w.checkOrder(recDiscrete, d.CPU, 0, d.Time); err != nil {
		return err
	}
	e := w.enc()
	e.varint(int64(d.CPU))
	e.uvarint(uint64(d.Kind))
	e.varint(d.Time)
	e.uvarint(d.Arg)
	return w.emit(recDiscrete, e)
}

// WriteCounterDesc writes a counter description.
func (w *Writer) WriteCounterDesc(c CounterDesc) error {
	e := w.enc()
	e.uvarint(uint64(c.ID))
	e.bool(c.Monotonic)
	e.str(c.Name)
	return w.emit(recCounterDesc, e)
}

// WriteSample writes a counter sample. Samples of the same counter on
// the same CPU must be written in timestamp order.
func (w *Writer) WriteSample(s CounterSample) error {
	if err := w.checkOrder(recCounterSample, s.CPU, s.Counter, s.Time); err != nil {
		return err
	}
	e := w.enc()
	e.varint(int64(s.CPU))
	e.uvarint(uint64(s.Counter))
	e.varint(s.Time)
	e.varint(s.Value)
	return w.emit(recCounterSample, e)
}

// WriteComm writes a communication event. Events on the same CPU must
// be written in timestamp order.
func (w *Writer) WriteComm(c CommEvent) error {
	if err := w.checkOrder(recComm, c.CPU, 0, c.Time); err != nil {
		return err
	}
	e := w.enc()
	e.uvarint(uint64(c.Kind))
	e.varint(int64(c.CPU))
	e.varint(int64(c.SrcCPU))
	e.varint(c.Time)
	e.uvarint(uint64(c.Task))
	e.uvarint(c.Addr)
	e.uvarint(c.Size)
	return w.emit(recComm, e)
}

// WriteRegion writes a memory region placement record.
func (w *Writer) WriteRegion(r MemRegion) error {
	e := w.enc()
	e.uvarint(uint64(r.ID))
	e.uvarint(r.Addr)
	e.uvarint(r.Size)
	e.varint(int64(r.Node))
	return w.emit(recMemRegion, e)
}

// Flush writes buffered records to the underlying stream.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.header(); err != nil {
		w.err = err
		return err
	}
	return w.w.Flush()
}

package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Handler receives decoded records during Read. Nil callbacks skip the
// corresponding record kind, supporting partial consumers and traces
// with omitted record kinds (Section VI-A). Unknown receives records
// whose kind tag the reader does not understand; if nil they are
// silently skipped (forward compatibility).
type Handler struct {
	Topology    func(Topology) error
	TaskType    func(TaskType) error
	Task        func(Task) error
	State       func(StateEvent) error
	Discrete    func(DiscreteEvent) error
	CounterDesc func(CounterDesc) error
	Sample      func(CounterSample) error
	Comm        func(CommEvent) error
	Region      func(MemRegion) error
	Unknown     func(kind uint64, payload []byte) error
}

// ErrBadMagic reports that the stream is not an Aftermath trace.
var ErrBadMagic = errors.New("trace: bad magic (not an Aftermath trace)")

// ErrTruncated reports a stream that ends inside a record.
var ErrTruncated = errors.New("trace: truncated record")

// MaxCPUID bounds the CPU ids the decoders accept. The format stores
// CPU ids as varints, so a corrupt stream can claim ids near 2^31. An
// id is a label: core keeps one row per CPU a trace holds, whatever
// its id. No machine the trace model targets comes near a million
// CPUs.
const MaxCPUID = 1 << 20

// dec decodes a record payload.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	// Most fields — CPU, state, kind, small deltas — fit one byte.
	if d.off < len(d.b) && d.b[d.off] < 0x80 {
		d.off++
		return uint64(d.b[d.off-1])
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = ErrTruncated
		return 0
	}
	d.off += n
	return v
}

// varint decodes a zig-zag encoded signed value, as binary.Varint does.
func (d *dec) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)-d.off) < n {
		d.err = ErrTruncated
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.err = ErrTruncated
		return false
	}
	v := d.b[d.off] != 0
	d.off++
	return v
}

// cpuID decodes a CPU id and rejects implausible values: ids above
// MaxCPUID always, and negative ids unless the field admits the -1
// "no CPU" sentinel.
func (d *dec) cpuID(allowNone bool) int32 {
	v := d.varint()
	if d.err != nil {
		return 0
	}
	min := int64(0)
	if allowNone {
		min = -1
	}
	if v < min || v > MaxCPUID {
		d.err = fmt.Errorf("trace: implausible CPU id %d", v)
		return 0
	}
	return int32(v)
}

// count decodes an element count for an array whose elements occupy
// at least one payload byte each, so any count beyond the remaining
// payload is provably corrupt and rejected before allocation.
func (d *dec) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off) {
		d.err = ErrTruncated
		return 0
	}
	return int(v)
}

// decodeTopology decodes and validates a topology payload. The element
// counts are checked against the remaining payload first, so corrupt
// streams cannot demand huge arrays.
func decodeTopology(d *dec) (Topology, error) {
	var t Topology
	t.Name = d.str()
	numNodes := d.count()
	t.NumNodes = int32(numNodes)
	t.NodeOfCPU = make([]int32, d.count())
	for i := range t.NodeOfCPU {
		t.NodeOfCPU[i] = int32(d.uvarint())
	}
	if d.err == nil && int64(numNodes)*int64(numNodes) > int64(len(d.b)-d.off) {
		d.err = ErrTruncated
	}
	if d.err != nil {
		return Topology{}, d.err
	}
	t.Distance = make([]int32, numNodes*numNodes)
	for i := range t.Distance {
		t.Distance[i] = int32(d.uvarint())
	}
	if d.err != nil {
		return Topology{}, d.err
	}
	return t, t.Validate()
}

// Read decodes all records from r, invoking the handler's callbacks:
// the framer driven record by record, each going to its callback as it
// is cut. It stops at the first framing or decode error or the first
// error a callback returns; the stream must end at a record boundary.
func Read(r io.Reader, h Handler) error {
	f := newFramer(r, readSize, true, false)
	var scratch RecordBatch
	for {
		kind, payload, err := f.record()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		f.release()
		if err := dispatch(kind, payload, &h, &scratch); err != nil {
			return err
		}
	}
}

// dispatch hands one record to its callback. Record kinds without a
// callback are skipped undecoded; the others go through decodeInto,
// the one wire decoder, into the reused scratch batch.
func dispatch(kind uint64, payload []byte, h *Handler, b *RecordBatch) error {
	switch kind {
	case recTopology:
		return deliver(h.Topology, kind, payload, b, &b.Topologies)
	case recTaskType:
		return deliver(h.TaskType, kind, payload, b, &b.TaskTypes)
	case recTask:
		return deliver(h.Task, kind, payload, b, &b.Tasks)
	case recState:
		return deliver(h.State, kind, payload, b, &b.States)
	case recDiscrete:
		return deliver(h.Discrete, kind, payload, b, &b.Discrete)
	case recCounterDesc:
		return deliver(h.CounterDesc, kind, payload, b, &b.Descs)
	case recCounterSample:
		return deliver(h.Sample, kind, payload, b, &b.Samples)
	case recComm:
		return deliver(h.Comm, kind, payload, b, &b.Comms)
	case recMemRegion:
		return deliver(h.Region, kind, payload, b, &b.Regions)
	}
	if h.Unknown != nil {
		return h.Unknown(kind, payload)
	}
	return nil
}

// deliver decodes one record of the kind that decodeInto appends to
// *got (a field of b) and passes the decoded value to cb.
func deliver[T any](cb func(T) error, kind uint64, payload []byte, b *RecordBatch, got *[]T) error {
	if cb == nil {
		return nil
	}
	if err := decodeInto(kind, payload, b, nil); err != nil {
		return err
	}
	v := (*got)[0]
	*got = (*got)[:0]
	return cb(v)
}

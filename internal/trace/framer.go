package trace

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
)

// maxRecordSize bounds a single record's payload. Real records are a
// handful of varints (the largest, a topology for thousands of CPUs,
// stays in kilobytes); a length field beyond this bound is a corrupt
// or malicious stream, rejected before any buffer grows for it.
const maxRecordSize = 1 << 28

// payloadChunk bounds one growth step of the framer's buffer: a corrupt
// length field costs at most one chunk before the stream runs dry.
const payloadChunk = 1 << 20

// readSize is the buffer size of the readers that decode as they cut.
const readSize = 64 << 10

// framer is the one reader of the wire format (Section VI-A: magic and
// version, then self-describing records of kind uvarint, payload size
// uvarint, payload). It owns the read buffer, validates the header once
// and cuts whole records out of the buffered bytes. Read, ReadBatched
// and StreamReader are drivers of it; they differ in what they do with
// a cut record, in what the end of the data means (toEOF) and in who
// owns the bytes afterwards (handOff).
type framer struct {
	r    io.Reader
	buf  []byte
	size int // the buffer's capacity unless one long record needs more
	// buf[:lo] is released, buf[lo:off] cut and still claimed by the
	// driver, buf[off:] the unfinished tail; base is the stream offset
	// of buf[0], so base+off is record-aligned.
	lo, off int
	base    int64
	header  bool // magic and version validated
	// toEOF: nothing but io.EOF ends the data, and a stream that ends
	// inside a record is truncated. Without it (Poll) the end of what
	// is there for now is not the end: a partial record just waits.
	toEOF bool
	// handOff: released runs are read later by someone else (the
	// parallel workers), so their array is never written again and the
	// framer moves to a fresh one when it needs room.
	handOff bool
	pending error // read error that arrived together with bytes
}

func newFramer(r io.Reader, size int, toEOF, handOff bool) *framer {
	return &framer{r: r, buf: make([]byte, 0, size), size: size, toEOF: toEOF, handOff: handOff}
}

// cutRecord parses the record at the front of b: its tag (kind, payload
// size) and the payload that follows, n bytes in all; n == 0 means b
// ends inside the record. Every reader frames with this function, and
// the size limit is applied here, before anyone buffers for the record.
func cutRecord(b []byte) (kind uint64, payload []byte, n int, err error) {
	kind, kn := binary.Uvarint(b)
	if kn <= 0 {
		return 0, nil, 0, varintErr("record kind", kn)
	}
	size, sn := binary.Uvarint(b[kn:])
	if sn <= 0 {
		return 0, nil, 0, varintErr("record size", sn)
	}
	if size > maxRecordSize {
		return 0, nil, 0, fmt.Errorf("trace: record payload of %d bytes exceeds the %d byte limit", size, maxRecordSize)
	}
	tag := kn + sn
	if uint64(len(b)-tag) < size {
		return 0, nil, 0, nil
	}
	n = tag + int(size)
	return kind, b[tag:n], n, nil
}

// varintErr is the error for binary.Uvarint's n <= 0: none for a varint
// that is merely incomplete.
func varintErr(what string, n int) error {
	if n < 0 {
		return fmt.Errorf("trace: reading %s: varint overflow", what)
	}
	return nil
}

// parseHeader validates the stream magic and version at the front of b
// and returns the header length, 0 when b ends inside it.
func parseHeader(b []byte) (int, error) {
	if len(b) < len(magic) {
		return 0, nil
	}
	if !SniffNative(b) {
		return 0, ErrBadMagic
	}
	version, n := binary.Uvarint(b[len(magic):])
	if n <= 0 {
		return 0, varintErr("version", n)
	}
	if version > formatVersion {
		return 0, fmt.Errorf("trace: unsupported format version %d (max %d)", version, formatVersion)
	}
	return len(magic) + n, nil
}

// next cuts the next whole record out of the buffer; ok is false when
// the buffer ends inside the header or a record. The payload aliases
// the buffer: valid until the next read, for good under handOff.
func (f *framer) next() (kind uint64, payload []byte, ok bool, err error) {
	if !f.header {
		n, err := parseHeader(f.buf)
		if n == 0 {
			return 0, nil, false, err
		}
		f.header, f.lo, f.off = true, n, n
	}
	kind, payload, n, err := cutRecord(f.buf[f.off:])
	if n > 0 { // a Poll that finds nothing new writes nothing
		f.off += n
	}
	return kind, payload, n > 0, err
}

// release returns the records cut since the last release as one run of
// bytes and gives up the driver's claim on them.
func (f *framer) release() []byte {
	run := f.buf[f.lo:f.off]
	f.lo = f.off
	return run
}

// read reads from the underlying reader: nil when new bytes are
// buffered (an error that came with them is kept for the next call, so
// a driver cuts what it has first), io.EOF at the end of the data — for
// a live stream also a Read that returned nothing, which toEOF retries
// until it gives the reader up. A full buffer makes room first: released
// bytes are dropped, and a buffer that is mostly one unfinished record
// grows by what has arrived, at most payloadChunk a step.
func (f *framer) read() error {
	if err := f.pending; err != nil {
		f.pending = nil
		return err
	}
	if len(f.buf) == cap(f.buf) {
		keep, size := f.buf[f.lo:], f.size
		if len(keep) > size/2 {
			size = len(keep) + min(len(keep), payloadChunk)
		}
		if f.handOff || size > cap(f.buf) {
			f.buf = append(make([]byte, 0, size), keep...)
		} else {
			f.buf = f.buf[:copy(f.buf, keep)]
		}
		f.base += int64(f.lo)
		f.lo, f.off = 0, f.off-f.lo
	}
	for tries := 0; tries < 100; tries++ {
		n, err := f.r.Read(f.buf[len(f.buf):cap(f.buf)])
		f.buf = f.buf[:len(f.buf)+n]
		switch {
		case n > 0:
			f.pending = err
			return nil
		case err != nil:
			return err
		case !f.toEOF:
			return io.EOF
		}
	}
	return io.ErrNoProgress
}

// record is next for the toEOF drivers: it reads on until there is a
// record, and returns io.EOF when the stream ended at a record
// boundary, end's error when it ended anywhere else.
func (f *framer) record() (kind uint64, payload []byte, err error) {
	for {
		kind, payload, ok, err := f.next()
		if ok || err != nil {
			return kind, payload, err
		}
		if err = f.read(); err == io.EOF {
			err = cmp.Or(f.end(), err)
		}
		if err != nil {
			return 0, nil, err
		}
	}
}

// end reports how the stream stands if no more bytes come: ErrBadMagic
// before a complete header, ErrTruncated inside a record.
func (f *framer) end() error {
	if !f.header {
		return ErrBadMagic
	}
	if f.off < len(f.buf) {
		return ErrTruncated
	}
	return nil
}

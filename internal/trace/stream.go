package trace

import (
	"cmp"
	"io"
)

// StreamReader incrementally decodes a trace that is still being
// written: the framer plus batch building. Each Poll decodes the whole
// records among the bytes currently available into RecordBatch values
// (stream order, flushed at batchRecords) and leaves the partial record
// at the end with the framer for the next Poll. It is the decode layer
// of the live ingest path — a follower polls it and feeds the batches
// to core.Live.Append — and, told to read to io.EOF, ReadBatched's
// one-worker reader.
//
// The underlying reader must report io.EOF at the current end of data
// and return fresh bytes on later Reads, as an *os.File does; a gzip
// stream cannot be tailed (ingest.OpenStream rejects it). Not safe for
// concurrent use: callers serialize Polls (core.Live.Feed under its
// epoch lock).
type StreamReader struct {
	f   *framer
	t   *tally
	err error
}

// NewStreamReader returns a StreamReader decoding the trace stream r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{f: newFramer(r, readSize, false, false), t: newTally()}
}

// Consumed returns the number of stream bytes cut into records so far.
// The offset is always record-aligned (header included), so the stream
// prefix of Consumed() bytes is itself a loadable trace.
func (sr *StreamReader) Consumed() int64 { return sr.f.base + int64(sr.f.off) }

// Buffered returns the number of bytes read but not yet decodable (the
// partial record waiting for the producer's next write).
func (sr *StreamReader) Buffered() int { return len(sr.f.buf) - sr.f.off }

// Done reports whether the stream ended cleanly: the sticky error if
// one occurred, else nil at a record boundary, ErrTruncated inside a
// record and ErrBadMagic before a complete header (as Read reports an
// empty stream).
func (sr *StreamReader) Done() error { return cmp.Or(sr.err, sr.f.end()) }

// Poll decodes every complete record among the bytes currently
// available and delivers them as batches to emit in stream order; it
// returns the number of records decoded. Reading and decoding
// interleave, so attaching to a large trace never buffers more than one
// read plus a partial record. Running out of data mid-record is not an
// error — the partial record waits for the next Poll; framing and
// decode errors, and errors returned by emit, are sticky.
func (sr *StreamReader) Poll(emit func(*RecordBatch) error) (int, error) {
	if sr.err != nil {
		return 0, sr.err
	}
	b := &RecordBatch{}
	// flush hands the current batch, if non-empty, to emit. It is gone
	// even if emit fails: no batch is ever delivered twice.
	flush := func() error {
		if b.empty() {
			return nil
		}
		full := b
		b = &RecordBatch{}
		sr.t.reset(full)
		return emit(full)
	}
	total := 0
	for {
		kind, payload, ok, err := sr.f.next()
		if ok {
			if err = decodeInto(kind, payload, b, sr.t); err == nil {
				if total++; total%batchRecords == 0 {
					err = flush()
				}
			}
		} else if err == nil {
			sr.f.release()
			if err = sr.f.read(); err == io.EOF {
				sr.err = flush()
				return total, sr.err
			}
		}
		if err != nil {
			_ = flush() // the records decoded before the failure are valid
			sr.err = err
			return total, err
		}
	}
}

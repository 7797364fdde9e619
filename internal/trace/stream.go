package trace

import (
	"cmp"
	"io"
)

// StreamReader incrementally decodes a trace that is still being
// written: the framer plus batch building. Each Poll cuts the whole
// records among the bytes currently available into runs, counted by
// kind, and decodes each run into a RecordBatch sized at those counts,
// as ReadBatched's decode workers do (frameJob); it leaves the partial
// record at the end with the framer for the next Poll. It is the decode
// layer of the live ingest path — a follower polls it and feeds the
// batches to core.Live.Append — and, told to read to io.EOF,
// ReadBatched's one-worker reader.
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
// returns the number of records decoded. It cuts runs of whole records
// out of the buffered bytes, counting them by kind as the parallel
// reader's framer does, and decodes each run, before the next read
// reuses its bytes, into a batch built by frameJob.newBatch: every slice
// allocated once at its length. A run ends at batchRecords records or
// where the buffered bytes do, so attaching to a large trace never
// buffers more than one read plus a partial record. Running out of data
// mid-record is not an error — the partial record waits for the next
// Poll; framing and decode errors, and errors returned by emit, are
// sticky, and the records decoded before a failure are delivered first.
func (sr *StreamReader) Poll(emit func(*RecordBatch) error) (int, error) {
	if sr.err != nil {
		return 0, sr.err
	}
	total, nrec := 0, 0
	var kinds kindCounts
	// flush decodes the records cut since the last flush into one batch
	// and hands it to emit. It is gone even if emit fails: no batch is
	// ever delivered twice.
	flush := func() error {
		job := frameJob{run: sr.f.release(), kinds: kinds}
		kinds, nrec = kindCounts{}, 0
		if len(job.run) == 0 {
			return nil
		}
		b, n, err := job.decode(sr.t)
		total += n
		if err != nil {
			b.clip() // the records decoded before the failure are valid
		}
		var emitErr error
		if !b.empty() {
			emitErr = emit(b)
		}
		return cmp.Or(err, emitErr)
	}
	for {
		kind, _, ok, err := sr.f.next()
		switch {
		case ok:
			kinds.add(kind)
			if nrec++; nrec == batchRecords {
				err = flush()
			}
		case err == nil:
			if err = flush(); err == nil {
				if err = sr.f.read(); err == io.EOF {
					return total, nil
				}
			}
		default:
			// What was cut before the failure goes out first: an earlier
			// decode error wins.
			err = cmp.Or(flush(), err)
		}
		if err != nil {
			sr.err = err
			return total, err
		}
	}
}

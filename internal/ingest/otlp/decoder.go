package otlp

import (
	"errors"
	"fmt"
	"io"

	"github.com/openstream/aftermath/internal/trace"
)

// flushSpans is the batch granularity: the decoder hands a record
// batch to its consumer after folding in this many spans (and always
// at the end of a poll). Batch boundaries carry no meaning — the
// emitted record stream is identical for any flush size, which is what
// makes a batch import and an incremental follow of the same file
// converge on the same trace.
const flushSpans = 2048

// readChunk is the most one Read is asked for, and the size of the
// buffer unless one long document needs more.
const readChunk = 1 << 16

// maxDocSize bounds a single document — the native framer's bound on a
// record. Nothing else limits what a stream that opens a string and
// never closes it makes a decoder buffer, in a server that may follow
// it for days.
const maxDocSize = 1 << 28

// Decoder incrementally parses a span stream (stdouttrace lines or
// concatenated OTLP-JSON documents) and emits normalized record
// batches; it implements trace.Decoder, so core.Live and the follow
// loop ingest span files exactly like native traces.
//
// Bytes are read in place into one buffer and scanned there (scanDoc);
// a span costs the strings it is the first to mention — service,
// operation and trace id are interned — and its share of the record
// batch. A partial document at the end of the available bytes stays
// buffered until the producer appends the rest: Consumed advances only
// over fully parsed documents, mirroring the native reader's
// record-aligned accounting that the truncation check depends on. A
// document that did not scan whole is not scanned again while it
// grows: the bytes that arrive are searched for its closing brace,
// once each, and it is scanned when that is there — so a poll costs
// what it delivered, not what is buffered, and a document what it
// holds, however it arrives.
type Decoder struct {
	r   io.Reader
	buf []byte // buf[off:] is read and not consumed
	off int
	// partial says the document at buf[off] ran past the buffer when it
	// was scanned, and end is the state of the search for its end.
	partial  bool
	end      docEnd
	consumed int64
	scanned  int64 // bytes scanDoc and docEnd.find have looked at
	maxDoc   int   // maxDocSize
	err      error

	s        scanner
	interned map[string]string // service and operation names

	st       *inferState
	spanBuf  []span
	sawDoc   bool
	pollSeen int // spans folded since the last flush
	batch    *trace.RecordBatch
}

var _ trace.Decoder = (*Decoder)(nil)

// NewDecoder returns a Decoder reading the span stream from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{
		r: r, maxDoc: maxDocSize,
		interned: make(map[string]string),
		st:       newInferState(), batch: &trace.RecordBatch{},
	}
}

// Poll parses all complete documents currently available from the
// reader, emitting record batches, and returns the number of spans
// imported. Parse errors are sticky: span streams have no record
// framing to resynchronize on, so a malformed document poisons
// everything after it.
func (d *Decoder) Poll(emit func(*trace.RecordBatch) error) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	total := 0
	for {
		nr, rerr := d.fill()
		if rerr != nil && rerr != io.EOF {
			d.err = rerr
			return total, rerr
		}
		if nr > 0 {
			n, err := d.parseBuffered(emit)
			total += n
			if err != nil {
				d.err = err
				return total, err
			}
		}
		// EOF is not sticky for the reader: a growing file yields EOF
		// at its current end and more bytes on the next poll.
		if rerr == io.EOF || nr == 0 {
			break
		}
	}
	if err := d.flush(emit); err != nil {
		d.err = err
		return total, err
	}
	return total, nil
}

// fill reads once, at most readChunk bytes, behind the buffered bytes.
// A full buffer makes room first, like trace.framer's: consumed bytes
// are dropped, and a buffer that is mostly one unfinished document
// doubles, so a long document is moved O(1) times a byte. An empty one
// returns to readChunk.
func (d *Decoder) fill() (int, error) {
	if keep := d.buf[d.off:]; len(d.buf) == cap(d.buf) || len(keep) == 0 {
		size := min(max(readChunk, 2*len(keep)), d.maxDoc+readChunk)
		if size == cap(d.buf) {
			d.buf = d.buf[:copy(d.buf, keep)]
		} else {
			d.buf = append(make([]byte, 0, size), keep...)
		}
		d.end.pos -= d.off
		d.off = 0
	}
	n, err := d.r.Read(d.buf[len(d.buf):min(cap(d.buf), len(d.buf)+readChunk)])
	d.buf = d.buf[:len(d.buf)+n]
	return n, err
}

// parseBuffered consumes complete JSON documents from the front of the
// buffer, folding their spans into the inference state.
func (d *Decoder) parseBuffered(emit func(*trace.RecordBatch) error) (int, error) {
	total := 0
	for {
		// Whitespace between documents is consumed eagerly so the
		// buffered tail is exactly the partial document.
		for d.off < len(d.buf) && isJSONSpace(d.buf[d.off]) {
			d.off++
			d.consumed++
		}
		doc := d.buf[d.off:]
		if len(doc) == 0 {
			return total, nil
		}
		if d.partial {
			before := d.end.pos
			whole := d.end.find(d.buf)
			d.scanned += int64(d.end.pos - before)
			if !whole {
				return total, d.tooLong(len(doc))
			}
			doc = d.buf[d.off:d.end.pos]
		}
		spans, n, err := d.scanDoc(d.spanBuf[:0], doc)
		d.spanBuf = spans[:0]
		d.scanned += int64(d.s.pos)
		if err == errShort && !d.partial {
			d.partial, d.end = true, docEnd{pos: d.off}
			return total, d.tooLong(len(doc))
		}
		if err != nil {
			at := d.consumed
			var syn *syntaxError
			if errors.As(err, &syn) {
				at += int64(syn.off)
			}
			return total, fmt.Errorf("spans: offset %d: %w", at, err)
		}
		if err := d.tooLong(n); err != nil {
			return total, err
		}
		d.partial = false
		d.sawDoc = true
		for i := range spans {
			d.batch = d.st.addSpan(&spans[i], d.batch)
			d.pollSeen++
			total++
			if d.pollSeen >= flushSpans {
				if err := d.flush(emit); err != nil {
					return total, err
				}
			}
		}
		d.off += n
		d.consumed += int64(n)
	}
}

// tooLong is the error for a document of n bytes, or n bytes of one so
// far, past the size limit; nil within it.
func (d *Decoder) tooLong(n int) error {
	if n <= d.maxDoc {
		return nil
	}
	return fmt.Errorf("spans: offset %d: document exceeds the %d byte limit", d.consumed, d.maxDoc)
}

// docEnd searches for the end of a document without parsing it:
// brackets are counted and strings stepped over, nothing is checked —
// scanDoc does that, once, when the document is whole. The search
// stops at the end of the buffer and goes on from there when more has
// arrived.
type docEnd struct {
	pos        int // buf[pos:] is not searched yet
	depth      int
	inStr, esc bool
}

// find searches on and reports whether buf[:pos] now ends the document.
func (e *docEnd) find(buf []byte) bool {
	for i := e.pos; i < len(buf); i++ {
		c := buf[i]
		switch {
		case e.esc:
			e.esc = false
		case e.inStr:
			e.esc, e.inStr = c == '\\', c != '"'
		case c == '"':
			e.inStr = true
		case c == '{' || c == '[':
			e.depth++
		case c == '}' || c == ']':
			if e.depth--; e.depth <= 0 {
				e.pos = i + 1
				return true
			}
		}
	}
	e.pos = len(buf)
	return false
}

// flush completes and emits the in-progress batch; an empty batch (an
// idle poll) publishes nothing. The next batch starts at the size this
// one reached.
func (d *Decoder) flush(emit func(*trace.RecordBatch) error) error {
	if d.pollSeen == 0 && batchEmpty(d.batch) {
		return nil
	}
	d.st.finishBatch(d.batch)
	b := d.batch
	d.batch = &trace.RecordBatch{
		Tasks:    make([]trace.Task, 0, len(b.Tasks)),
		States:   make([]trace.StateEvent, 0, len(b.States)),
		Discrete: make([]trace.DiscreteEvent, 0, len(b.Discrete)),
	}
	d.pollSeen = 0
	return emit(b)
}

func batchEmpty(b *trace.RecordBatch) bool {
	return len(b.Topologies) == 0 && len(b.TaskTypes) == 0 && len(b.Tasks) == 0 &&
		len(b.States) == 0 && len(b.Discrete) == 0 && len(b.Descs) == 0 &&
		len(b.Samples) == 0 && len(b.Comms) == 0 && len(b.Regions) == 0
}

// Consumed returns the bytes consumed as fully parsed documents.
func (d *Decoder) Consumed() int64 { return d.consumed }

// Buffered returns the bytes of the partial document held back for the
// next poll.
func (d *Decoder) Buffered() int { return len(d.buf) - d.off }

// Done verifies the stream ended cleanly: no sticky error, no partial
// document in the buffer, and at least one span document seen (an
// empty "span stream" is indistinguishable from a misdetected file and
// is rejected rather than imported as an empty trace).
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if n := d.Buffered(); n != 0 {
		return fmt.Errorf("spans: stream ends with a truncated document (%d bytes after offset %d)", n, d.consumed)
	}
	if !d.sawDoc {
		return errors.New("spans: stream contained no span documents")
	}
	return nil
}

// Report returns the inference summary over everything imported so
// far. It is safe to call at any point of the stream; the report
// reflects the spans seen up to that point.
func (d *Decoder) Report() *Report { return d.st.report() }

func isJSONSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

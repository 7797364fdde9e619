package otlp

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

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

// handoffSpans is how many spans the scanner gathers before it hands
// them to the caller: whole documents only, so a chunk ends at the
// first document boundary past this many spans.
const handoffSpans = 256

// handoffs is how many span chunks there are: the scanner runs at most
// this many chunks ahead of inference, and each of the two channels
// they travel on holds them all, so a send never blocks.
const handoffs = 4

// Decoder incrementally parses a span stream (stdouttrace lines or
// concatenated OTLP-JSON documents) and emits normalized record
// batches; it implements trace.Decoder, so core.Live and the follow
// loop ingest span files exactly like native traces.
//
// A poll is two stages, each on its own goroutine. The scanner, a
// goroutine the poll starts and waits for, reads: bytes in place into
// one buffer (fill), the JSON walk over them (scanDoc), timestamps and
// ids parsed, and service, operation and trace-id strings interned, so
// a span costs the strings it is the first to mention. It hands the
// spans of whole documents over in stream order, in chunks of about
// handoffSpans. The caller's goroutine infers: it folds each span into
// the inference state (addSpan), cuts a record batch every flushSpans
// spans and hands it to emit. emit stays on the caller because it is
// core.Live's append under Feed's lock, which must run synchronously
// inside Poll; and the stages share nothing but the chunks, since the
// scanner writes no state inference reads. A poll that reads nothing
// starts no scanner and allocates nothing; at GOMAXPROCS=1 the two
// stages take turns through the same code.
//
// A partial document at the end of the available bytes stays
// buffered until the producer appends the rest: Consumed advances only
// over fully parsed documents, mirroring the native reader's
// record-aligned accounting that the truncation check depends on. A
// document that did not scan whole is not scanned again while it
// grows: the bytes that arrive are searched for its closing brace,
// once each, and it is scanned when that is there — so a poll costs
// what it delivered, not what is buffered, and a document what it
// holds, however it arrives.
type Decoder struct {
	r io.Reader

	// The scanner's state: while a poll runs, only its goroutine
	// touches these, and the caller reads them once the poll is over.
	buf []byte // buf[off:] is read and not consumed
	off int
	// partial says the document at buf[off] ran past the buffer when it
	// was scanned, and end is the state of the search for its end.
	partial  bool
	end      docEnd
	consumed int64
	scanned  int64 // bytes scanDoc and docEnd.find have looked at
	maxDoc   int   // maxDocSize
	sawDoc   bool
	s        scanner
	interned map[string]string // service and operation names, trace ids

	// The handoff: chunks of spans from the scanner to the caller, and
	// their buffers back; made by the first poll that reads anything.
	// halt tells the scanner the caller has stopped taking spans.
	full chan chunk
	free chan []span
	halt atomic.Bool

	// The caller's state: inference and the batch being built.
	err      error
	st       *inferState
	pollSeen int // spans folded since the last flush
	batch    *trace.RecordBatch
}

// chunk is one handoff from the scanner: the spans of whole documents
// in stream order and, on the last chunk of a poll, why the scanner
// stopped — err for a read or parse error, panicked for a panic to
// raise again on the caller.
type chunk struct {
	spans    []span
	last     bool
	err      error
	panicked any
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
// imported. emit runs on the caller's goroutine, batch after batch in
// stream order. Parse errors are sticky: span streams have no record
// framing to resynchronize on, so a malformed document poisons
// everything after it.
func (d *Decoder) Poll(emit func(*trace.RecordBatch) error) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	// The first read is the caller's, so an idle poll starts nothing.
	nr, rerr := d.fill()
	if rerr != nil && rerr != io.EOF {
		d.err = rerr
		return 0, rerr
	}
	total := 0
	if nr > 0 {
		if d.full == nil {
			d.full, d.free = make(chan chunk, handoffs), make(chan []span, handoffs)
			for range handoffs {
				d.free <- make([]span, 0, handoffSpans)
			}
		}
		// EOF is not sticky for the reader: a growing file yields EOF
		// at its current end and more bytes on the next poll.
		go d.scan(rerr == nil)
		var err error
		if total, err = d.infer(emit); err != nil {
			d.err = err
			return total, err
		}
	}
	if err := d.flush(emit); err != nil {
		d.err = err
		return total, err
	}
	return total, nil
}

// scan is the scanner's goroutine: it scans what the poll's first read
// buffered and, while more may follow, reads on, until the reader has
// nothing more, an error stops it or the caller halts it. Its last
// chunk says why it stopped, and nothing runs after that send.
func (d *Decoder) scan(more bool) {
	spans := <-d.free
	var err error
	defer func() {
		d.full <- chunk{spans: spans, last: true, err: err, panicked: recover()}
	}()
	for {
		if spans, err = d.scanBuffered(spans); err != nil || !more || d.halt.Load() {
			return
		}
		var nr int
		if nr, err = d.fill(); err == io.EOF {
			err, more = nil, false
		}
		if err != nil || nr == 0 {
			return
		}
	}
}

// infer is the caller's stage: it folds the scanner's spans into the
// inference state in stream order, emitting a batch every flushSpans,
// and returns once the scanner has stopped. After an emit error it
// halts the scanner and folds nothing more; the chunks still on their
// way are returned unread.
func (d *Decoder) infer(emit func(*trace.RecordBatch) error) (total int, err error) {
	for {
		c := <-d.full
		if c.panicked != nil {
			d.err = fmt.Errorf("spans: scanner panicked: %v", c.panicked)
			panic(c.panicked)
		}
		for i := 0; i < len(c.spans) && err == nil; i++ {
			d.batch = d.st.addSpan(&c.spans[i], d.batch)
			d.pollSeen++
			total++
			if d.pollSeen >= flushSpans {
				if err = d.flush(emit); err != nil {
					d.halt.Store(true)
				}
			}
		}
		d.free <- c.spans[:0]
		if !c.last {
			continue
		}
		if err == nil {
			err = c.err
		}
		return total, err
	}
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

// scanBuffered consumes complete JSON documents from the front of the
// buffer, appending their spans to spans and handing the chunk to the
// caller each time it reaches handoffSpans; it stops early once the
// caller has halted.
func (d *Decoder) scanBuffered(spans []span) ([]span, error) {
	for !d.halt.Load() {
		// Whitespace between documents is consumed eagerly so the
		// buffered tail is exactly the partial document.
		for d.off < len(d.buf) && isJSONSpace(d.buf[d.off]) {
			d.off++
			d.consumed++
		}
		doc := d.buf[d.off:]
		if len(doc) == 0 {
			break
		}
		if d.partial {
			before := d.end.pos
			whole := d.end.find(d.buf)
			d.scanned += int64(d.end.pos - before)
			if !whole {
				return spans, d.tooLong(len(doc))
			}
			doc = d.buf[d.off:d.end.pos]
		}
		mark := len(spans)
		var n int
		var err error
		spans, n, err = d.scanDoc(spans, doc)
		d.scanned += int64(d.s.pos)
		if err == errShort && !d.partial {
			d.partial, d.end = true, docEnd{pos: d.off}
			return spans, d.tooLong(len(doc))
		}
		if err != nil {
			at := d.consumed
			var syn *syntaxError
			if errors.As(err, &syn) {
				at += int64(syn.off)
			}
			return spans, fmt.Errorf("spans: offset %d: %w", at, err)
		}
		if err := d.tooLong(n); err != nil {
			return spans[:mark], err
		}
		d.partial = false
		d.sawDoc = true
		d.off += n
		d.consumed += int64(n)
		if len(spans) >= handoffSpans {
			d.full <- chunk{spans: spans}
			spans = <-d.free
		}
	}
	return spans, nil
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

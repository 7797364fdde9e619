package otlp

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/openstream/aftermath/internal/trace"
)

// TestPollIdleAllocatesNothing: a poll that reads nothing starts no
// scanner and allocates nothing, after a drained stream and behind a
// partial document alike.
func TestPollIdleAllocatesNothing(t *testing.T) {
	data := spanStream(600)
	gr := &growingReader{data: data}
	d := NewDecoder(gr)
	if n, err := drain(d); err != nil || n != 600 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if a := testing.AllocsPerRun(100, func() { drain(d) }); a != 0 {
		t.Errorf("an idle poll after a drained stream allocates %.1f objects, want 0", a)
	}
	gr.data = append(data, data[:len(data)/3]...)
	if _, err := drain(d); err != nil || d.Buffered() == 0 {
		t.Fatalf("half a document: err=%v, %d bytes buffered", err, d.Buffered())
	}
	if a := testing.AllocsPerRun(100, func() { drain(d) }); a != 0 {
		t.Errorf("an idle poll behind a partial document allocates %.1f objects, want 0", a)
	}
}

// countingReader counts the bytes read from it, for another goroutine
// than the reader's to see.
type countingReader struct {
	chunkReader
	read atomic.Int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.chunkReader.Read(p)
	r.read.Add(int64(n))
	return n, err
}

// TestPollEmitErrorStops: an emit error ends the poll with that error,
// sticky from then on; no span of a later document reaches emit, and
// the scanner, which may have read ahead of inference, stops reading
// within its handoff buffers and reads nothing once the poll is over.
func TestPollEmitErrorStops(t *testing.T) {
	data := spanStream(10_000)
	maxLine := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		maxLine = max(maxLine, len(line)+1)
	}
	r := &countingReader{chunkReader: chunkReader{data: data, chunk: 4 << 10}}
	d := NewDecoder(r)
	boom := errors.New("emit failed")
	var calls int
	var readAtFailure int64
	emit := func(*trace.RecordBatch) error {
		if calls++; calls == 2 {
			readAtFailure = r.read.Load()
			return boom
		}
		return nil
	}
	n, err := d.Poll(emit)
	if !errors.Is(err, boom) || n != 2*flushSpans {
		t.Fatalf("Poll = %d, %v; want %d, %v", n, err, 2*flushSpans, boom)
	}
	if calls != 2 {
		t.Fatalf("emit called %d times, want 2", calls)
	}
	// Ahead of the failing batch there can be a chunk being folded, the
	// chunks in flight and the one being scanned, and one read.
	if ahead, bound := r.read.Load()-readAtFailure, int64((handoffs+2)*handoffSpans*maxLine+readChunk); ahead > bound {
		t.Errorf("the scanner read %d bytes after emit failed, want at most %d", ahead, bound)
	}
	if r.read.Load() == int64(len(data)) {
		t.Errorf("the scanner read the whole %d byte stream past a failed emit", len(data))
	}
	read := r.read.Load()
	for range 2 {
		if n, err := d.Poll(emit); n != 0 || !errors.Is(err, boom) {
			t.Fatalf("poll after the failure: %d, %v; want 0, %v", n, err, boom)
		}
	}
	if !errors.Is(d.Done(), boom) {
		t.Fatalf("Done = %v, want %v", d.Done(), boom)
	}
	if calls != 2 || r.read.Load() != read {
		t.Fatalf("after the failure: %d more emits, %d more bytes read", calls-2, r.read.Load()-read)
	}
}

// TestPollSameStreamHoweverRead: a stream with a malformed document in
// the middle, read a byte at a time, seven bytes at a time and as much
// as each read asks for, emits the same batches up to the error, the
// same error and the same Consumed — the figures a decoder that scanned
// and inferred on one goroutine gave, recorded here.
func TestPollSameStreamHoweverRead(t *testing.T) {
	const (
		serialSpans    = 2300 // folded before the error, of which one batch emitted
		serialBatches  = 1
		serialConsumed = 752_420
		serialErr      = `spans: offset 752469: invalid character '}' in literal true`
	)
	data := spanStream(serialSpans)
	data = append(data, "\n  "+`{"Name":"x","SpanContext":{"SpanID":"0b"},"x":tru}`+"\n"...)
	data = append(data, spanStream(300)...)

	type result struct {
		batches  []*trace.RecordBatch
		spans    int
		err      string
		consumed int64
	}
	read := func(r io.Reader) (res result) {
		d := NewDecoder(r)
		for {
			n, err := d.Poll(func(b *trace.RecordBatch) error {
				res.batches = append(res.batches, b)
				return nil
			})
			res.spans += n
			if err != nil {
				res.err = err.Error()
			}
			if err != nil || n == 0 {
				res.consumed = d.Consumed()
				return res
			}
		}
	}
	whole := read(bytes.NewReader(data))
	if whole.spans != serialSpans || len(whole.batches) != serialBatches || whole.consumed != serialConsumed || whole.err != serialErr {
		t.Fatalf("one read: %d spans, %d batches, consumed %d, error %q; want %d, %d, %d, %q",
			whole.spans, len(whole.batches), whole.consumed, whole.err, serialSpans, serialBatches, serialConsumed, serialErr)
	}
	for name, r := range map[string]io.Reader{
		"1-byte reads": &oneByteReader{data: data},
		"7-byte reads": &chunkReader{data: data, chunk: 7},
	} {
		if got := read(r); !reflect.DeepEqual(got, whole) {
			t.Errorf("%s: %d spans, %d batches, consumed %d, error %q; want what one read gives",
				name, got.spans, len(got.batches), got.consumed, got.err)
		}
	}
}

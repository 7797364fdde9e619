package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// limitedReader exposes data[:limit] and reports io.EOF at the current
// limit — the behavior of a file that is still being written.
type limitedReader struct {
	data  []byte
	limit int
	off   int
}

func (g *limitedReader) Read(p []byte) (int, error) {
	if g.off >= g.limit {
		return 0, io.EOF
	}
	n := copy(p, g.data[g.off:g.limit])
	g.off += n
	return n, nil
}

// streamTestTrace writes a small trace with every record kind.
func streamTestTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(Topology{Name: "m", NumNodes: 2, NodeOfCPU: []int32{0, 1}, Distance: []int32{0, 1, 1, 0}}))
	must(w.WriteTaskType(TaskType{ID: 1, Addr: 0x10, Name: "work"}))
	must(w.WriteCounterDesc(CounterDesc{ID: 3, Name: "cycles", Monotonic: true}))
	must(w.WriteRegion(MemRegion{ID: 1, Addr: 0x1000, Size: 64, Node: 0}))
	for i := 0; i < 300; i++ {
		cpu := int32(i % 2)
		t0 := int64(10 * i)
		must(w.WriteTask(Task{ID: TaskID(i + 1), Type: 1, Created: t0, CreatorCPU: cpu}))
		must(w.WriteState(StateEvent{CPU: cpu, State: StateTaskExec, Start: t0, End: t0 + 8, Task: TaskID(i + 1)}))
		must(w.WriteDiscrete(DiscreteEvent{CPU: cpu, Kind: EventTaskCreated, Time: t0, Arg: uint64(i + 1)}))
		must(w.WriteSample(CounterSample{CPU: cpu, Counter: 3, Time: t0, Value: int64(i) * 100}))
		must(w.WriteComm(CommEvent{Kind: CommRead, CPU: cpu, SrcCPU: -1, Time: t0, Task: TaskID(i + 1), Addr: 0x1000, Size: 8}))
	}
	must(w.Flush())
	return buf.Bytes()
}

// collectBatches merges emitted batches into one, preserving order; the
// merged CounterIDs list each counter once, at its first batch.
func collectBatches(dst *RecordBatch, b *RecordBatch) {
	for _, id := range b.CounterIDs {
		if !slices.Contains(dst.CounterIDs, id) {
			dst.CounterIDs = append(dst.CounterIDs, id)
		}
	}
	dst.Topologies = append(dst.Topologies, b.Topologies...)
	dst.TaskTypes = append(dst.TaskTypes, b.TaskTypes...)
	dst.Tasks = append(dst.Tasks, b.Tasks...)
	dst.States = append(dst.States, b.States...)
	dst.Discrete = append(dst.Discrete, b.Discrete...)
	dst.Descs = append(dst.Descs, b.Descs...)
	dst.Samples = append(dst.Samples, b.Samples...)
	dst.Comms = append(dst.Comms, b.Comms...)
	dst.Regions = append(dst.Regions, b.Regions...)
}

// TestStreamReaderChunked: feeding the stream in arbitrary chunk sizes
// (down to a single byte) yields exactly the records a batch read
// yields, with record-aligned consumed offsets throughout.
func TestStreamReaderChunked(t *testing.T) {
	data := streamTestTrace(t)
	var want RecordBatch
	if err := ReadBatched(bytes.NewReader(data), 1, func(b *RecordBatch) error {
		collectBatches(&want, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(21))
	for _, maxChunk := range []int{1, 7, 97, 4096, len(data)} {
		g := &limitedReader{data: data}
		sr := NewStreamReader(g)
		var got RecordBatch
		for g.limit < len(data) {
			g.limit += 1 + rng.Intn(maxChunk)
			if g.limit > len(data) {
				g.limit = len(data)
			}
			if _, err := sr.Poll(func(b *RecordBatch) error {
				collectBatches(&got, b)
				return nil
			}); err != nil {
				t.Fatalf("maxChunk %d: Poll: %v", maxChunk, err)
			}
			if c := sr.Consumed(); c > int64(g.limit) {
				t.Fatalf("maxChunk %d: consumed %d beyond available %d", maxChunk, c, g.limit)
			}
		}
		if err := sr.Done(); err != nil {
			t.Fatalf("maxChunk %d: Done: %v", maxChunk, err)
		}
		if sr.Consumed() != int64(len(data)) {
			t.Fatalf("maxChunk %d: consumed %d, want %d", maxChunk, sr.Consumed(), len(data))
		}
		if !reflect.DeepEqual(&got, &want) {
			t.Fatalf("maxChunk %d: streamed records differ from batch read", maxChunk)
		}
	}
}

// TestStreamReaderPartialTail: stopping mid-record leaves the tail
// buffered and Done reports truncation; decoding resumes when the rest
// arrives.
func TestStreamReaderPartialTail(t *testing.T) {
	data := streamTestTrace(t)
	g := &limitedReader{data: data, limit: len(data) - 3}
	sr := NewStreamReader(g)
	n1, err := sr.Poll(func(*RecordBatch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if sr.Buffered() == 0 {
		t.Fatal("expected a buffered partial record")
	}
	if err := sr.Done(); err != ErrTruncated {
		t.Fatalf("Done = %v, want ErrTruncated", err)
	}
	g.limit = len(data)
	n2, err := sr.Poll(func(*RecordBatch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n2 == 0 {
		t.Fatal("no records decoded after the tail arrived")
	}
	if err := sr.Done(); err != nil {
		t.Fatalf("Done = %v after full stream", err)
	}
	if n1 == 0 {
		t.Fatal("no records decoded from the initial prefix")
	}
}

// TestStreamReaderBadMagic: a non-trace stream fails with ErrBadMagic,
// and the error is sticky.
func TestStreamReaderBadMagic(t *testing.T) {
	sr := NewStreamReader(bytes.NewReader([]byte("GZIP nope")))
	if _, err := sr.Poll(func(*RecordBatch) error { return nil }); err != ErrBadMagic {
		t.Fatalf("Poll = %v, want ErrBadMagic", err)
	}
	if _, err := sr.Poll(func(*RecordBatch) error { return nil }); err != ErrBadMagic {
		t.Fatalf("second Poll = %v, want sticky ErrBadMagic", err)
	}
}

// TestStreamReaderEmptyStream: polling an empty stream decodes nothing
// and Done mirrors Read's empty-stream error.
func TestStreamReaderEmptyStream(t *testing.T) {
	sr := NewStreamReader(bytes.NewReader(nil))
	if n, err := sr.Poll(func(*RecordBatch) error { return nil }); n != 0 || err != nil {
		t.Fatalf("Poll = (%d, %v), want (0, nil)", n, err)
	}
	if err := sr.Done(); err != ErrBadMagic {
		t.Fatalf("Done = %v, want ErrBadMagic", err)
	}
}

// TestStreamReaderOversizedRecord: a corrupt length field fails
// exactly like the batch readers, before allocating the payload.
func TestStreamReaderOversizedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteTaskType(TaskType{ID: 1, Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Append a frame claiming a payload far beyond the limit.
	data = append(data, 2)                            // kind
	data = append(data, 0xff, 0xff, 0xff, 0xff, 0x7f) // size ≈ 2^34
	sr := NewStreamReader(bytes.NewReader(data))
	if _, err := sr.Poll(func(*RecordBatch) error { return nil }); err == nil {
		t.Fatal("oversized record accepted")
	}
}

// TestStreamReaderErrorDeliversPrefixOnce: a decode error mid-poll
// delivers every record decoded before the error exactly once — the
// valid prefix is not lost, and nothing is re-delivered after the
// error sticks.
func TestStreamReaderErrorDeliversPrefixOnce(t *testing.T) {
	data := streamTestTrace(t)
	bad := append(append([]byte(nil), data...), 0x02, 0xff, 0xff, 0xff, 0xff, 0x7f)
	sr := NewStreamReader(bytes.NewReader(bad))
	delivered := 0
	count := func(b *RecordBatch) error {
		delivered += len(b.Topologies) + len(b.TaskTypes) + len(b.Tasks) +
			len(b.States) + len(b.Discrete) + len(b.Descs) +
			len(b.Samples) + len(b.Comms) + len(b.Regions)
		return nil
	}
	n, err := sr.Poll(count)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if n == 0 || delivered != n {
		t.Fatalf("delivered %d records for %d decoded before the error", delivered, n)
	}
	if n2, err2 := sr.Poll(count); err2 == nil || n2 != 0 {
		t.Fatalf("second Poll = (%d, %v), want sticky error", n2, err2)
	}
	if delivered != n {
		t.Fatalf("records re-delivered after the sticky error (%d, was %d)", delivered, n)
	}
}

// TestStreamReaderEmitErrorConsumesBatch: a batch whose emit failed is
// consumed, never handed to emit a second time.
func TestStreamReaderEmitErrorConsumesBatch(t *testing.T) {
	data := streamTestTrace(t)
	sr := NewStreamReader(bytes.NewReader(data))
	boom := errors.New("boom")
	calls := 0
	if _, err := sr.Poll(func(*RecordBatch) error { calls++; return boom }); err != boom {
		t.Fatalf("Poll = %v, want the emit error", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times, want 1", calls)
	}
	if _, err := sr.Poll(func(*RecordBatch) error { calls++; return nil }); err != boom {
		t.Fatalf("second Poll = %v, want sticky emit error", err)
	}
	if calls != 1 {
		t.Fatal("failed batch was re-emitted")
	}
}

// TestOpenStream: a growing plain file, opened as the ingest layer
// opens it for tailing, streams what each Poll finds and picks up what
// the producer appends later. (Refusing to tail gzip is the ingest
// layer's: ingest.TestOpenStream.)
func TestOpenStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.atm")
	data := streamTestTrace(t)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rc, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	sr := NewStreamReader(rc)
	if _, err := sr.Poll(func(*RecordBatch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	before := sr.Consumed()
	// Simulate the producer appending the rest.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[len(data)/2:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := sr.Poll(func(*RecordBatch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if sr.Consumed() != int64(len(data)) || sr.Consumed() <= before {
		t.Fatalf("consumed %d after append, want %d (> %d)", sr.Consumed(), len(data), before)
	}
	if err := sr.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}
}

// eofReader returns data together with io.EOF in the SAME Read call —
// the (n > 0, io.EOF) contract io.Reader explicitly allows and some
// wrappers (and iotest.DataErrReader) exercise. A Poll that checks the
// error before consuming the bytes would silently drop the final chunk.
type eofReader struct {
	data []byte
	off  int
}

func (r *eofReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	if r.off >= len(r.data) {
		return n, io.EOF
	}
	return n, nil
}

// TestStreamReaderDataWithEOF: bytes delivered in the same call as
// io.EOF are decoded, not dropped.
func TestStreamReaderDataWithEOF(t *testing.T) {
	data := streamTestTrace(t)
	var want RecordBatch
	if err := ReadBatched(bytes.NewReader(data), 1, func(b *RecordBatch) error {
		collectBatches(&want, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(&eofReader{data: data})
	var got RecordBatch
	if _, err := sr.Poll(func(b *RecordBatch) error {
		collectBatches(&got, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sr.Consumed() != int64(len(data)) {
		t.Fatalf("consumed %d, want %d", sr.Consumed(), len(data))
	}
	if err := sr.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}
	if !reflect.DeepEqual(&got, &want) {
		t.Fatal("records read with (n>0, io.EOF) differ from batch read")
	}
}

// zeroThenReader returns (0, nil) — a producer that touched the file
// without appending — before each real chunk.
type zeroThenReader struct {
	inner *limitedReader
	zero  bool
}

func (r *zeroThenReader) Read(p []byte) (int, error) {
	if r.zero = !r.zero; r.zero {
		return 0, nil
	}
	return r.inner.Read(p)
}

// TestStreamReaderZeroByteReads: interleaved zero-byte reads neither
// hang Poll nor end it early — decoding picks up where it left off.
func TestStreamReaderZeroByteReads(t *testing.T) {
	data := streamTestTrace(t)
	inner := &limitedReader{data: data}
	sr := NewStreamReader(&zeroThenReader{inner: inner})
	records := 0
	for inner.limit < len(data) {
		inner.limit += 1000
		if inner.limit > len(data) {
			inner.limit = len(data)
		}
		// Poll until this window is drained: each Poll may stop at a
		// zero-byte read with bytes still available.
		for sr.Consumed()+int64(sr.Buffered()) < int64(inner.limit) {
			n, err := sr.Poll(func(*RecordBatch) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			records += n
		}
	}
	for sr.Consumed() < int64(len(data)) {
		n, err := sr.Poll(func(*RecordBatch) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		records += n
	}
	if err := sr.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}
	if records == 0 {
		t.Fatal("no records decoded")
	}
	wantRecords := 0
	if err := ReadBatched(bytes.NewReader(data), 1, func(b *RecordBatch) error {
		wantRecords += len(b.Topologies) + len(b.TaskTypes) + len(b.Tasks) +
			len(b.States) + len(b.Discrete) + len(b.Descs) +
			len(b.Samples) + len(b.Comms) + len(b.Regions)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if records != wantRecords {
		t.Fatalf("decoded %d records, want %d", records, wantRecords)
	}
}

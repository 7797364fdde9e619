package otlp

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/trace"
)

// oneByteReader yields a single byte per Read, forcing every document
// to straddle poll boundaries.
type oneByteReader struct {
	data []byte
	off  int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	p[0] = r.data[r.off]
	r.off++
	return 1, nil
}

// tracesEqual compares the observable surfaces of two loaded traces.
func tracesEqual(t *testing.T, a, b *core.Trace) {
	t.Helper()
	if !reflect.DeepEqual(a.Topology, b.Topology) {
		t.Fatalf("topology differs:\n%+v\n%+v", a.Topology, b.Topology)
	}
	if a.Span != b.Span {
		t.Fatalf("span differs: %+v vs %+v", a.Span, b.Span)
	}
	if !reflect.DeepEqual(a.Types, b.Types) {
		t.Fatalf("types differ")
	}
	if !reflect.DeepEqual(a.Tasks, b.Tasks) {
		t.Fatalf("tasks differ: %d vs %d", len(a.Tasks), len(b.Tasks))
	}
	if len(a.CPUs) != len(b.CPUs) {
		t.Fatalf("CPU count differs: %d vs %d", len(a.CPUs), len(b.CPUs))
	}
	for i := range a.CPUs {
		if !reflect.DeepEqual(a.CPUs[i].States, b.CPUs[i].States) {
			t.Fatalf("cpu %d states differ", i)
		}
		if !reflect.DeepEqual(a.CPUs[i].Discrete, b.CPUs[i].Discrete) {
			t.Fatalf("cpu %d discrete events differ", i)
		}
	}
	if len(a.Counters) != len(b.Counters) {
		t.Fatalf("counter count differs: %d vs %d", len(a.Counters), len(b.Counters))
	}
	for i := range a.Counters {
		if !reflect.DeepEqual(a.Counters[i].Desc, b.Counters[i].Desc) ||
			!reflect.DeepEqual(a.Counters[i].PerCPU, b.Counters[i].PerCPU) {
			t.Fatalf("counter %d differs", i)
		}
	}
}

// TestImportStreamEqualsBatch: importing a stream in one batch read and
// dribbling it through the live ingest path one byte per poll must
// build identical traces and identical inference reports — the
// batch/stream convergence guarantee, extended to the span importer —
// for the stdouttrace fixture and for a stream of OTLP envelopes.
func TestImportStreamEqualsBatch(t *testing.T) {
	fixture, err := os.ReadFile("testdata/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	// otlpDoc five times over, each copy with ids of its own.
	var envelopes strings.Builder
	for i := 1; i <= 5; i++ {
		id := func(v int) string { return fmt.Sprintf(`"%02x"`, 16*i+v) }
		envelopes.WriteString(strings.NewReplacer(`"0a"`, id(0xa), `"0b"`, id(0xb), `"0c"`, id(0xc), `"02"`, id(0)).Replace(otlpDoc))
	}
	for _, data := range [][]byte{fixture, []byte(envelopes.String())} {
		batchDec := NewDecoder(strings.NewReader(string(data)))
		batch, err := core.FromDecoder(batchDec)
		if err != nil {
			t.Fatal(err)
		}

		streamDec := NewDecoder(&oneByteReader{data: data})
		lv := core.NewLive()
		defer lv.Close()
		for i := 0; i <= len(data); i++ {
			if _, err := lv.Feed(streamDec); err != nil {
				t.Fatalf("poll %d: %v", i, err)
			}
		}
		if err := streamDec.Done(); err != nil {
			t.Fatal(err)
		}
		streamed, _ := lv.Snapshot()

		tracesEqual(t, batch, streamed)
		if !reflect.DeepEqual(batchDec.Report(), streamDec.Report()) {
			t.Fatalf("reports differ:\n%+v\n%+v", batchDec.Report(), streamDec.Report())
		}
		if batchDec.Report().Spans != len(batch.Tasks) || len(batch.Tasks) == 0 {
			t.Fatalf("%d spans imported as %d tasks", batchDec.Report().Spans, len(batch.Tasks))
		}
	}
}

func drain(d *Decoder) (int, error) {
	return d.Poll(func(b *trace.RecordBatch) error { return nil })
}

// growingReader models a file being appended to: Read returns what has
// been written so far and io.EOF at the current end.
type growingReader struct {
	data []byte
	off  int
}

func (r *growingReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestDecoderPartialTail: a truncated document is buffered, not
// consumed; appending the rest completes it.
func TestDecoderPartialTail(t *testing.T) {
	doc := `{"Name":"x","SpanContext":{"TraceID":"01","SpanID":"0a"},"StartTime":"2026-01-01T00:00:00Z","EndTime":"2026-01-01T00:00:01Z"}` + "\n"
	cut := len(doc) / 2
	gr := &growingReader{data: []byte(doc[:cut])}
	d := NewDecoder(gr)

	n, err := drain(d)
	if err != nil || n != 0 {
		t.Fatalf("half document: n=%d err=%v", n, err)
	}
	if d.Consumed() != 0 || d.Buffered() != cut {
		t.Fatalf("consumed=%d buffered=%d, want 0/%d", d.Consumed(), d.Buffered(), cut)
	}
	if err := d.Done(); err == nil {
		t.Fatal("Done accepted a truncated tail")
	}

	gr.data = append(gr.data, doc[cut:]...)
	n, err = drain(d)
	if err != nil || n != 1 {
		t.Fatalf("completed document: n=%d err=%v", n, err)
	}
	if d.Consumed() != int64(len(doc)) || d.Buffered() != 0 {
		t.Fatalf("consumed=%d buffered=%d, want %d/0", d.Consumed(), d.Buffered(), len(doc))
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done after clean end: %v", err)
	}
}

// TestDecoderStickyError: a malformed document poisons the stream; the
// error repeats on every later poll.
func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder(strings.NewReader("{]"))
	if _, err := drain(d); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := drain(d); err == nil {
		t.Fatal("error did not stick")
	}
	if err := d.Done(); err == nil {
		t.Fatal("Done ignored the sticky error")
	}
}

// TestDecoderEmptyStream: an empty or whitespace-only stream is a
// misdetection, not an empty trace.
func TestDecoderEmptyStream(t *testing.T) {
	for _, in := range []string{"", "  \n\t\n"} {
		d := NewDecoder(strings.NewReader(in))
		if _, err := drain(d); err != nil {
			t.Fatalf("draining %q: %v", in, err)
		}
		if err := d.Done(); err == nil {
			t.Fatalf("Done(%q) accepted a spanless stream", in)
		}
	}
}

// TestDecoderDuplicateSpans: a re-exported span id is dropped and
// counted, not double-booked onto a worker lane.
func TestDecoderDuplicateSpans(t *testing.T) {
	doc := `{"Name":"x","SpanContext":{"TraceID":"01","SpanID":"0a"},"StartTime":"2026-01-01T00:00:00Z","EndTime":"2026-01-01T00:00:01Z"}` + "\n"
	d := NewDecoder(strings.NewReader(doc + doc))
	if _, err := drain(d); err != nil {
		t.Fatal(err)
	}
	rep := d.Report()
	if rep.Spans != 1 || rep.Dropped != 1 {
		t.Fatalf("spans=%d dropped=%d, want 1/1", rep.Spans, rep.Dropped)
	}
}

// TestReportFixture pins the inference over the committed fixture: the
// synthetic topology, the per-operation statistics and the voted call
// styles. Any change here is a user-visible change to what an import
// means and must be deliberate.
func TestReportFixture(t *testing.T) {
	f, err := os.Open("testdata/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d := NewDecoder(f)
	tr, err := core.FromDecoder(d)
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Report()

	if rep.Spans != 60 || rep.Traces != 10 || rep.Dropped != 0 {
		t.Fatalf("spans=%d traces=%d dropped=%d", rep.Spans, rep.Traces, rep.Dropped)
	}
	if tr.Topology.Name != "imported-spans (3 services)" {
		t.Fatalf("topology name %q", tr.Topology.Name)
	}
	wantNodes := []int32{0, 0, 1, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(tr.Topology.NodeOfCPU, wantNodes) {
		t.Fatalf("NodeOfCPU = %v, want %v", tr.Topology.NodeOfCPU, wantNodes)
	}
	if len(tr.Tasks) != 60 || len(tr.Types) != 5 {
		t.Fatalf("tasks=%d types=%d", len(tr.Tasks), len(tr.Types))
	}

	if len(rep.Services) != 3 {
		t.Fatalf("services = %d", len(rep.Services))
	}
	db, backend, frontend := rep.Services[0], rep.Services[1], rep.Services[2]
	if db.Name != "db" || db.Node != 0 || db.Workers != 3 {
		t.Fatalf("db = %+v", db)
	}
	if backend.Name != "backend" || backend.Node != 1 || backend.Workers != 3 {
		t.Fatalf("backend = %+v", backend)
	}
	if frontend.Name != "frontend" || frontend.Node != 2 || frontend.Workers != 2 {
		t.Fatalf("frontend = %+v", frontend)
	}

	query := db.Ops[0]
	if query.Name != "query" || query.Count != 20 || query.Errors != 1 ||
		query.MinNs != 1_000_000 || query.MaxNs != 35_000_000 {
		t.Fatalf("db.query = %+v", query)
	}
	charge := backend.Ops[1]
	if charge.Name != "charge" || charge.Style != StyleSequential ||
		!reflect.DeepEqual(charge.Calls, []string{"db.query", "db.commit"}) {
		t.Fatalf("backend.charge = %+v", charge)
	}
	checkout := frontend.Ops[0]
	if checkout.Style != StyleParallel ||
		!reflect.DeepEqual(checkout.Calls, []string{"backend.inventory", "backend.charge"}) {
		t.Fatalf("frontend op = %+v", checkout)
	}
	inv := backend.Ops[0]
	if inv.Name != "inventory" || inv.Style != StyleNone ||
		!reflect.DeepEqual(inv.Calls, []string{"db.query"}) {
		t.Fatalf("backend.inventory = %+v", inv)
	}

	// The error-span counter is present, monotonic, and sums to the
	// error count.
	if len(tr.Counters) != 1 || tr.Counters[0].Desc.Name != errCounterName || !tr.Counters[0].Desc.Monotonic {
		t.Fatalf("counters = %+v", tr.Counters)
	}
}

// TestVoteStyle: the per-invocation classifier.
func TestVoteStyle(t *testing.T) {
	ms := func(n int64) trace.Time { return n * 1_000_000 }
	cases := []struct {
		name     string
		children []childRef
		want     CallStyle
	}{
		{"fan-out", []childRef{{start: 0, end: ms(5)}, {start: ms(1) / 2, end: ms(4)}}, StyleParallel},
		{"chain", []childRef{{start: ms(10), end: ms(12)}, {start: ms(13), end: ms(15)}}, StyleSequential},
		{"chain out of order", []childRef{{start: ms(13), end: ms(15)}, {start: ms(10), end: ms(12)}}, StyleSequential},
		{"staggered overlap", []childRef{{start: 0, end: ms(10)}, {start: ms(5), end: ms(15)}}, StyleMixed},
	}
	for _, c := range cases {
		if got := voteStyle(c.children); got != c.want {
			t.Errorf("%s: voteStyle = %q, want %q", c.name, got, c.want)
		}
	}
}

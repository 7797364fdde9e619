package otlp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/openstream/aftermath/internal/trace"
)

// keptDifferences lists every input the scanner reads differently from
// the struct decoder in reference_test.go. Both are rejections of what
// used to lose data without a word; FuzzScanEqualsReference compares
// nothing on an input the scanner rejects for one of them.
var keptDifferences = []struct {
	name     string
	doc      string
	refSpans int   // what the struct decoder imported from it
	err      error // what the scanner says; nil for any error
	reason   string
}{
	{
		name:     "stdouttrace span beside resourceSpans",
		doc:      `{"resourceSpans":null,` + stdoutDoc[1:],
		refSpans: 0,
		err:      errMixed,
		reason:   "resourceSpans, even null or [], made the document an envelope and its complete span vanished: no error, nothing imported",
	},
	{
		name: "stdouttrace span beside a full envelope",
		doc: `{"SpanContext":{"TraceID":"01","SpanID":"0a"},"StartTime":"2026-01-01T00:00:00Z","EndTime":"2026-01-01T00:00:01Z",` +
			strings.TrimSpace(otlpDoc)[1:],
		refSpans: 2,
		err:      errMixed,
		reason:   "the same: the envelope's spans were imported and the document's own was dropped",
	},
	{
		name: "Resource twice",
		doc: `{"SpanContext":{"SpanID":"0a"},"StartTime":"2026-01-01T00:00:00Z","EndTime":"2026-01-01T00:00:01Z",` +
			`"Resource":[{"Key":"service.name","Value":{"Value":"a"}}],"Resource":[{"Value":{"Value":"b"}}]}`,
		refSpans: 1,
		err:      errRepeated,
		reason: "encoding/json decodes a second array into the elements the first left behind (golang/go#21092): " +
			"here service b under the first array's key. No exporter repeats a name, and reproducing the merge means keeping every array as a tree",
	},
	{
		name: "spans twice",
		doc: `{"resourceSpans":[{"scopeSpans":[{` +
			`"spans":[{"spanId":"0a","startTimeUnixNano":"1","endTimeUnixNano":"2"}],` +
			`"spans":[{"name":"x"}]}]}]}`,
		refSpans: 1,
		err:      errRepeated,
		reason:   "the same merge, for resourceSpans, attributes, scopeSpans, instrumentationLibrarySpans and spans: one span 0a named x",
	},
	{
		name:     "resourceSpans twice",
		doc:      `{"resourceSpans":[{"scopeSpans":7}],"resourceSpans":[]}`,
		refSpans: 0,
		reason:   "only the last resourceSpans was ever decoded; the first could hold anything, here a number for an array",
	},
}

// TestKeptDifferences: each listed input is what the table says it is —
// imported by the struct decoder, rejected by the scanner for the
// listed reason — so the list cannot outlive the differences.
func TestKeptDifferences(t *testing.T) {
	for _, c := range keptDifferences {
		ref, ok, _ := refImport([]byte(c.doc))
		if !ok || len(ref) != c.refSpans {
			t.Errorf("%s: struct decoder imported %d spans (accepted: %v), want %d — %s", c.name, len(ref), ok, c.refSpans, c.reason)
		}
		if _, _, err := NewDecoder(nil).scanDoc(nil, []byte(c.doc)); err == nil || c.err != nil && !errors.Is(err, c.err) {
			t.Errorf("%s: scanDoc: %v, want %v", c.name, err, c.err)
		}
		if rep := importAll(t, strings.NewReader(c.doc)); rep != nil {
			t.Errorf("%s: imported %+v", c.name, rep)
		}
	}
}

// refImport imports a whole stream with the struct decoder, the way
// the old parse loop did once the reader had reported EOF: a fresh
// json.Decoder per document. ok is what importAll's non-nil report
// says: every document imported and there was one. twice says that
// some document gave resourceSpans twice, which the scanner refuses
// for one reason or another (see keptDifferences) and this accepts
// whatever the first one holds.
func refImport(data []byte) (spans []span, ok, twice bool) {
	for {
		data = bytes.TrimLeft(data, " \t\r\n")
		if len(data) == 0 {
			return spans, ok, twice
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		var doc spanDoc
		if err := dec.Decode(&doc); err != nil {
			return nil, false, twice
		}
		twice = twice || envelopes(data) > 1
		var err error
		if spans, err = refDocSpans(spans, &doc); err != nil {
			return nil, false, twice
		}
		data, ok = data[dec.InputOffset():], true
	}
}

// envelopes counts the resourceSpans members of the object at the
// front of doc.
func envelopes(doc []byte) (n int) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	if t, _ := dec.Token(); t != json.Delim('{') {
		return 0
	}
	for dec.More() {
		name, _ := dec.Token()
		if s, ok := name.(string); ok && strings.EqualFold(s, "resourceSpans") {
			n++
		}
		if dec.Decode(new(json.RawMessage)) != nil {
			break
		}
	}
	return n
}

// scanAll imports a whole stream document by document through the
// production one-document entry.
func scanAll(data []byte) (spans []span, err error) {
	d := NewDecoder(nil)
	for {
		data = bytes.TrimLeft(data, " \t\r\n")
		if len(data) == 0 {
			return spans, nil
		}
		var n int
		if spans, n, err = d.scanDoc(spans, data); err != nil {
			return nil, err
		}
		data = data[n:]
	}
}

// reportOf is the report of a span list.
func reportOf(spans []span) *Report {
	st := newInferState()
	b := &trace.RecordBatch{}
	for i := range spans {
		b = st.addSpan(&spans[i], b)
	}
	return st.report()
}

// FuzzScanEqualsReference holds the scanner to the struct decoder it
// replaced: on every input both import or both refuse (which error,
// and when it surfaces, may differ), and what they import is the same
// list of spans and the same report, read whole and in 7-byte
// dribbles. The exceptions are keptDifferences.
func FuzzScanEqualsReference(f *testing.F) {
	if fixture, err := os.ReadFile("testdata/spans.jsonl"); err == nil {
		f.Add(fixture)
	}
	const times = `"StartTime":"2026-01-01T00:00:00Z","EndTime":"2026-01-01T00:00:01Z"`
	const otlpTimes = `"startTimeUnixNano":"1767225600000000000","endTimeUnixNano":1767225600002000000`
	for _, seed := range []string{
		stdoutDoc, otlpDoc, stdoutDoc + "\n" + stdoutDoc,
		strings.ReplaceAll(stdoutDoc, "\n", "\r\n") + "\r\n" + strings.ReplaceAll(otlpDoc, "\n", "\r\n"),
		// What encoding/json did without being asked. Names match
		// under case folding, Unicode's included (U+017F folds to s).
		`{"name":"x","spancontext":{"traceid":"01","SPANID":"0a"},"starttime":"2026-01-01T00:00:00Z","ENDTIME":"2026-01-01T00:00:01Z"}`,
		`{"ſpanContext":{"SpanID":"0a"},` + times + `,"Reſource":[{"key":"service.name","VALUE":{"value":"s"}}]}`,
		`{"RESOURCESPANS":[{"Resource":{"ATTRIBUTES":[{"KEY":"service.name","Value":{"STRINGVALUE":"s"}}]},"scopespans":[{"SPANS":[{"SPANID":"0a",` + otlpTimes + `}]}]}]}`,
		// The last of a repeated scalar wins, repeated objects merge.
		`{"Name":"a","Name":"b","SpanContext":{"SpanID":"zz"},"SpanContext":{"TraceID":"01"},"SpanContext":{"SpanID":"0a"},` + times + `,"StartTime":"2026-01-01T00:00:00.5Z"}`,
		`{"SpanContext":{"SpanID":"0a"},` + times + `,"Status":{"Code":"Error"},"Status":{},"Resource":[{"Key":"x","Key":"service.name","Value":{"Value":"a"},"Value":{"Type":"STRING"}}]}`,
		`{"resourceSpans":[{"resource":{"attributes":[{"key":"service.name","value":{"stringValue":"a"}}]},"resource":{},"scopeSpans":[{"spans":[{"spanId":"zz","spanId":"0a","status":{"code":2},"status":{},` + otlpTimes + `}]}]}]}`,
		// A null sets nothing — but takes back a SpanContext, a Parent
		// and a Status.
		`{"Name":"x","Name":null,"SpanContext":{"SpanID":"0a"},"Parent":{"SpanID":"0b"},"Parent":null,` + times + `,"EndTime":null,"Status":{"Code":"Error"},"Status":null,"Resource":null}`,
		`{"SpanContext":{"SpanID":"0a"},"SpanContext":null,` + times + `}`,
		`{"SpanContext":null,"SpanContext":{"SpanID":"0a","TraceID":null},` + times + `,"Status":{"Code":null},"Resource":[null,{"Key":null,"Value":null},{"Key":"service.name","Value":{"Value":null}}]}`,
		`{"resourceSpans":null}`, `{"resourceSpans":[]}`, `{"resourceSpans":[null,{"resource":null,"scopeSpans":null},{"scopeSpans":[null,{"spans":null}]}]}`,
		`{"resourceSpans":[{"scopeSpans":[{"spans":[null]}]}]}`,
		`{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":"0a","name":null,"status":null,"parentSpanId":null,` + otlpTimes + `,"endTimeUnixNano":null}]}]}]}`,
		// A recognised name holding the wrong JSON type rejects the
		// document; a value that may be anything is ignored.
		`{"Name":5,"SpanContext":{"SpanID":"0a"},` + times + `}`,
		`{"SpanContext":{"SpanID":"0a"},` + times + `,"Resource":{}}`,
		`{"SpanContext":{"SpanID":"0a"},"Parent":{"TraceID":5},` + times + `}`,
		`{"SpanContext":{"SpanID":"0a"},` + times + `,"Resource":[{"Key":"service.name","Value":{"Value":5}}],"Status":{"Code":{}}}`,
		`{"SpanContext":{"SpanID":"0a"},` + times + `,"Resource":[{"Key":"service.name","Value":{"Value":"a","Value":[1,{"b":null}]}}],"Status":{"Code":1}}`,
		`{"SpanContext":{"SpanID":"0a"},` + times + `,"Status":{"Code":"Error"}}`,
		`{"SpanContext":{"SpanID":"0a"},` + times + `,"Status":{"Code": 1 }}`,
		`{"resourceSpans":5}`, `{"resourceSpans":[{"scopeSpans":{}}]}`, `{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":10}]}]}]}`,
		`{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":"0a","startTimeUnixNano":true,"endTimeUnixNano":"2"}]}]}]}`,
		`{"resourceSpans":[{"resource":{"attributes":[{"key":"service.name","value":{"stringValue":7}}]}}]}`,
		// Strings: escapes, surrogates, invalid UTF-8, control bytes.
		`{"Name":"a\ud800b 😀 \"\\\/\b\f\n\r\t","SpanContext":{"SpanID":"0a"},` + times + `}`,
		"{\"Name\":\"a\xffbé\",\"SpanContext\":{\"SpanID\":\"0a\"}," + times + `}`,
		"{\"Name\":\"a\nb\",\"SpanContext\":{\"SpanID\":\"0a\"}," + times + `}`,
		`{"Name":"a\x","SpanContext":{"SpanID":"0a"},` + times + `}`, `{"Name":"\u12g4","SpanContext":{"SpanID":"0a"},` + times + `}`,
		`{"Name":"x","SpanContext":{"SpanID":"0a"},` + times + `}`,
		// OTLP timestamps as strings and numbers, good and bad.
		`{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":"0a","startTimeUnixNano":1,"endTimeUnixNano":"2"}]}]}]}`,
		`{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":"0a","startTimeUnixNano":"","endTimeUnixNano":"2"}]}]}]}`,
		`{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":"0a","startTimeUnixNano":"+1","endTimeUnixNano":"02"}]}]}]}`,
		`{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":"0a","startTimeUnixNano":"1e3","endTimeUnixNano":1.5}]}]}]}`,
		`{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":"0a","startTimeUnixNano":-0,"endTimeUnixNano":"-1"}]}]}]}`,
		`{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":"0a","startTimeUnixNano":"10","endTimeUnixNano":9999999999999999999}]}]}]}`,
		// resource after scopeSpans; the pre-1.0 group name, which
		// counts only beside an empty scopeSpans.
		`{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":"0a",` + otlpTimes + `}]}],"resource":{"attributes":[{"key":"service.name","value":{"stringValue":"late"}}]}}]}`,
		`{"resourceSpans":[{"instrumentationLibrarySpans":[{"spans":[{"spanId":"0a",` + otlpTimes + `}]}]}]}`,
		`{"resourceSpans":[{"instrumentationLibrarySpans":[{"spans":[{"spanId":"zz"}]}],"scopeSpans":[{}]},{"scopeSpans":[],"instrumentationLibrarySpans":[{"spans":[{"spanId":"0b",` + otlpTimes + `}]}]}]}`,
		`{"resourceSpans":[{"scopeSpans":[null],"instrumentationLibrarySpans":[{"spans":[{"spanId":"0a",` + otlpTimes + `},{"spanId":7}]}]}]}`,
		`{"resourceSpans":[{"instrumentationLibrarySpans":[{"spans":[{"spanId":"zz"}]}],"scopeSpans":null}]}`,
		// Numbers, literals, nesting, and what follows a document.
		`{"SpanContext":{"SpanID":"0a"},` + times + `,"x":[0,-0,1.5e+3,2E-2,true,false,null,{},[],{"a":{"b":[[]]}}]}`,
		`{"SpanContext":{"SpanID":"0a"},` + times + `,"x":01}`, `{"SpanContext":{"SpanID":"0a"},` + times + `,"x":1.}`,
		`{"SpanContext":{"SpanID":"0a"},` + times + `,"x":[1,]}`, `{"SpanContext":{"SpanID":"0a"},` + times + `,}`,
		`{"SpanContext":{"SpanID":"0a"},` + times + `,"x":tru}`, `{"SpanContext":{"SpanID":"0a"},` + times + `,"x":[}`,
		`{"SpanContext":{"SpanID":"0a"},` + times + `}{"SpanContext":{"SpanID":"0b"},` + times + `} x`,
		`{"SpanContext":{"SpanID":"0a"},` + times + `,"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
		`{"SpanContext":{"SpanID":"0a"},` + times + `,"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
		`{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":"0a",` + otlpTimes + `,"x":` + strings.Repeat(`{"a":`, maxDepth-6) + `1` + strings.Repeat("}", maxDepth-6) + `}]}]}]}`,
		`null`, `[]`, `12`, `"x"`, `{`, `{"SpanContext":`, "",
	} {
		f.Add([]byte(seed))
	}
	for _, c := range keptDifferences {
		f.Add([]byte(c.doc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := scanAll(data)
		if errors.Is(err, errMixed) || errors.Is(err, errRepeated) {
			return
		}
		want, ok, twice := refImport(data)
		whole := importAll(t, bytes.NewReader(data))
		chunked := importAll(t, &chunkReader{data: data, chunk: 7})
		if twice {
			ok = false
		}
		if (whole != nil) != ok || (chunked != nil) != ok {
			t.Fatalf("struct decoder imports: %v, the scanner whole: %v, in dribbles: %v (scanDoc: %v)", ok, whole != nil, chunked != nil, err)
		}
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("imported, yet scanDoc fails: %v", err)
		}
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("spans differ:\nscanner        %+v\nstruct decoder %+v", got, want)
		}
		if rep := reportOf(want); !reflect.DeepEqual(whole, rep) || !reflect.DeepEqual(chunked, rep) {
			t.Fatalf("reports differ:\nwhole          %+v\nin dribbles    %+v\nstruct decoder %+v", whole, chunked, rep)
		}
	})
}

// envelope renders spans lo..hi (the id; op-<id mod 7>, 1 ms each, one
// starting as the last ends) as one OTLP-JSON document: a single
// resourceSpans entry.
func envelope(lo, hi int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"resourceSpans":[{"resource":{"attributes":[{"key":"service.name","value":{"stringValue":"svc"}}]},"scopeSpans":[{"scope":{"name":"gen"},"spans":[`)
	for i := lo; i <= hi; i++ {
		if i > lo {
			b.WriteByte(',')
		}
		start := int64(1767225600_000000000) + int64(i)*2_000_000
		fmt.Fprintf(&b, `{"traceId":"%032x","spanId":"%016x","parentSpanId":"","name":"op-%d","kind":2,"startTimeUnixNano":"%d","endTimeUnixNano":"%d","attributes":[{"key":"http.method","value":{"stringValue":"GET"}}],"status":{}}`,
			i/7+1, i, i%7, start, start+1_000_000)
	}
	b.WriteString("]}]}]}\n")
	return b.Bytes()
}

// TestPartialDocScannedOnce: what a document costs to read does not
// depend on how it arrives. One export written as a single document is
// looked at a bounded number of times per byte whether it comes in
// 4 KiB reads, 64 KiB reads or all at once (the old decoder re-parsed
// it from its first byte after every 64 KiB: 11.9 s for 16 MB), and a
// poll that delivers nothing looks at nothing.
func TestPartialDocScannedOnce(t *testing.T) {
	const spans = 16_000
	data := envelope(1, spans)
	if len(data) < 4<<20 {
		t.Fatalf("envelope is %d bytes, want 4 MB", len(data))
	}
	for _, chunk := range []int{4 << 10, 64 << 10, len(data)} {
		d := NewDecoder(&chunkReader{data: data, chunk: chunk})
		n, err := drain(d)
		if err != nil || n != spans {
			t.Fatalf("%d-byte reads: n=%d err=%v", chunk, n, err)
		}
		if err := d.Done(); err != nil {
			t.Fatalf("%d-byte reads: %v", chunk, err)
		}
		if d.scanned > 3*int64(len(data)) {
			t.Errorf("%d-byte reads: looked at %d bytes of a %d byte document (%.1fx), want at most 3x",
				chunk, d.scanned, len(data), float64(d.scanned)/float64(len(data)))
		}
		t.Logf("%d-byte reads: looked at %d bytes of %d (%.2fx)", chunk, d.scanned, len(data), float64(d.scanned)/float64(len(data)))
		before := d.scanned
		if n, err := drain(d); n != 0 || err != nil || d.scanned != before {
			t.Errorf("%d-byte reads: idle poll after the end: n=%d err=%v, looked at %d bytes", chunk, n, err, d.scanned-before)
		}
	}

	// Idle polls behind a half-written document, then a producer that
	// appends a little at a time: every poll costs what it delivered.
	half := len(data) / 2
	gr := &growingReader{data: data[:half:half]}
	d := NewDecoder(gr)
	if n, err := drain(d); n != 0 || err != nil {
		t.Fatalf("half document: n=%d err=%v", n, err)
	}
	before := d.scanned
	if n, err := drain(d); n != 0 || err != nil || d.scanned != before {
		t.Fatalf("idle poll behind a partial document: n=%d err=%v, looked at %d bytes", n, err, d.scanned-before)
	}
	total := 0
	for off := half; off < len(data); off += 100_000 {
		gr.data = data[:min(off+100_000, len(data))]
		before := d.scanned
		n, err := drain(d)
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if cost := d.scanned - before; n == 0 && cost > 100_000 {
			t.Fatalf("a poll that delivered 100000 bytes looked at %d", cost)
		}
	}
	if total != spans || d.Done() != nil {
		t.Fatalf("appended document: %d spans, Done: %v", total, d.Done())
	}
}

// TestSingleDocumentLoadTime: an export written as one 8 MB document
// loads about as fast as the same spans written a document each (the
// old decoder took 2.8 s against 0.2 s, and 11.9 s at 16 MB). This is
// the check on what the scanned counter cannot see — a buffer moved
// once per read, say — so it compares times, the two in one process
// and each the best of three, and leaves the absolute figure to the
// log.
func TestSingleDocumentLoadTime(t *testing.T) {
	if testing.Short() {
		t.Skip("8 MB inputs")
	}
	const spans = 30_500
	single := envelope(1, spans)
	var each []byte
	for i := 1; i <= spans; i++ {
		each = append(each, envelope(i, i)...)
	}
	load := func(data []byte) time.Duration {
		t0 := time.Now()
		if n, err := drain(NewDecoder(bytes.NewReader(data))); err != nil || n != spans {
			t.Fatalf("n=%d err=%v", n, err)
		}
		return time.Since(t0)
	}
	one, many := load(single), load(each)
	for try := 1; try < 3 && one > 3*many; try++ {
		one, many = min(one, load(single)), min(many, load(each))
	}
	t.Logf("%.1f MB as one document: %v; %.1f MB as %d documents: %v", float64(len(single))/1e6, one, float64(len(each))/1e6, spans, many)
	if one > 3*many {
		t.Errorf("one document took %v, %d documents %v: want at most 3x", one, spans, many)
	}
}

// endlessString is a stream that opens a string and never closes it.
type endlessString struct{ read int }

func (r *endlessString) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	if r.read == 0 {
		copy(p, `{"Name":"`)
	}
	r.read += len(p)
	return len(p), nil
}

// TestDocSizeLimit: a document past the size limit is a sticky error
// naming the offset and the limit, raised before much more than the
// limit is buffered; a document of exactly the limit imports.
func TestDocSizeLimit(t *testing.T) {
	const limit = 300_000
	src := &endlessString{}
	d := NewDecoder(src)
	d.maxDoc = limit
	_, err := drain(d)
	if err == nil || !strings.Contains(err.Error(), "offset 0") || !strings.Contains(err.Error(), fmt.Sprint(limit)) {
		t.Fatalf("endless document: %v", err)
	}
	if src.read > limit+readChunk || d.Buffered() > limit+readChunk {
		t.Fatalf("read %d bytes, %d buffered, before giving up at a limit of %d", src.read, d.Buffered(), limit)
	}
	if _, again := drain(d); again != err {
		t.Fatalf("error did not stick: %v", again)
	}

	pad := limit - len(strings.TrimSpace(stdoutDoc)) - len(`,"pad":""`)
	doc := strings.TrimSuffix(strings.TrimSpace(stdoutDoc), "}") + `,"pad":"` + strings.Repeat("x", pad) + `"}`
	for _, c := range []struct {
		doc  string
		want int
	}{{doc, 1}, {doc[:len(doc)-2] + `y"}`, 0}} {
		for _, chunk := range []int{1000, len(c.doc)} {
			d := NewDecoder(&chunkReader{data: []byte("\n" + c.doc + "\n"), chunk: chunk})
			d.maxDoc = limit
			n, err := drain(d)
			if n != c.want || (err == nil) != (c.want == 1) {
				t.Errorf("%d byte document in %d-byte reads under a limit of %d: n=%d err=%v", len(c.doc), chunk, limit, n, err)
			}
		}
	}
}

// spanStream renders n spans as stdouttrace lines in the harness's
// topology — seven operations in five services, a request a trace,
// children before their parents.
func spanStream(n int) []byte {
	ops := []struct {
		svc, op string
		parent  int // index into ops, -1 for the root
	}{
		{"cache", "get", 5}, {"db", "scan", 5}, {"db", "query", 4}, {"db", "commit", 4},
		{"cart", "checkout", 6}, {"catalog", "lookup", 6}, {"gateway", "GET /order", -1},
	}
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		req, k := i/len(ops), i%len(ops)
		o := ops[k]
		id := func(k int) int { return req*len(ops) + k + 1 }
		parent := 0
		if o.parent >= 0 {
			parent = id(o.parent)
		}
		start := time.Unix(0, 1767225600_000000000+int64(req)*10_000_000+int64(len(ops)-k)*100_000).UTC()
		end := start.Add(time.Duration(k+1) * time.Millisecond)
		code := "Unset"
		if i%100 == 99 {
			code = "Error"
		}
		fmt.Fprintf(&b, `{"Name":%q,"SpanContext":{"TraceID":"%032x","SpanID":"%016x"},"Parent":{"SpanID":"%016x"},"StartTime":%q,"EndTime":%q,"Status":{"Code":%q},"Resource":[{"Key":"service.name","Value":{"Type":"STRING","Value":%q}}]}`+"\n",
			o.op, req+1, id(k), parent, start.Format(time.RFC3339Nano), end.Format(time.RFC3339Nano), code, o.svc)
	}
	return b.Bytes()
}

// TestDecoderAllocs: decoding allocates per new thing — a name, a
// trace id, a lane, a batch — not per span. The struct decoder made
// 33.8 allocations a span on this stream.
func TestDecoderAllocs(t *testing.T) {
	const spans = 2000
	data := spanStream(spans)
	perRun := testing.AllocsPerRun(5, func() {
		d := NewDecoder(bytes.NewReader(data))
		if n, err := drain(d); err != nil || n != spans {
			t.Fatalf("n=%d err=%v", n, err)
		}
	})
	if perSpan := perRun / spans; perSpan >= 7 {
		t.Errorf("%.1f allocations a span, want fewer than 7", perSpan)
	} else {
		t.Logf("%.2f allocations a span", perSpan)
	}
}

// TestScanErrorOffset: a syntax error is reported at the stream offset
// of the byte that is wrong, anything else at its document's.
func TestScanErrorOffset(t *testing.T) {
	good := strings.TrimSpace(stdoutDoc) + "\n"
	for _, c := range []struct {
		name, tail string
		want       string
	}{
		{"syntax", ` {"x": tru!}`, fmt.Sprintf("spans: offset %d: ", len(good)+10)},
		{"neither format", ` {"hello": "world"}`, fmt.Sprintf("spans: offset %d: ", len(good)+1)},
	} {
		_, err := drain(NewDecoder(io.MultiReader(strings.NewReader(good), strings.NewReader(c.tail))))
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: %v, want prefix %q", c.name, err, c.want)
		}
	}
}

package otlp

import (
	"errors"
	"testing"
)

// parseOne runs one document through the production one-document
// entry.
func parseOne(t *testing.T, doc string) []span {
	t.Helper()
	spans, _, err := NewDecoder(nil).scanDoc(nil, []byte(doc))
	if err != nil {
		t.Fatalf("scanDoc: %v", err)
	}
	return spans
}

const stdoutDoc = `{
	"Name": "GET /users",
	"SpanContext": {"TraceID": "00000000000000000000000000000001", "SpanID": "00000000000000ab"},
	"Parent": {"SpanID": "00000000000000aa"},
	"StartTime": "2026-01-01T00:00:00.0005Z",
	"EndTime": "2026-01-01T00:00:00.0015Z",
	"Status": {"Code": "Error"},
	"Resource": [{"Key": "service.name", "Value": {"Type": "STRING", "Value": "frontend"}}]
}`

// TestStdoutSpan: the stdouttrace form maps onto the normalized span —
// hex ids, RFC3339Nano times as unix nanos, the string error code, and
// the service.name resource attribute.
func TestStdoutSpan(t *testing.T) {
	spans := parseOne(t, stdoutDoc)
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	s := spans[0]
	base := int64(1767225600_000000000) // 2026-01-01T00:00:00Z
	if s.ID != 0xab || s.Parent != 0xaa {
		t.Fatalf("ids = %x parent %x", s.ID, s.Parent)
	}
	if s.Service != "frontend" || s.Op != "GET /users" {
		t.Fatalf("service/op = %q/%q", s.Service, s.Op)
	}
	if s.Start != base+500_000 || s.End != base+1_500_000 {
		t.Fatalf("times = %d..%d", s.Start, s.End)
	}
	if !s.Err {
		t.Fatal("Status Error not detected")
	}
}

// TestStdoutSpanZeroParent: an all-zero parent span id means root.
func TestStdoutSpanZeroParent(t *testing.T) {
	doc := `{"Name":"x","SpanContext":{"TraceID":"01","SpanID":"0a"},"Parent":{"SpanID":"0000000000000000"},"StartTime":"2026-01-01T00:00:00Z","EndTime":"2026-01-01T00:00:01Z"}`
	s := parseOne(t, doc)[0]
	if s.Parent != 0 {
		t.Fatalf("parent = %x, want root", s.Parent)
	}
	if s.Service != "unknown" {
		t.Fatalf("service = %q, want default", s.Service)
	}
	if s.Err {
		t.Fatal("span without status flagged as error")
	}
}

const otlpDoc = `{
	"resourceSpans": [{
		"resource": {"attributes": [{"key": "service.name", "value": {"stringValue": "backend"}}]},
		"scopeSpans": [{
			"spans": [
				{"traceId": "02", "spanId": "0b", "parentSpanId": "0a", "name": "charge",
				 "startTimeUnixNano": "1767225600000000000", "endTimeUnixNano": 1767225600002000000,
				 "status": {"code": 2}},
				{"traceId": "02", "spanId": "0c", "name": "refund",
				 "startTimeUnixNano": "1767225600000000000", "endTimeUnixNano": "1767225600001000000",
				 "status": {"code": "STATUS_CODE_ERROR"}}
			]
		}]
	}]
}`

// TestOTLPSpans: the OTLP-JSON envelope — string and numeric
// timestamps, numeric and enum-string error codes, missing parent.
func TestOTLPSpans(t *testing.T) {
	spans := parseOne(t, otlpDoc)
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	a, b := spans[0], spans[1]
	if a.Service != "backend" || a.Op != "charge" || a.ID != 0x0b || a.Parent != 0x0a {
		t.Fatalf("span a = %+v", a)
	}
	if a.End-a.Start != 2_000_000 {
		t.Fatalf("span a duration = %d", a.End-a.Start)
	}
	if !a.Err || !b.Err {
		t.Fatalf("error codes: numeric=%v enum=%v, want both true", a.Err, b.Err)
	}
	if b.Parent != 0 {
		t.Fatalf("span b parent = %x, want root", b.Parent)
	}
}

// TestOTLPLibrarySpans: pre-1.0 payloads nest spans under
// instrumentationLibrarySpans instead of scopeSpans.
func TestOTLPLibrarySpans(t *testing.T) {
	doc := `{"resourceSpans":[{"instrumentationLibrarySpans":[{"spans":[
		{"traceId":"03","spanId":"0d","name":"old","startTimeUnixNano":"1767225600000000000","endTimeUnixNano":"1767225600000000001"}]}]}]}`
	spans := parseOne(t, doc)
	if len(spans) != 1 || spans[0].Op != "old" {
		t.Fatalf("spans = %+v", spans)
	}
}

// TestDocErrors: malformed spans must error, not import silently.
func TestDocErrors(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"neither format", `{"hello": "world"}`},
		{"zero span id", `{"SpanContext":{"SpanID":"0000000000000000"},"StartTime":"2026-01-01T00:00:00Z","EndTime":"2026-01-01T00:00:00Z"}`},
		{"bad span id", `{"SpanContext":{"SpanID":"zz"},"StartTime":"2026-01-01T00:00:00Z","EndTime":"2026-01-01T00:00:00Z"}`},
		{"long span id", `{"SpanContext":{"SpanID":"00112233445566778899"},"StartTime":"2026-01-01T00:00:00Z","EndTime":"2026-01-01T00:00:00Z"}`},
		{"bad time", `{"SpanContext":{"SpanID":"0a"},"StartTime":"yesterday","EndTime":"2026-01-01T00:00:00Z"}`},
		{"pre-epoch time", `{"SpanContext":{"SpanID":"0a"},"StartTime":"1969-12-31T23:59:59Z","EndTime":"2026-01-01T00:00:00Z"}`},
		{"otlp missing time", `{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":"0a","name":"x"}]}]}]}`},
		{"otlp zero id", `{"resourceSpans":[{"scopeSpans":[{"spans":[{"spanId":"0000000000000000","startTimeUnixNano":"1","endTimeUnixNano":"2"}]}]}]}`},
	}
	for _, c := range cases {
		var syn *syntaxError
		if _, _, err := NewDecoder(nil).scanDoc(nil, []byte(c.doc)); err == nil {
			t.Errorf("%s: no error", c.name)
		} else if err == errShort || errors.As(err, &syn) {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
	}
}

// TestEndBeforeStartClamps: a span whose end precedes its start (clock
// skew between hosts) clamps to zero duration instead of erroring.
func TestEndBeforeStartClamps(t *testing.T) {
	doc := `{"Name":"x","SpanContext":{"SpanID":"0a"},"StartTime":"2026-01-01T00:00:01Z","EndTime":"2026-01-01T00:00:00Z"}`
	s := parseOne(t, doc)[0]
	if s.End != s.Start {
		t.Fatalf("end = %d, want clamped to start %d", s.End, s.Start)
	}
}

// TestSniffSpans: detection keys on the markers both encodings place
// near the head, and never matches other formats.
func TestSniffSpans(t *testing.T) {
	cases := []struct {
		name string
		head string
		want bool
	}{
		{"stdouttrace", stdoutDoc, true},
		{"otlp", otlpDoc, true},
		{"leading whitespace", "\n\t " + stdoutDoc, true},
		{"empty", "", false},
		{"native magic", "ATMG\x01", false},
		{"gzip magic", "\x1f\x8b", false},
		{"plain json", `{"hello": "world"}`, false},
		{"markers but not json", `"SpanContext"`, false},
	}
	for _, c := range cases {
		head := []byte(c.head)
		if len(head) > 4096 {
			head = head[:4096]
		}
		if got := SniffSpans(head); got != c.want {
			t.Errorf("SniffSpans(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

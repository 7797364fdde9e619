package otlp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/openstream/aftermath/internal/trace"
)

// The struct decoder this package read spans with before scan.go: the
// oracle FuzzScanEqualsReference holds the scanner to. It is the old
// production code with nothing changed but a ref prefix on the function
// names the scanner's side still uses.

// spanDoc is one top-level JSON value of the input: either a single
// stdouttrace span (the fields below) or an OTLP-JSON export envelope
// (ResourceSpans). The two never mix in one document.
type spanDoc struct {
	// stdouttrace (one span per line, emitted by the OpenTelemetry Go
	// SDK's stdout exporter).
	Name        string     `json:"Name"`
	SpanContext *sdtCtx    `json:"SpanContext"`
	Parent      *sdtCtx    `json:"Parent"`
	StartTime   string     `json:"StartTime"`
	EndTime     string     `json:"EndTime"`
	Status      *sdtStatus `json:"Status"`
	Resource    []sdtKV    `json:"Resource"`

	// OTLP-JSON envelope; RawMessage so presence is distinguishable
	// from an empty list.
	ResourceSpans json.RawMessage `json:"resourceSpans"`
}

type sdtCtx struct {
	TraceID string `json:"TraceID"`
	SpanID  string `json:"SpanID"`
}

// sdtStatus carries the stdouttrace status; the SDK marshals the code
// as a string ("Unset", "Error", "Ok"), older builds as its numeric
// value (codes.Error == 1).
type sdtStatus struct {
	Code json.RawMessage `json:"Code"`
}

type sdtKV struct {
	Key   string `json:"Key"`
	Value struct {
		Value any `json:"Value"`
	} `json:"Value"`
}

// OTLP-JSON (ExportTraceServiceRequest rendered with protojson).
type otlpResourceSpans struct {
	Resource struct {
		Attributes []otlpKV `json:"attributes"`
	} `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
	// Pre-1.0 payloads used the instrumentationLibrarySpans name.
	LibrarySpans []otlpScopeSpans `json:"instrumentationLibrarySpans"`
}

type otlpScopeSpans struct {
	Spans []otlpSpan `json:"spans"`
}

type otlpKV struct {
	Key   string `json:"key"`
	Value struct {
		StringValue string `json:"stringValue"`
	} `json:"value"`
}

type otlpSpan struct {
	TraceID      string      `json:"traceId"`
	SpanID       string      `json:"spanId"`
	ParentSpanID string      `json:"parentSpanId"`
	Name         string      `json:"name"`
	Start        json.Number `json:"startTimeUnixNano"`
	End          json.Number `json:"endTimeUnixNano"`
	Status       struct {
		// 2 (STATUS_CODE_ERROR) as a number, or the enum name.
		Code json.RawMessage `json:"code"`
	} `json:"status"`
}

// refDocSpans parses one top-level document into normalized spans,
// appending to dst. A document that is valid JSON but neither format
// is an error — garbage in a span stream should fail loudly, not
// silently import an empty trace.
func refDocSpans(dst []span, doc *spanDoc) ([]span, error) {
	if doc.ResourceSpans != nil {
		var rss []otlpResourceSpans
		if err := json.Unmarshal(doc.ResourceSpans, &rss); err != nil {
			return dst, fmt.Errorf("spans: resourceSpans: %w", err)
		}
		for i := range rss {
			var err error
			if dst, err = refResourceSpans(dst, &rss[i]); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}
	if doc.SpanContext != nil {
		s, err := refStdoutSpan(doc)
		if err != nil {
			return dst, err
		}
		return append(dst, s), nil
	}
	return dst, errors.New("spans: JSON document is neither a stdouttrace span nor an OTLP resourceSpans payload")
}

// refStdoutSpan normalizes one stdouttrace document.
func refStdoutSpan(doc *spanDoc) (span, error) {
	id, err := refSpanID(doc.SpanContext.SpanID)
	if err != nil {
		return span{}, err
	}
	if id == 0 {
		return span{}, errors.New("spans: span with zero SpanID")
	}
	var parent uint64
	if doc.Parent != nil && doc.Parent.SpanID != "" {
		if parent, err = refSpanID(doc.Parent.SpanID); err != nil {
			return span{}, err
		}
	}
	start, err := refStdoutTime(doc.StartTime)
	if err != nil {
		return span{}, err
	}
	end, err := refStdoutTime(doc.EndTime)
	if err != nil {
		return span{}, err
	}
	if end < start {
		end = start
	}
	svc := unknownService
	for _, kv := range doc.Resource {
		if kv.Key == serviceNameKey {
			if s, ok := kv.Value.Value.(string); ok && s != "" {
				svc = s
			}
		}
	}
	op := doc.Name
	if op == "" {
		op = "unknown"
	}
	isErr := false
	if doc.Status != nil {
		isErr = refStatusErr(doc.Status.Code, `"Error"`, 1)
	}
	return span{
		TraceID: doc.SpanContext.TraceID,
		ID:      id,
		Parent:  parent,
		Service: svc,
		Op:      op,
		Start:   start,
		End:     end,
		Err:     isErr,
	}, nil
}

// refResourceSpans normalizes every span of one OTLP resourceSpans entry.
func refResourceSpans(dst []span, rs *otlpResourceSpans) ([]span, error) {
	svc := unknownService
	for _, kv := range rs.Resource.Attributes {
		if kv.Key == serviceNameKey && kv.Value.StringValue != "" {
			svc = kv.Value.StringValue
		}
	}
	groups := rs.ScopeSpans
	if len(groups) == 0 {
		groups = rs.LibrarySpans
	}
	for gi := range groups {
		for si := range groups[gi].Spans {
			os := &groups[gi].Spans[si]
			id, err := refSpanID(os.SpanID)
			if err != nil {
				return dst, err
			}
			if id == 0 {
				return dst, errors.New("spans: span with zero spanId")
			}
			var parent uint64
			if os.ParentSpanID != "" {
				if parent, err = refSpanID(os.ParentSpanID); err != nil {
					return dst, err
				}
			}
			start, err := refUnixNanos(os.Start)
			if err != nil {
				return dst, err
			}
			end, err := refUnixNanos(os.End)
			if err != nil {
				return dst, err
			}
			if end < start {
				end = start
			}
			op := os.Name
			if op == "" {
				op = "unknown"
			}
			dst = append(dst, span{
				TraceID: os.TraceID,
				ID:      id,
				Parent:  parent,
				Service: svc,
				Op:      op,
				Start:   start,
				End:     end,
				// OTLP numbers its codes differently from the SDK:
				// STATUS_CODE_ERROR == 2.
				Err: refStatusErr(os.Status.Code, `"STATUS_CODE_ERROR"`, 2),
			})
		}
	}
	return dst, nil
}

// refSpanID parses a hex span id (8 bytes, 16 hex digits; shorter ids are
// accepted and zero-extended). The raw id doubles as the TaskID in the
// normalized trace, so it must fit uint64.
func refSpanID(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	if len(s) > 16 {
		return 0, fmt.Errorf("spans: span id %q longer than 8 bytes", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("spans: bad span id %q", s)
	}
	return v, nil
}

// refStdoutTime parses an RFC3339 timestamp into bounded unix nanoseconds.
func refStdoutTime(s string) (trace.Time, error) {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return 0, fmt.Errorf("spans: bad timestamp %q: %w", s, err)
	}
	return boundedNanos(t.UnixNano())
}

// refUnixNanos parses an OTLP nanosecond timestamp (JSON string or
// number) into bounded unix nanoseconds.
func refUnixNanos(n json.Number) (trace.Time, error) {
	if n == "" {
		return 0, errors.New("spans: span without timestamp")
	}
	v, err := strconv.ParseInt(string(n), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("spans: bad timestamp %q", string(n))
	}
	return boundedNanos(v)
}

// refStatusErr reports whether a status code marks an error, given the
// format's error spelling (enum string and numeric value — the SDK and
// OTLP number their codes differently).
func refStatusErr(raw json.RawMessage, errName string, errNum int64) bool {
	if len(raw) == 0 {
		return false
	}
	if string(raw) == errName {
		return true
	}
	if v, err := strconv.ParseInt(string(bytes.TrimSpace(raw)), 10, 64); err == nil {
		return v == errNum
	}
	return false
}

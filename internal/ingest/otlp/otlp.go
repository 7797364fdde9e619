// Package otlp imports distributed tracing spans — stdouttrace
// line-delimited JSON and OTLP-JSON export payloads — as Aftermath
// traces. Span data carries none of the structure the analysis layer
// works on, so the importer infers it (the staged pipeline of `motel
// import`): task trees are reconstructed from parent span IDs, the
// parallel-vs-sequential call style of every operation is voted from
// its children's start times, services and their concurrent spans are
// mapped onto a synthetic worker/CPU topology (one NUMA node per
// service, one worker lane per observed level of intra-service
// concurrency), and per-(service, operation) duration and error
// statistics are collected along the way. The result is a normalized
// record stream: timelines, metrics, anomaly scans, the hub and the
// CSV exporters all run on an imported microservice trace unmodified.
//
// Both encodings are read by one validating scanner over the buffered
// bytes (scan.go) with two small walkers on top of it (this file): a
// stdouttrace document and an OTLP envelope are walked straight into
// spans, no reflection and no intermediate tree. The walkers accept
// what encoding/json accepted when it decoded the same documents into
// structs — names match under case folding, a null sets nothing, a
// repeated scalar overrides, a repeated object merges, a recognised
// name holding the wrong JSON type rejects the document — with two
// exceptions, both rejected where they used to lose data silently: a
// document that is a stdouttrace span and an OTLP payload at once, and
// an array-valued name given twice in one object.
//
// The Decoder implements the trace.Decoder contract, so one
// implementation serves both batch loading (ingest.Open on a .jsonl
// file) and live tailing (-follow on a file a collector is still
// appending to).
package otlp

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"github.com/openstream/aftermath/internal/trace"
)

// span is the normalized representation both input formats parse into
// (pipeline stage 1): one operation execution in one service.
type span struct {
	TraceID string
	ID      uint64 // span id; never 0
	Parent  uint64 // parent span id; 0 for roots
	Service string
	Op      string
	Start   trace.Time // unix nanoseconds
	End     trace.Time
	Err     bool
}

// Duration returns the span's duration (>= 0; End is clamped to Start
// at parse time).
func (s *span) Duration() trace.Time { return s.End - s.Start }

// serviceNameKey is the OpenTelemetry resource attribute naming the
// service a span belongs to.
const serviceNameKey = "service.name"

// unknownService groups spans whose resource carries no service name;
// unknownOp names a span that has none.
const (
	unknownService = "unknown"
	unknownOp      = "unknown"
)

// Timestamp sanity bounds: unix nanoseconds from 1970 up to the year
// 2200 (~7.3e18, comfortably inside int64). Values outside are corrupt
// input, not exotic clocks — rejecting them keeps every downstream
// interval computation overflow-free.
const maxSpanTime = 7_258_118_400_000_000_000

// SniffSpans reports whether head looks like the start of a span
// stream: a JSON object opening with one of the markers both supported
// encodings put within the first bytes of their first document.
func SniffSpans(head []byte) bool {
	h := bytes.TrimLeft(head, " \t\r\n")
	if len(h) == 0 || h[0] != '{' {
		return false
	}
	return bytes.Contains(head, []byte(`"resourceSpans"`)) ||
		bytes.Contains(head, []byte(`"SpanContext"`)) ||
		bytes.Contains(head, []byte(`"spanId"`))
}

// errMixed and errRepeated reject the two kinds of document this
// package reads differently from the struct decoder it replaced (the
// table in scan_test.go says what that did with them).
var (
	errMixed    = errors.New("spans: JSON document is both a stdouttrace span and an OTLP resourceSpans payload")
	errRepeated = errors.New("spans: array given twice in one JSON object")
)

// names is the set of member names one kind of object is read for;
// index is a name's position in it.
type names [][]byte

func namesOf(list ...string) names {
	n := make(names, len(list))
	for i, s := range list {
		n[i] = []byte(s)
	}
	return n
}

// index finds key the way encoding/json finds a struct field: the
// exact name, else the one equal to it under Unicode case folding; -1
// for a name nobody reads.
func (n names) index(key []byte) int {
	for i := range n {
		if string(key) == string(n[i]) {
			return i
		}
	}
	for i := range n {
		if bytes.EqualFold(key, n[i]) {
			return i
		}
	}
	return -1
}

// The objects the walkers read, each with its names in the order of
// the constants that follow it.
var (
	docNames      = namesOf("Name", "SpanContext", "Parent", "StartTime", "EndTime", "Status", "Resource", "resourceSpans")
	ctxNames      = namesOf("TraceID", "SpanID")
	codeNames     = namesOf("Code") // stdouttrace Status and OTLP status alike
	kvNames       = namesOf("Key", "Value")
	valueNames    = namesOf("Value")
	entryNames    = namesOf("resource", "scopeSpans", "instrumentationLibrarySpans")
	resourceNames = namesOf("attributes")
	stringNames   = namesOf("stringValue")
	groupNames    = namesOf("spans")
	spanNames     = namesOf("traceId", "spanId", "parentSpanId", "name", "startTimeUnixNano", "endTimeUnixNano", "status")
)

const (
	docName = iota
	docSpanContext
	docParent
	docStartTime
	docEndTime
	docStatus
	docResource
	docResourceSpans
)

const (
	entryResource = iota
	entryScopeSpans
	entryLibrarySpans
)

const (
	spanTraceID = iota
	spanSpanID
	spanParentSpanID
	spanName
	spanStart
	spanEnd
	spanStatus
)

// rawSpan is what a document says about one span, as text: nothing is
// interpreted before the object that says it has closed, because a
// later member of the same name overrides an earlier one.
type rawSpan struct {
	traceID, id, parent, name []byte
	start, end                []byte
	code                      []byte // the status code, whatever JSON value it is
}

// scanDoc walks the document at the front of buf — one stdouttrace
// span or one OTLP-JSON export envelope; the two never mix — and
// appends its spans to dst. n is the document's length. errShort says
// buf ends inside the document; any other error rejects it: malformed
// JSON (a *syntaxError), or valid JSON that is neither format or holds
// a span that cannot be one — garbage in a span stream should fail
// loudly, not silently import an empty trace.
func (d *Decoder) scanDoc(dst []span, buf []byte) (_ []span, n int, err error) {
	s := &d.s
	s.reset(buf)
	if c := s.ws(); c != '{' {
		s.unexpected(c, "looking for beginning of span document")
		return dst, 0, s.err
	}
	s.enter()
	var (
		mark        = len(dst)
		sp          rawSpan
		svc         []byte // Resource's service.name
		hasCtx      bool   // SpanContext: what makes a document a stdouttrace span
		hasResource bool
		isEnvelope  bool
	)
	for first := true; s.member(first); first = false {
		switch docNames.index(s.key) {
		case docName:
			sp.name = s.text(sp.name)
		case docSpanContext:
			// SpanContext, Parent and Status are there or not: a
			// null takes back what an earlier one said.
			if s.null() {
				hasCtx, sp.traceID, sp.id = false, nil, nil
			} else if s.object() {
				hasCtx = true
				d.spanContext(&sp.traceID, &sp.id)
			}
		case docParent:
			if s.null() {
				sp.parent = nil
			} else if s.object() {
				var traceID []byte // held to its type, otherwise unread
				d.spanContext(&traceID, &sp.parent)
			}
		case docStartTime:
			sp.start = s.text(sp.start)
		case docEndTime:
			sp.end = s.text(sp.end)
		case docStatus:
			if s.null() {
				sp.code = nil
			} else if s.object() {
				sp.code = d.statusCode(sp.code)
			}
		case docResource:
			s.once(&hasResource)
			svc = d.serviceName(valueNames, true)
		case docResourceSpans:
			s.once(&isEnvelope)
			dst = d.envelope(dst)
		default:
			s.skip()
		}
	}
	switch {
	case s.err != nil:
	case isEnvelope && hasCtx:
		s.err = errMixed
	case isEnvelope:
	case hasCtx:
		var one span
		if one, s.err = d.stdoutSpan(&sp, svc); s.err == nil {
			dst = append(dst, one)
		}
	default:
		s.err = errors.New("spans: JSON document is neither a stdouttrace span nor an OTLP resourceSpans payload")
	}
	if s.err != nil {
		return dst[:mark], 0, s.err
	}
	return dst, s.pos, nil
}

// once fails when an array-valued member comes a second time in its
// object. encoding/json decoded the second array into the elements of
// the first, member by member — nothing an exporter writes, and not a
// reading worth keeping a tree of raw values for.
func (s *scanner) once(seen *bool) {
	if *seen && s.err == nil {
		s.err = fmt.Errorf("%w: %q", errRepeated, s.key)
	}
	*seen = true
}

// spanContext walks a stdouttrace SpanContext or Parent object.
func (d *Decoder) spanContext(traceID, spanID *[]byte) {
	s := &d.s
	for first := true; s.member(first); first = false {
		switch ctxNames.index(s.key) {
		case 0:
			*traceID = s.text(*traceID)
		case 1:
			*spanID = s.text(*spanID)
		default:
			s.skip()
		}
	}
}

// statusCode walks a status object and returns its code as raw JSON.
func (d *Decoder) statusCode(code []byte) []byte {
	s := &d.s
	for first := true; s.member(first); first = false {
		if codeNames.index(s.key) == 0 {
			code = s.raw()
		} else {
			s.skip()
		}
	}
	return code
}

// stdoutSpan normalizes one stdouttrace document.
func (d *Decoder) stdoutSpan(sp *rawSpan, svc []byte) (span, error) {
	start, err := stdoutTime(sp.start)
	if err != nil {
		return span{}, err
	}
	end, err := stdoutTime(sp.end)
	if err != nil {
		return span{}, err
	}
	out, err := d.normalize(sp, start, end)
	out.Service = d.service(svc)
	// The SDK marshals the code as a string ("Unset", "Error", "Ok"),
	// older builds as its numeric value (codes.Error == 1).
	out.Err = statusErr(sp.code, `"Error"`, "1")
	return out, err
}

// envelope walks the value of resourceSpans: an OTLP-JSON
// ExportTraceServiceRequest as protojson renders it.
func (d *Decoder) envelope(dst []span) []span {
	s := &d.s
	if !s.array() {
		return dst
	}
	for first := true; s.elem(first); first = false {
		if s.object() {
			dst = d.resourceSpans(dst)
		}
	}
	return dst
}

// resourceSpans walks one resourceSpans entry, appending its spans to
// dst. What the entry says as a whole is applied when it closes: the
// service name is patched into its spans then, because resource may
// follow scopeSpans, and spans under the pre-1.0 name
// instrumentationLibrarySpans count only beside an empty scopeSpans —
// so a span of either array that does not convert is an error of the
// entry only once it is known which array counts.
func (d *Decoder) resourceSpans(dst []span) []span {
	s := &d.s
	var (
		mark                         = len(dst)
		svc                          []byte
		hasAttrs, hasScopes, hasLibs bool
		scopes                       int // groups in scopeSpans
		libLo, libHi                 int // dst[libLo:libHi] came from instrumentationLibrarySpans
		scopeErr, libErr             error
	)
	for first := true; s.member(first); first = false {
		switch entryNames.index(s.key) {
		case entryResource:
			if !s.object() {
				continue
			}
			for first := true; s.member(first); first = false {
				if resourceNames.index(s.key) != 0 {
					s.skip()
					continue
				}
				s.once(&hasAttrs)
				svc = d.serviceName(stringNames, false)
			}
		case entryScopeSpans:
			s.once(&hasScopes)
			dst, scopes, scopeErr = d.groups(dst)
		case entryLibrarySpans:
			s.once(&hasLibs)
			libLo = len(dst)
			dst, _, libErr = d.groups(dst)
			libHi = len(dst)
		default:
			s.skip()
		}
	}
	if s.err != nil {
		return dst
	}
	if scopes > 0 {
		s.err = scopeErr
		dst = slices.Delete(dst, libLo, libHi)
	} else {
		s.err = libErr
	}
	name := d.service(svc)
	for i := mark; i < len(dst); i++ {
		dst[i].Service = name
	}
	return dst
}

// serviceName walks an attribute list — a stdouttrace Resource or an
// OTLP resource's attributes — and returns its service.name, nil
// without one: the last non-empty string under that key. An attribute
// is {"Key": k, "Value": {inner: v}}; inner is "Value" in stdouttrace,
// where v may be of any type and counts when it is a string, and
// "stringValue" in OTLP, where it must be one.
func (d *Decoder) serviceName(inner names, anyType bool) (svc []byte) {
	s := &d.s
	if !s.array() {
		return nil
	}
	for first := true; s.elem(first); first = false {
		if !s.object() {
			continue
		}
		var key, val []byte
		for first := true; s.member(first); first = false {
			switch kvNames.index(s.key) {
			case 0:
				key = s.text(key)
			case 1:
				if !s.object() {
					continue
				}
				for first := true; s.member(first); first = false {
					if inner.index(s.key) != 0 {
						s.skip()
					} else if !anyType {
						val = s.text(val)
					} else if val = nil; s.ws() == '"' {
						val = s.str()
					} else {
						s.skip()
					}
				}
			default:
				s.skip()
			}
		}
		if string(key) == serviceNameKey && len(val) > 0 {
			svc = val
		}
	}
	return svc
}

// groups walks a scopeSpans or instrumentationLibrarySpans array,
// appending the spans of its groups to dst. It returns how many groups
// the array holds and the first failure to normalize one of their
// spans, which is the entry's to judge (see resourceSpans).
func (d *Decoder) groups(dst []span) (_ []span, n int, bad error) {
	s := &d.s
	if !s.array() {
		return dst, 0, nil
	}
	for first := true; s.elem(first); first = false {
		n++
		if !s.object() {
			continue
		}
		hasSpans := false
		for first := true; s.member(first); first = false {
			if groupNames.index(s.key) != 0 {
				s.skip()
				continue
			}
			s.once(&hasSpans)
			if !s.array() {
				continue
			}
			for first := true; s.elem(first); first = false {
				sp, err := d.envelopeSpan()
				switch {
				case s.err != nil:
				case err == nil:
					dst = append(dst, sp)
				case bad == nil:
					bad = err
				}
			}
		}
	}
	return dst, n, bad
}

// envelopeSpan walks one element of a spans array and normalizes it; a
// null there is a span that says nothing, which cannot be one.
func (d *Decoder) envelopeSpan() (span, error) {
	s := &d.s
	var sp rawSpan
	if s.object() {
		for first := true; s.member(first); first = false {
			switch spanNames.index(s.key) {
			case spanTraceID:
				sp.traceID = s.text(sp.traceID)
			case spanSpanID:
				sp.id = s.text(sp.id)
			case spanParentSpanID:
				sp.parent = s.text(sp.parent)
			case spanName:
				sp.name = s.text(sp.name)
			case spanStart:
				sp.start = s.numberText(sp.start)
			case spanEnd:
				sp.end = s.numberText(sp.end)
			case spanStatus:
				if s.object() {
					sp.code = d.statusCode(sp.code)
				}
			default:
				s.skip()
			}
		}
	}
	if s.err != nil {
		return span{}, nil
	}
	start, err := unixNanos(sp.start)
	if err != nil {
		return span{}, err
	}
	end, err := unixNanos(sp.end)
	if err != nil {
		return span{}, err
	}
	out, err := d.normalize(&sp, start, end)
	// OTLP numbers its codes differently from the SDK:
	// STATUS_CODE_ERROR == 2.
	out.Err = statusErr(sp.code, `"STATUS_CODE_ERROR"`, "2")
	return out, err
}

// normalize builds the span sp describes, all but its service and
// error flag, which the two formats spell differently.
func (d *Decoder) normalize(sp *rawSpan, start, end trace.Time) (span, error) {
	id, err := spanID(sp.id)
	if err != nil {
		return span{}, err
	}
	if id == 0 {
		return span{}, errors.New("spans: span with zero span id")
	}
	parent, err := spanID(sp.parent)
	if err != nil {
		return span{}, err
	}
	if end < start {
		end = start
	}
	op := unknownOp
	if len(sp.name) > 0 {
		op = d.intern(sp.name)
	}
	return span{
		TraceID: d.intern(sp.traceID),
		ID:      id,
		Parent:  parent,
		Op:      op,
		Start:   start,
		End:     end,
	}, nil
}

// service returns the interned service name, unknownService for none.
func (d *Decoder) service(name []byte) string {
	if len(name) == 0 {
		return unknownService
	}
	return d.intern(name)
}

// intern returns the string for a service or operation name or a trace
// id, a new one only the first time it is seen: spans are many, names
// and traces few.
func (d *Decoder) intern(b []byte) string {
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	d.interned[s] = s
	return s
}

// spanID parses a hex span id (8 bytes, 16 hex digits; shorter ids are
// accepted and zero-extended, none is 0). The raw id doubles as the
// TaskID in the normalized trace, so it must fit uint64.
func spanID(b []byte) (uint64, error) {
	if len(b) > 16 {
		return 0, fmt.Errorf("spans: span id %q longer than 8 bytes", b)
	}
	var v uint64
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, fmt.Errorf("spans: bad span id %q", b)
		}
		v = v<<4 | uint64(c)
	}
	return v, nil
}

// stdoutTime parses an RFC3339 timestamp into bounded unix
// nanoseconds. UnmarshalText is time's parser for bytes; it may refuse
// what time.Parse reads, so that has the last word.
func stdoutTime(b []byte) (trace.Time, error) {
	var t time.Time
	if t.UnmarshalText(b) != nil {
		var err error
		if t, err = time.Parse(time.RFC3339Nano, string(b)); err != nil {
			return 0, fmt.Errorf("spans: bad timestamp %q: %w", b, err)
		}
	}
	return boundedNanos(t.UnixNano())
}

// unixNanos parses an OTLP nanosecond timestamp (the text of a JSON
// string or number) into bounded unix nanoseconds.
func unixNanos(b []byte) (trace.Time, error) {
	if len(b) == 0 {
		return 0, errors.New("spans: span without timestamp")
	}
	v, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("spans: bad timestamp %q", b)
	}
	return boundedNanos(v)
}

func boundedNanos(v int64) (trace.Time, error) {
	if v < 0 || v > maxSpanTime {
		return 0, fmt.Errorf("spans: timestamp %d outside the supported range", v)
	}
	return v, nil
}

// statusErr reports whether a status code (raw JSON) marks an error,
// given the format's error spelling: the enum's name as a string, or
// its value as a number — which JSON spells one way only.
func statusErr(raw []byte, errName, errNum string) bool {
	return string(raw) == errName || string(raw) == errNum
}

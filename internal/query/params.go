// URL parameter parsing: one strict, shared implementation of the
// window/filter/mode/counter parameters every HTTP endpoint accepts,
// and the one reader (Params) both it and the endpoints' own
// parameters go through.
package query

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"

	"github.com/openstream/aftermath/internal/render"
)

// BadParamError reports a malformed request parameter. HTTP layers
// render it as a structured JSON 400.
type BadParamError struct {
	// Param is the offending parameter name.
	Param string
	// Reason says what is wrong with it.
	Reason string
}

func (e *BadParamError) Error() string {
	return fmt.Sprintf("invalid parameter %q: %s", e.Param, e.Reason)
}

func badParam(param, format string, args ...interface{}) error {
	return &BadParamError{Param: param, Reason: fmt.Sprintf(format, args...)}
}

// Params reads typed parameters off URL values. An absent (or empty)
// parameter reads as its default and an out-of-range integer is
// clamped, but a malformed value is a BadParamError, and the first
// failure sticks: later reads keep returning usable values, so a
// caller reads all it needs and checks Err once. The parameter blamed
// is the first bad one in reading order, not in URL order.
type Params struct {
	v   url.Values
	err error
}

// NewParams returns a reader over v.
func NewParams(v url.Values) *Params { return &Params{v: v} }

// Err returns the first failure recorded, nil when every read parsed.
func (p *Params) Err() error { return p.err }

// Reject records err (say, a value that parsed but means nothing)
// unless an earlier failure already stuck.
func (p *Params) Reject(err error) {
	if p.err == nil {
		p.err = err
	}
}

// Str returns a string parameter, def when absent.
func (p *Params) Str(key, def string) string {
	if s := p.v.Get(key); s != "" {
		return s
	}
	return def
}

// Int64 reads a 64-bit integer (trace times, durations).
func (p *Params) Int64(key string, def int64) int64 {
	s := p.v.Get(key)
	if s == "" {
		return def
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		p.Reject(badParam(key, "not an integer: %q", s))
		return def
	}
	return n
}

// Int reads an integer clamped to [lo, hi].
func (p *Params) Int(key string, def, lo, hi int) int {
	return int(min(max(p.Int64(key, int64(def)), int64(lo)), int64(hi)))
}

// Float reads a float.
func (p *Params) Float(key string, def float64) float64 {
	s := p.v.Get(key)
	if s == "" {
		return def
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.Reject(badParam(key, "not a number: %q", s))
		return def
	}
	return f
}

// nodes reads a comma-separated list of NUMA node ids, each a
// non-negative integer (one beyond int32 is clamped: like one beyond
// the topology, it names no node).
func (p *Params) nodes(key string) []int32 {
	s := p.v.Get(key)
	if s == "" {
		return nil
	}
	var ids []int32
	for _, e := range strings.Split(s, ",") {
		n, err := strconv.ParseInt(e, 10, 64)
		if err != nil || n < 0 {
			p.Reject(badParam(key, "not a node id: %q", e))
			return nil
		}
		ids = append(ids, int32(min(n, math.MaxInt32)))
	}
	return ids
}

// Flag reads a boolean toggle with the viewer's convention: absent
// defaults to def, "0" is false, anything else is true.
func (p *Params) Flag(key string, def bool) bool {
	if s := p.v.Get(key); s != "" {
		return s != "0"
	}
	return def
}

// FromValues parses the shared query parameters from URL values:
//
//	t0, t1          window bounds (cycles)
//	types           comma-separated task type names
//	mindur, maxdur  duration filter bounds (cycles, non-negative; a
//	                non-zero maxdur must not be below mindur)
//	rnodes, wnodes  comma-separated NUMA node ids: tasks that read
//	                from (write to) data homed on one of them
//	mode            timeline mode name
//	counter         counter name for overlays
//	rate            "0" selects raw cumulative counter values
//
// Malformed values return a BadParamError instead of being silently
// ignored or clamped: a reordered, duplicated or oddly-spelled request
// either means exactly one canonical query or is rejected.
func FromValues(v url.Values) (*Query, error) {
	q := New()
	p := Params{v: v}
	if t0 := p.Int64("t0", 0); v.Get("t0") != "" {
		q.From(t0)
	}
	if t1 := p.Int64("t1", 0); v.Get("t1") != "" {
		q.Until(t1)
	}
	// t0=0&t1=0 means "the full span" — the render-config convention,
	// and what a live trace's viewer links carry from before data
	// arrived — so it parses as an unrestricted window (and shares the
	// unwindowed request's cache entry). Inverted windows are always
	// nonsense; other merely-empty windows (t0 == t1) are judged
	// against the trace span at resolve time.
	if q.hasT0 && q.hasT1 {
		if q.t0 == 0 && q.t1 == 0 {
			q.hasT0, q.hasT1 = false, false
		} else if q.t1 < q.t0 {
			p.Reject(badParam("t1", "inverted window: t1 (%d) must not precede t0 (%d)", q.t1, q.t0))
		}
	}
	if s := v.Get("types"); s != "" {
		q.Types(strings.Split(s, ",")...)
	}
	min, max := p.Int64("mindur", 0), p.Int64("maxdur", 0)
	if min < 0 {
		p.Reject(badParam("mindur", "must be non-negative, got %d", min))
	}
	if max < 0 {
		p.Reject(badParam("maxdur", "must be non-negative, got %d", max))
	} else if max != 0 && max < min {
		p.Reject(badParam("maxdur", "inverted range: maxdur (%d) must not be below mindur (%d)", max, min))
	}
	q.Durations(min, max)
	q.ReadNodes(p.nodes("rnodes")...).WriteNodes(p.nodes("wnodes")...)
	if s := v.Get("mode"); s != "" {
		if m, err := render.ParseMode(s); err != nil {
			p.Reject(badParam("mode", "unknown timeline mode %q", s))
		} else {
			q.Mode(m)
		}
	}
	if s := v.Get("counter"); s != "" {
		q.Counter(s)
	}
	q.Rate(p.Flag("rate", true))
	if p.err != nil {
		return nil, p.err
	}
	return q, nil
}

// URL parameter parsing: one strict, shared implementation of the
// window/filter/mode/counter parameters every HTTP endpoint accepts,
// replacing the per-handler re-parsing (and its silently-ignored
// malformed values) the viewer used to carry.
package query

import (
	"fmt"
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

// IntParam parses an integer parameter, returning def when absent and
// a BadParamError when malformed. Out-of-range values are the caller's
// policy (serving layers clamp them); syntax errors are not.
func IntParam(v url.Values, key string, def int) (int, error) {
	s := v.Get(key)
	if s == "" {
		return def, nil
	}
	p, err := strconv.Atoi(s)
	if err != nil {
		return 0, badParam(key, "not an integer: %q", s)
	}
	return p, nil
}

// Int64Param is IntParam for 64-bit values (trace times, durations).
func Int64Param(v url.Values, key string, def int64) (int64, error) {
	s := v.Get(key)
	if s == "" {
		return def, nil
	}
	p, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, badParam(key, "not an integer: %q", s)
	}
	return p, nil
}

// FloatParam parses a float parameter with the same contract.
func FloatParam(v url.Values, key string, def float64) (float64, error) {
	s := v.Get(key)
	if s == "" {
		return def, nil
	}
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, badParam(key, "not a number: %q", s)
	}
	return p, nil
}

// FlagParam parses a boolean toggle with the viewer's convention:
// absent defaults to def, "0" is false, anything else is true.
func FlagParam(v url.Values, key string, def bool) bool {
	s := v.Get(key)
	if s == "" {
		return def
	}
	return s != "0"
}

// FromValues parses the shared query parameters from URL values:
//
//	t0, t1          window bounds (cycles)
//	types           comma-separated task type names
//	mindur, maxdur  duration filter bounds (cycles, non-negative)
//	mode            timeline mode name
//	counter         counter name for overlays
//	rate            "0" selects raw cumulative counter values
//
// Malformed values return a BadParamError instead of being silently
// ignored or clamped: a reordered, duplicated or oddly-spelled request
// either means exactly one canonical query or is rejected.
func FromValues(v url.Values) (*Query, error) {
	q := New()
	t0, err := Int64Param(v, "t0", 0)
	if err != nil {
		return nil, err
	}
	if v.Get("t0") != "" {
		q.From(t0)
	}
	t1, err := Int64Param(v, "t1", 0)
	if err != nil {
		return nil, err
	}
	if v.Get("t1") != "" {
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
			return nil, badParam("t1", "inverted window: t1 (%d) must not precede t0 (%d)", q.t1, q.t0)
		}
	}
	if s := v.Get("types"); s != "" {
		q.Types(strings.Split(s, ",")...)
	}
	min, err := Int64Param(v, "mindur", 0)
	if err != nil {
		return nil, err
	}
	max, err := Int64Param(v, "maxdur", 0)
	if err != nil {
		return nil, err
	}
	if min < 0 {
		return nil, badParam("mindur", "must be non-negative, got %d", min)
	}
	if max < 0 {
		return nil, badParam("maxdur", "must be non-negative, got %d", max)
	}
	q.Durations(min, max)
	if s := v.Get("mode"); s != "" {
		m, err := render.ParseMode(s)
		if err != nil {
			return nil, badParam("mode", "unknown timeline mode %q", s)
		}
		q.Mode(m)
	}
	if s := v.Get("counter"); s != "" {
		q.Counter(s)
	}
	q.Rate(FlagParam(v, "rate", true))
	return q, nil
}

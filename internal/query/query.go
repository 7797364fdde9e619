// Package query is the uniform query layer between trace sources and
// views. It introduces the two concepts every serving and analysis
// surface is built on:
//
//   - Source: anything that yields epoch-versioned immutable *Trace
//     snapshots — a fully loaded batch trace (epoch forever 0, see
//     NewStatic) or a live trace still being appended to (core.Live).
//     Metrics, statistics, rendering, anomaly scanning and export all
//     accept any source through one entry point.
//   - Query: a composable value describing *what* to compute — time
//     window, task filter, resolution, timeline mode, counter
//     selection, anomaly parameters — built fluently
//     (New().Window(t0, t1).Types("seidel_block").Intervals(200)) or
//     parsed from URL parameters (FromValues). Its canonical
//     serialized form (Canonical) is order-independent and
//     duplicate-free, so it doubles as the cache key: two requests
//     that mean the same thing share one cache entry, however their
//     parameters were spelled or ordered.
//
// Executors (WindowOf, FilterOf, SeriesOf, StatsOf, TimelineOf,
// HistogramOf, CommMatrixOf, AnomaliesOf, TasksOf, TasksCSVTo,
// TaskDeltasOf) run a Query against one immutable snapshot. They own
// the parameter semantics the HTTP viewer, the Hub server and the
// public Query* API share.
package query

import (
	"context"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/trace"
)

// Source yields epoch-versioned immutable trace snapshots. The epoch
// versions every artifact derived from the snapshot (cache entries):
// it increments whenever the underlying data changes, and two
// snapshots with equal epochs are identical. core.Live implements
// Source directly; NewStatic adapts a loaded batch trace.
type Source interface {
	// Snapshot returns the current immutable trace and its epoch.
	// The returned trace must stay valid and constant even if the
	// source is appended to afterwards.
	Snapshot() (*core.Trace, uint64)
}

// LiveSource is implemented by sources whose epoch can advance
// (core.Live). Serving layers use it to tell live traces from static
// ones, to surface sticky ingest errors, to hold SSE streams open
// instead of making clients poll, and to report retention status.
type LiveSource interface {
	Source
	// Err returns the sticky ingest error, or nil while healthy.
	Err() error
	// Watch subscribes to epoch advances, sticky ingest errors and
	// spill-state changes, with drop-to-latest coalescing per
	// subscriber.
	Watch(ctx context.Context) <-chan core.TraceEvent
	// SpillStats returns the CURRENT spill/retention state, which can
	// differ from the published snapshot's (background compactions
	// install without publishing).
	SpillStats() (core.SpillStats, bool)
}

// StaticSource is implemented by sources wrapping one immutable
// trace; StaticTrace returns it (serving layers use this to expose
// the underlying trace of a static viewer).
type StaticSource interface {
	Source
	StaticTrace() *core.Trace
}

// staticSource adapts an immutable loaded trace: epoch forever 0.
type staticSource struct{ tr *core.Trace }

func (s staticSource) Snapshot() (*core.Trace, uint64) { return s.tr, 0 }
func (s staticSource) StaticTrace() *core.Trace        { return s.tr }

// NewStatic returns a Source serving tr at epoch 0 forever.
func NewStatic(tr *core.Trace) Source { return staticSource{tr} }

// Query describes one view-layer computation over a snapshot: the
// window, the task filter, the resolution and the verb-specific
// selections. The zero value (or New()) means "everything, defaults".
// Builder methods mutate and return the receiver for fluent chaining;
// use Clone before deriving variants from a shared query.
type Query struct {
	hasT0, hasT1 bool
	t0, t1       trace.Time

	types          []string // sorted, deduplicated
	minDur, maxDur trace.Time
	// Sorted and deduplicated. The builders replace them and nothing
	// writes into them, so copies of a query share them.
	rnodes, wnodes []int32

	intervals int
	metric    string

	mode    render.Mode
	modeSet bool
	counter string
	rateOff bool
	cpus    []int32

	width, height    int
	level            int
	labelsOff        bool
	heatMin, heatMax trace.Time
	shades           int
	marksOff         bool
	cell             int

	bins     int
	kinds    stats.CommKinds
	kindsSet bool

	windows    int
	minScore   float64
	maxPerKind int
	anomKind   string
	limit      int
}

// New returns an empty query: full span, no filter, defaults.
func New() *Query { return &Query{} }

// Clone returns an independent copy of q.
func (q *Query) Clone() *Query {
	c := *q
	c.types = append([]string(nil), q.types...)
	if q.cpus != nil {
		// Preserve non-nil emptiness: nil means all CPUs, empty means
		// none.
		c.cpus = append([]int32{}, q.cpus...)
	}
	return &c
}

// Window restricts the query to the interval [t0, t1).
func (q *Query) Window(t0, t1 trace.Time) *Query {
	q.t0, q.t1 = t0, t1
	q.hasT0, q.hasT1 = true, true
	return q
}

// From restricts the window's start only (the end defaults to the
// snapshot's span end).
func (q *Query) From(t0 trace.Time) *Query { q.t0, q.hasT0 = t0, true; return q }

// Until restricts the window's end only.
func (q *Query) Until(t1 trace.Time) *Query { q.t1, q.hasT1 = t1, true; return q }

// HasWindow reports whether the query restricts the window on either
// side.
func (q *Query) HasWindow() bool { return q.hasT0 || q.hasT1 }

// HasStart and HasEnd report which window bound the query restricts.
func (q *Query) HasStart() bool { return q.hasT0 }

// HasEnd reports whether the window's end is restricted.
func (q *Query) HasEnd() bool { return q.hasT1 }

// Types restricts to tasks of the named types. Names are stored
// sorted and deduplicated, so Types("a", "b") and Types("b", "a", "b")
// are the same query (and share one cache entry).
func (q *Query) Types(names ...string) *Query {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		if n != "" {
			set[n] = true
		}
	}
	q.types = q.types[:0]
	for n := range set {
		q.types = append(q.types, n)
	}
	sort.Strings(q.types)
	return q
}

// Durations bounds the task execution duration in cycles (0 max means
// unbounded above).
func (q *Query) Durations(min, max trace.Time) *Query {
	q.minDur, q.maxDur = min, max
	return q
}

// ReadNodes restricts to tasks that read data homed on at least one of
// the given NUMA nodes. Like Types, ids are stored sorted and
// deduplicated; negative ids name no node and are dropped.
func (q *Query) ReadNodes(ids ...int32) *Query { q.rnodes = nodeSet(ids); return q }

// WriteNodes restricts to tasks that write data homed on at least one
// of the given NUMA nodes, stored as ReadNodes stores its ids.
func (q *Query) WriteNodes(ids ...int32) *Query { q.wnodes = nodeSet(ids); return q }

// nodeSet returns the non-negative ids sorted and deduplicated, nil
// when none is left.
func nodeSet(ids []int32) []int32 {
	var out []int32
	for _, id := range ids {
		if id >= 0 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Intervals sets the resolution of derived metric series.
func (q *Query) Intervals(n int) *Query { q.intervals = n; return q }

// Metric selects the derived metric: "idle", "avgdur", or a counter
// name (aggregated across CPUs and differentiated).
func (q *Query) Metric(name string) *Query { q.metric = name; return q }

// Mode selects the timeline mode.
func (q *Query) Mode(m render.Mode) *Query { q.mode, q.modeSet = m, true; return q }

// Counter selects a counter by name for overlays.
func (q *Query) Counter(name string) *Query { q.counter = name; return q }

// Rate switches a counter overlay between rate (default) and raw
// cumulative values.
func (q *Query) Rate(on bool) *Query { q.rateOff = !on; return q }

// CPUs selects the visible CPUs of a timeline by id, in row order. A nil
// slice means all CPUs; a non-nil empty slice means none (the
// renderer's distinction), so the choice survives the round trip.
func (q *Query) CPUs(cpus ...int32) *Query {
	if cpus == nil {
		q.cpus = nil
		return q
	}
	q.cpus = append([]int32{}, cpus...)
	return q
}

// Size sets the pixel dimensions of a rendering.
func (q *Query) Size(w, h int) *Query { q.width, q.height = w, h; return q }

// Level selects a coarse resolution for progressive refinement: the
// effective pixel resolution (timeline width, series interval count)
// is divided by 2^level, so a level-N response renders from ~2^N times
// fewer pyramid cells and arrives fast enough to paint before the
// exact (level-0) tile is ready. Level 0 — the default — is the exact
// full-resolution answer; the canonical form includes a non-zero level,
// so coarse and exact responses never share a cache entry.
func (q *Query) Level(n int) *Query {
	if n < 0 {
		n = 0
	}
	q.level = n
	return q
}

// Labels toggles CPU row labels (default on).
func (q *Query) Labels(on bool) *Query { q.labelsOff = !on; return q }

// Heat sets a fixed heatmap scale (both zero derives it from the
// visible tasks).
func (q *Query) Heat(min, max trace.Time) *Query { q.heatMin, q.heatMax = min, max; return q }

// Shades quantizes the heatmap.
func (q *Query) Shades(n int) *Query { q.shades = n; return q }

// Marks toggles annotation markers on rendered timelines (default on).
func (q *Query) Marks(on bool) *Query { q.marksOff = !on; return q }

// Cell sets the communication-matrix cell size in pixels.
func (q *Query) Cell(px int) *Query { q.cell = px; return q }

// Bins sets the histogram bin count.
func (q *Query) Bins(n int) *Query { q.bins = n; return q }

// Comm selects the communication kinds of a matrix query (reads and
// writes when never called).
func (q *Query) Comm(kinds stats.CommKinds) *Query { q.kinds, q.kindsSet = kinds, true; return q }

// AnomalyWindows sets the number of sliding analysis windows of an
// anomaly scan.
func (q *Query) AnomalyWindows(n int) *Query { q.windows = n; return q }

// MinScore prunes anomaly findings scoring below it.
func (q *Query) MinScore(s float64) *Query { q.minScore = s; return q }

// MaxPerKind bounds the findings each detector may return (<0 means
// unbounded).
func (q *Query) MaxPerKind(n int) *Query { q.maxPerKind = n; return q }

// AnomalyKind restricts anomaly results to one kind name.
func (q *Query) AnomalyKind(name string) *Query { q.anomKind = name; return q }

// Limit caps the number of results returned.
func (q *Query) Limit(n int) *Query { q.limit = n; return q }

// copyWindow and copyFilter copy the window and task-filter fields
// into a projection — the shared plumbing of the *Only reductions.
func (q *Query) copyWindow(c *Query) {
	c.hasT0, c.hasT1, c.t0, c.t1 = q.hasT0, q.hasT1, q.t0, q.t1
}

func (q *Query) copyFilter(c *Query) {
	c.types = append([]string(nil), q.types...)
	c.minDur, c.maxDur = q.minDur, q.maxDur
	c.rnodes, c.wnodes = q.rnodes, q.wnodes
}

// StatsOnly returns a copy of q reduced to the fields StatsOf depends
// on — the window and the task filter — so verb-irrelevant parameters
// (mode, counter, ...) never fragment a stats cache.
func (q *Query) StatsOnly() *Query {
	c := New()
	q.copyWindow(c)
	q.copyFilter(c)
	return c
}

// MatrixOnly returns a copy of q reduced to the fields CommMatrixOf
// depends on — the window and the communication kinds — plus the
// given cell size.
func (q *Query) MatrixOnly(cell int) *Query {
	c := New().Cell(cell)
	q.copyWindow(c)
	c.kinds, c.kindsSet = q.kinds, q.kindsSet
	return c
}

// SeriesOnly returns a copy of q reduced to the fields SeriesOf
// depends on — metric, resolution and, for filter-sensitive metrics,
// the task filter — plus the given pixel dimensions. Serving layers
// cache plots under this projection's canonical form, so requests
// differing only in window or (for filter-insensitive metrics)
// filter share one entry.
func (q *Query) SeriesOnly(width, height int) *Query {
	c := New().Size(width, height)
	c.metric, c.intervals, c.level = q.metric, q.intervals, q.level
	if q.metric == "avgdur" {
		q.copyFilter(c)
	}
	return c
}

// ScanOnly returns a copy of q reduced to the fields an anomaly scan
// depends on: the window, the task filter and the scan parameters.
// Result selection (Limit, AnomalyKind) and view-only fields (mode,
// counter, dimensions, ...) are dropped — they select from or render
// the response, not the scan — so a serving layer that caches findings
// under this projection plus the result selection keeps one entry per
// distinct answer.
func (q *Query) ScanOnly() *Query {
	c := New()
	q.copyWindow(c)
	q.copyFilter(c)
	c.windows, c.minScore, c.maxPerKind = q.windows, q.minScore, q.maxPerKind
	return c
}

// Canonical returns the canonical serialized form of the query: a
// deterministic, order-independent encoding in which equivalent
// queries — however their parameters were spelled, ordered or
// duplicated — are byte-identical. It is the cache key contract of the
// whole serving layer: response caches key on
// (trace, epoch, Canonical()).
func (q *Query) Canonical() string {
	var b strings.Builder
	field := func(k, v string) {
		if b.Len() > 0 {
			b.WriteByte('&')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
	}
	num := func(k string, v int64) { field(k, strconv.FormatInt(v, 10)) }
	if q.hasT0 {
		num("t0", q.t0)
	}
	if q.hasT1 {
		num("t1", q.t1)
	}
	if len(q.types) > 0 {
		esc := make([]string, len(q.types))
		for i, n := range q.types {
			esc[i] = escapeElem(n)
		}
		field("types", strings.Join(esc, ","))
	}
	if q.minDur != 0 {
		num("mindur", q.minDur)
	}
	if q.maxDur != 0 {
		num("maxdur", q.maxDur)
	}
	if len(q.rnodes) > 0 {
		field("rnodes", joinInt32(q.rnodes))
	}
	if len(q.wnodes) > 0 {
		field("wnodes", joinInt32(q.wnodes))
	}
	if q.intervals != 0 {
		num("n", int64(q.intervals))
	}
	if q.metric != "" {
		field("metric", escapeElem(q.metric))
	}
	if q.modeSet && q.mode != render.ModeState {
		field("mode", q.mode.String())
	}
	if q.counter != "" {
		field("counter", escapeElem(q.counter))
	}
	if q.rateOff {
		field("rate", "0")
	}
	if q.cpus != nil {
		field("cpus", joinInt32(q.cpus))
	}
	if q.width != 0 {
		num("w", int64(q.width))
	}
	if q.height != 0 {
		num("h", int64(q.height))
	}
	if q.level != 0 {
		num("level", int64(q.level))
	}
	if q.labelsOff {
		field("labels", "0")
	}
	if q.heatMin != 0 {
		num("heatmin", q.heatMin)
	}
	if q.heatMax != 0 {
		num("heatmax", q.heatMax)
	}
	if q.shades != 0 {
		num("shades", int64(q.shades))
	}
	if q.marksOff {
		field("marks", "0")
	}
	if q.cell != 0 {
		num("cell", int64(q.cell))
	}
	if q.bins != 0 {
		num("bins", int64(q.bins))
	}
	if q.kindsSet && q.kinds != stats.ReadsAndWrites {
		num("comm", int64(q.kinds))
	}
	if q.windows != 0 {
		num("windows", int64(q.windows))
	}
	if q.minScore != 0 {
		field("minscore", strconv.FormatFloat(q.minScore, 'g', -1, 64))
	}
	if q.maxPerKind != 0 {
		num("maxperkind", int64(q.maxPerKind))
	}
	if q.anomKind != "" {
		field("kind", escapeElem(q.anomKind))
	}
	if q.limit != 0 {
		num("limit", int64(q.limit))
	}
	return b.String()
}

// escapeElem escapes the characters the canonical encoding reserves
// ('&', '=', ',', '%', '|'), so user-controlled strings can never
// alias a neighbouring field.
func escapeElem(s string) string {
	if !strings.ContainsAny(s, "&=,%|") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&', '=', ',', '%', '|':
			const hex = "0123456789ABCDEF"
			b.WriteByte('%')
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func joinInt32(vs []int32) string {
	ss := make([]string, len(vs))
	for i, v := range vs {
		ss[i] = strconv.FormatInt(int64(v), 10)
	}
	return strings.Join(ss, ",")
}

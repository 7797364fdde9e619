package query

import (
	"bytes"
	"math"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/trace"
)

// TestCanonicalOrderIndependence: equivalent queries canonicalize
// byte-identically regardless of builder call order, type-name order
// or duplication — the property that makes Canonical a cache key.
func TestCanonicalOrderIndependence(t *testing.T) {
	a := New().Window(1000, 2000).Types("b", "a").Intervals(200).Durations(5, 50)
	b := New().Durations(5, 50).Intervals(200).Types("a", "b", "a", "").Window(1000, 2000)
	if a.Canonical() != b.Canonical() {
		t.Fatalf("equivalent queries canonicalize differently:\n%q\n%q", a.Canonical(), b.Canonical())
	}
	if a.Canonical() == "" {
		t.Fatal("non-empty query canonicalizes to empty string")
	}
	if New().Canonical() != "" {
		t.Fatalf("zero query canonical = %q, want empty", New().Canonical())
	}
}

// TestCanonicalDistinguishes: queries that differ semantically must
// not collide, including raw-fragment aliasing via reserved
// characters in user-controlled strings.
func TestCanonicalDistinguishes(t *testing.T) {
	cases := []struct{ a, b *Query }{
		{New().Window(0, 10), New().Window(0, 11)},
		{New().Types("a"), New().Types("b")},
		{New().Types("a", "b"), New().Types("a,b")},
		{New().Types("a").Durations(2, 0), New().Types("a&mindur=2")},
		{New().Metric("idle"), New().Metric("avgdur")},
		{New().Counter("cycles"), New().Counter("cycles").Rate(false)},
		{New().Mode(render.ModeHeat), New().Mode(render.ModeType)},
		{New().Limit(5), New().Limit(6)},
		{New().Durations(3, 0), New().Durations(4, 0)},
		{New().ReadNodes(0), New().WriteNodes(0)},
		{New().ReadNodes(0), New().ReadNodes(1)},
		{New().ReadNodes(0, 1), New().ReadNodes(0)},
		{New().ReadNodes(1).WriteNodes(0), New().ReadNodes(0).WriteNodes(1)},
	}
	for i, c := range cases {
		if c.a.Canonical() == c.b.Canonical() {
			t.Errorf("case %d: distinct queries collide on %q", i, c.a.Canonical())
		}
	}
}

// TestCanonicalNodeLists: the node lists canonicalize like the type
// list — sorted, deduplicated, one key whatever the spelling — and
// setting them on a Clone or a projection leaves the original alone.
func TestCanonicalNodeLists(t *testing.T) {
	q := New().ReadNodes(3, 1, 3).WriteNodes(2, -1)
	const want = "rnodes=1,3&wnodes=2"
	if got := q.Canonical(); got != want {
		t.Fatalf("canonical %q, want %q", got, want)
	}
	if got := New().WriteNodes(2).ReadNodes(1, 3, 1).Canonical(); got != want {
		t.Errorf("builder order changes the canonical form: %q, want %q", got, want)
	}
	if got := New().ReadNodes(-1).WriteNodes().Canonical(); got != "" {
		t.Errorf("lists naming no node canonicalize to %q, want empty", got)
	}
	c, proj := q.Clone(), q.StatsOnly()
	c.ReadNodes(7).WriteNodes(7)
	proj.ReadNodes().WriteNodes(5)
	if got := q.Canonical(); got != want {
		t.Errorf("deriving from a clone and a projection changed the original: %q", got)
	}
	if got := c.Canonical(); got != "rnodes=7&wnodes=7" {
		t.Errorf("clone canonical %q", got)
	}
	for _, p := range []*Query{q.StatsOnly(), q.ScanOnly(), q.Clone().Metric("avgdur").SeriesOnly(1, 1)} {
		if !strings.Contains(p.Canonical(), want) {
			t.Errorf("projection %q lost the node lists", p.Canonical())
		}
	}
}

// TestFromValuesPermutations: URL parameter order, duplication and
// redundant spellings all parse to one canonical query.
func TestFromValuesPermutations(t *testing.T) {
	canon := func(raw string) string {
		v, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		q, err := FromValues(v)
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		return q.Canonical()
	}
	for want, raws := range map[string][]string{
		canon("t0=0&t1=500000&types=a,b&mindur=7"): {
			"t1=500000&mindur=7&types=a,b&t0=0",
			"types=b,a&t0=0&t1=500000&mindur=7",
			"t0=0&t0=0&t1=500000&types=a,b,a&mindur=007",
			"mindur=7&maxdur=0&t0=0&t1=500000&types=a,b",
		},
		canon("rnodes=0,1&wnodes=2"): {
			"wnodes=2&rnodes=1,0",
			"rnodes=0,1,1&wnodes=02,2",
			"rnodes=1,0&rnodes=3&wnodes=2",
		},
	} {
		for _, raw := range raws {
			if got := canon(raw); got != want {
				t.Errorf("%s: canonical %q, want %q", raw, got, want)
			}
		}
	}
}

// TestFromValuesErrors: malformed parameters are rejected with a
// BadParamError naming the parameter, not silently ignored.
func TestFromValuesErrors(t *testing.T) {
	cases := []struct{ raw, param string }{
		{"t0=abc", "t0"},
		{"t1=1e9", "t1"},
		{"t0=10&t1=5", "t1"},
		{"mindur=1|2", "mindur"},
		{"mindur=-1", "mindur"},
		{"maxdur=-5", "maxdur"},
		{"mode=bogus", "mode"},
		{"mindur=10&maxdur=5", "maxdur"},
		{"rnodes=-1", "rnodes"},
		{"rnodes=0,x", "rnodes"},
		{"wnodes=1.5", "wnodes"},
		{"wnodes=0,,1", "wnodes"},
		{"wnodes=99999999999999999999", "wnodes"},
	}
	for _, c := range cases {
		v, err := url.ParseQuery(c.raw)
		if err != nil {
			t.Fatal(err)
		}
		_, err = FromValues(v)
		bp, ok := err.(*BadParamError)
		if !ok {
			t.Errorf("%s: error %v, want *BadParamError", c.raw, err)
			continue
		}
		if bp.Param != c.param {
			t.Errorf("%s: error names param %q, want %q", c.raw, bp.Param, c.param)
		}
	}
	// t0=0&t1=0 — the render-config convention for "everything", and
	// what pre-data live viewer links carry — parses as an unset
	// window, sharing the unwindowed request's canonical form.
	v, _ := url.ParseQuery("t0=0&t1=0")
	q, err := FromValues(v)
	if err != nil {
		t.Fatalf("t0=0&t1=0 rejected at parse time: %v", err)
	}
	if q.HasWindow() {
		t.Error("t0=0&t1=0 did not parse as an unset window")
	}
	// Other equal-bounds windows parse too; the serving layer's
	// resolution step judges them against the trace span.
	// So do a bounded duration range of one value, a minimum with no
	// maximum, and node ids beyond any topology, which match nothing as
	// an unknown type name does.
	for _, raw := range []string{"t0=7&t1=7", "mindur=5&maxdur=5", "mindur=10&maxdur=0", "rnodes=4096&wnodes=2147483648"} {
		v, _ = url.ParseQuery(raw)
		if _, err := FromValues(v); err != nil {
			t.Errorf("%s rejected at parse time: %v", raw, err)
		}
	}
}

// TestExecutorsMatchDirectCalls: the query executors compute exactly
// what the direct package calls compute. (What /render, /stats,
// /matrix and /plot serve through them is held to the oracle by
// internal/ui's TestServedEqualsOracle.)
func TestExecutorsMatchDirectCalls(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	q := New().Types("seidel_block").Intervals(64)

	if _, err := SeriesOf(tr, New().Metric("bogus")); err == nil {
		t.Error("SeriesOf accepted unknown metric")
	}

	h := HistogramOf(tr, q)
	hw := stats.NewHistogram(filter.Durations(tr, filter.ByTypeNames(tr, "seidel_block")), 20, 0, 0)
	if !reflect.DeepEqual(h, hw) {
		t.Error("HistogramOf differs from stats.NewHistogram over filter.Durations")
	}

	t0, t1 := tr.Span.Start, tr.Span.End
	m := CommMatrixOf(tr, New().Window(t0, t1))
	mw := stats.CommMatrixOf(tr, stats.ReadsAndWrites, t0, t1)
	if !reflect.DeepEqual(m, mw) {
		t.Error("CommMatrixOf differs from stats.CommMatrixOf")
	}
	// An explicitly set zero CommKinds passes through verbatim (counts
	// nothing) — only a never-set selection defaults to reads+writes.
	mz := CommMatrixOf(tr, New().Window(t0, t1).Comm(0))
	if !reflect.DeepEqual(mz, stats.CommMatrixOf(tr, 0, t0, t1)) {
		t.Error("Comm(0) did not pass through to stats.CommMatrixOf")
	}
	if mz.Total() != 0 {
		t.Errorf("Comm(0) counted %d bytes, want 0", mz.Total())
	}
	// An explicit empty window selects nothing: the URL layer's
	// t0=0&t1=0-means-unset convention does not reach the executors.
	if m0 := CommMatrixOf(tr, New().Window(0, 0)); m0.Total() != 0 {
		t.Errorf("Window(0, 0) counted %d bytes, want 0", m0.Total())
	}
	if m.Total() == 0 {
		t.Error("full-span matrix counted nothing; the zero checks above are vacuous")
	}

	st := StatsOf(tr, New())
	if st.Tasks != len(filter.Tasks(tr, (&filter.TaskFilter{}).WithWindow(t0, t1))) {
		t.Errorf("StatsOf tasks = %d", st.Tasks)
	}
	if st.Start != t0 || st.End != t1 {
		t.Errorf("StatsOf window = [%d,%d), want [%d,%d)", st.Start, st.End, t0, t1)
	}

	// The renderer's nil-vs-empty CPUs distinction survives the query
	// round trip: nil means all CPUs, non-nil empty means none (an
	// error).
	if _, _, err := TimelineOf(tr, New().Size(300, 120).CPUs([]int32{}...)); err == nil {
		t.Error("explicitly empty CPU selection did not error")
	}
	if _, _, err := TimelineOf(tr, New().Size(300, 120).CPUs([]int32(nil)...).Clone()); err != nil {
		t.Errorf("nil CPU selection errored: %v", err)
	}

	// A request still carrying the removed noindex switch parses as the
	// same query without it: one cache entry, one rendering.
	qv, err := FromValues(url.Values{"mode": {"state"}, "noindex": {"1"}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := FromValues(url.Values{"mode": {"state"}})
	if err != nil {
		t.Fatal(err)
	}
	if qv.Canonical() != plain.Canonical() {
		t.Errorf("legacy noindex=1 changes the canonical form: %q vs %q", qv.Canonical(), plain.Canonical())
	}
}

// TestStatsLiveEqualsBatch: the communication matrix of each access
// kind answers a snapshot fed through the live path in 16 publishes
// exactly as it answers a batch load of the same bytes, over the full
// span and a sub-window. (What /stats and /matrix serve, reads and
// writes together, is held to the oracle on both by internal/ui's
// TestServedEqualsOracle.)
func TestStatsLiveEqualsBatch(t *testing.T) {
	snap := atmtest.SeidelLiveTrace(t, 6, 4, openstream.SchedRandom, 16)
	batch := atmtest.SeidelTrace(t, 6, 4, openstream.SchedRandom)
	mid := snap.Span.Start + snap.Span.Duration()/2
	for _, q := range []*Query{New(), New().Window(snap.Span.Start, mid)} {
		for _, kinds := range []stats.CommKinds{stats.Reads, stats.Writes} {
			got, want := CommMatrixOf(snap, q.Clone().Comm(kinds)), CommMatrixOf(batch, q.Clone().Comm(kinds))
			if !reflect.DeepEqual(got, want) || got.Total() == 0 {
				t.Errorf("%s kinds %d: matrix of the live snapshot = %+v, batch load %+v", q.Canonical(), kinds, got, want)
			}
		}
	}
}

// TestScanOnlyProjection: the projection keeps exactly the fields an
// anomaly scan depends on — view-only and selection parameters must
// not fragment the cache entries keyed on it.
func TestScanOnlyProjection(t *testing.T) {
	base := New().Window(0, 1000).Types("a").Durations(2, 9).AnomalyWindows(64).MinScore(0.5)
	want := base.ScanOnly().Canonical()
	noisy := base.Clone().
		Mode(render.ModeHeat).Counter("cycles").Rate(false).
		Size(300, 100).Metric("idle").Intervals(50).Bins(7).
		Limit(5).AnomalyKind("numa-remote")
	if got := noisy.ScanOnly().Canonical(); got != want {
		t.Errorf("view/selection parameters leaked into the scan key:\n%q\n%q", got, want)
	}
	if base.ScanOnly().Canonical() == New().ScanOnly().Canonical() {
		t.Error("scan-relevant fields were dropped from the projection")
	}
}

// TestWindowAndFilterResolution: unset bounds default to the span, and
// every filter builder lands in the one TaskFilter FilterOf builds.
func TestWindowAndFilterResolution(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	if t0, t1 := WindowOf(tr, New()); t0 != tr.Span.Start || t1 != tr.Span.End {
		t.Errorf("default window = [%d,%d), want span", t0, t1)
	}
	if t0, t1 := WindowOf(tr, New().From(42)); t0 != 42 || t1 != tr.Span.End {
		t.Errorf("From window = [%d,%d)", t0, t1)
	}
	// Programmatic windows pass through verbatim — the flat API's
	// historical semantics (an explicit [0,0) selects nothing); only
	// the URL layer maps t0=0&t1=0 to "unset".
	if t0, t1 := WindowOf(tr, New().Window(0, 0)); t0 != 0 || t1 != 0 {
		t.Errorf("Window(0,0) = [%d,%d), want [0,0) verbatim", t0, t1)
	}
	if f := FilterOf(tr, New()); f != nil {
		t.Error("empty query built a non-nil filter")
	}
	// A duration range bounded on neither side filters nothing either.
	if f := FilterOf(tr, New().Durations(-3, 0)); f != nil {
		t.Errorf("Durations(-3, 0) built %+v, want nil", f)
	}
	got := FilterOf(tr, New().Types("seidel_block").Durations(3, 0).ReadNodes(1, 0).WriteNodes(2))
	want := &filter.TaskFilter{
		Types:       filter.ByTypeNames(tr, "seidel_block").Types,
		MinDuration: 3,
		ReadNodes:   []int32{0, 1},
		WriteNodes:  []int32{2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FilterOf = %+v, want %+v", got, want)
	}
	// Source adapters: a static source snapshots at epoch 0 forever
	// and exposes its trace through StaticSource.
	src := NewStatic(tr)
	snap, epoch := src.Snapshot()
	if snap != tr || epoch != 0 {
		t.Errorf("static source snapshot = (%p, %d), want (%p, 0)", snap, epoch, tr)
	}
	if st, ok := src.(StaticSource); !ok || st.StaticTrace() != tr {
		t.Error("static source does not expose its trace via StaticSource")
	}
	if _, ok := src.(LiveSource); ok {
		t.Error("a static source claims to be live")
	}
	var _ LiveSource = core.NewLive()
}

// TestLevelCoarsens: level=N answers from 2^N-times-fewer cells —
// narrower timeline config, fewer series intervals — while level 0 is
// byte-identical to not setting a level at all; the canonical form
// keeps coarse and exact responses on separate cache entries.
func TestLevelCoarsens(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)

	exact := New().Size(1100, 420)
	if got := exact.Clone().Level(0).Canonical(); got != exact.Canonical() {
		t.Fatalf("level 0 changes the canonical form: %q vs %q", got, exact.Canonical())
	}
	coarse := exact.Clone().Level(3)
	if coarse.Canonical() == exact.Canonical() {
		t.Fatalf("coarse and exact queries collide on %q", exact.Canonical())
	}
	if w := TimelineConfigOf(tr, coarse).Width; w != 1100>>3 {
		t.Fatalf("level-3 timeline width = %d, want %d", w, 1100>>3)
	}
	if w := TimelineConfigOf(tr, exact).Width; w != 1100 {
		t.Fatalf("exact timeline width = %d, want 1100", w)
	}

	s, err := SeriesOf(tr, New().Intervals(64).Level(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Values) != 64>>2 {
		t.Fatalf("level-2 series has %d intervals, want %d", len(s.Values), 64>>2)
	}
	// Extreme levels floor at one cell instead of vanishing.
	s, err = SeriesOf(tr, New().Intervals(64).Level(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Values) != 1 {
		t.Fatalf("over-coarse series has %d intervals, want 1", len(s.Values))
	}

	// SeriesOnly — the plot cache projection — must carry the level.
	if a, b := exact.SeriesOnly(800, 220).Canonical(), coarse.SeriesOnly(800, 220).Canonical(); a == b {
		t.Fatalf("SeriesOnly drops the level: both canonicalize to %q", a)
	}
}

// TestWideSpanRefused: a trace with times near both ends of int64 spans
// more than 2^63-1 cycles. Its series and a scan of its whole span are
// refused with an error — the 400 of /plot and /anomalies — instead of
// panicking on the span's width; a scan of a window inside it runs.
func TestWideSpanRefused(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, s := range []trace.StateEvent{
		{CPU: 0, State: trace.StateIdle, Start: math.MinInt64, End: math.MinInt64 + 10},
		{CPU: 1, State: trace.StateTaskExec, Start: math.MaxInt64 - 10, End: math.MaxInt64},
	} {
		if err := w.WriteState(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"idle", "avgdur"} {
		if _, err := SeriesOf(tr, New().Metric(kind)); err == nil || !strings.Contains(err.Error(), "2^63-1") {
			t.Errorf("SeriesOf(%s) over a span wider than int64: error %v", kind, err)
		}
	}
	if _, err := AnomaliesOf(tr, New()); err == nil || !strings.Contains(err.Error(), "2^63-1") {
		t.Errorf("AnomaliesOf over a span wider than int64: error %v", err)
	}
	if _, err := AnomaliesOf(tr, New().Window(math.MaxInt64-10, math.MaxInt64)); err != nil {
		t.Errorf("AnomaliesOf over a window inside the span: %v", err)
	}
}

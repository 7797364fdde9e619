package atmbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/tmath"
	"github.com/openstream/aftermath/internal/trace"
)

// Viewer defaults the direct executors mirror, so a direct render is
// byte-identical to the server's (the pan_zoom checker proves it on
// every 50th tile).
const (
	defaultShades = 10
	plotIntervals = 200
	plotW, plotH  = 800, 220
	matrixCell    = 14
	overlayName   = trace.CounterBranchMisses
	coarseLevel   = 3
)

// tileReq is one timeline tile as the page requests it. A zero window
// is the full span.
type tileReq struct {
	T0, T1  int64
	Mode    render.Mode
	Counter string
	W, H    int
	Level   int
}

// windowed reports whether the tile names a window of its own.
func (t tileReq) windowed() bool { return t.T0 != 0 || t.T1 != 0 }

// params returns the request's query parameters in page order.
func (t tileReq) params() []string {
	p := make([]string, 0, 8)
	if t.windowed() {
		p = append(p, "t0="+strconv.FormatInt(t.T0, 10), "t1="+strconv.FormatInt(t.T1, 10))
	}
	p = append(p, "mode="+t.Mode.String(), "w="+strconv.Itoa(t.W), "h="+strconv.Itoa(t.H))
	if t.Counter != "" {
		p = append(p, "counter="+url.QueryEscape(t.Counter))
	}
	if t.Level != 0 {
		p = append(p, "level="+strconv.Itoa(t.Level))
	}
	return p
}

// raw returns the tile's query string in page order.
func (t tileReq) raw() string { return strings.Join(t.params(), "&") }

// path returns the tile's URL under the hub mount of trace "x".
func (t tileReq) path() string { return "/t/x/render?" + t.raw() }

// windowQuery returns "?t0=..&t1=.." for the window-only endpoints,
// empty for the full span.
func (t tileReq) windowQuery() string {
	if !t.windowed() {
		return ""
	}
	return "?t0=" + strconv.FormatInt(t.T0, 10) + "&t1=" + strconv.FormatInt(t.T1, 10)
}

// resolve fills in the query fields the /render handler derives after
// parsing: the window resolved against the snapshot and the tile
// geometry with the viewer's defaults.
func (t tileReq) resolve(tr *core.Trace, q *query.Query) *query.Query {
	t0, t1 := query.WindowOf(tr, q)
	q.Window(t0, t1).Size(t.W, t.H).Heat(0, 0).Shades(defaultShades).Level(t.Level).Labels(true)
	if t.Counter == "" {
		q.Rate(true)
	}
	return q
}

// parse runs the URL layer over the tile's raw query string — the work
// every request pays before its cache lookup — and returns the
// canonical key text.
func (t tileReq) parse(tr *core.Trace, raw string, rec *Recorder) (string, error) {
	id := rec.Begin("query.parse")
	v, err := url.ParseQuery(raw)
	var q *query.Query
	if err == nil {
		q, err = query.FromValues(v)
	}
	rec.End(id)
	if err != nil {
		return "", err
	}
	id = rec.Begin("query.canonical")
	key := t.resolve(tr, q).Canonical()
	rec.End(id)
	return key, nil
}

// query builds the tile's query through the fluent API.
func (t tileReq) query(tr *core.Trace) *query.Query {
	q := t.windowOnly().Mode(t.Mode)
	if t.Counter != "" {
		q.Counter(t.Counter)
	}
	return t.resolve(tr, q)
}

// direct renders the tile without the server, each stage under its own
// span: rasterize (per mode), counter overlay, PNG encode.
func (t tileReq) direct(tr *core.Trace, rec *Recorder) ([]byte, error) {
	q := t.query(tr)
	tl := rec.Begin("query.timeline")
	cfg := query.TimelineConfigOf(tr, q)
	id := rec.Begin("render.timeline_" + modeSpan(t.Mode))
	fb, _, err := render.Timeline(tr, cfg)
	rec.End(id)
	if err == nil && t.Counter != "" {
		if c, ok := tr.CounterByName(t.Counter); ok {
			id = rec.Begin("render.overlay")
			render.OverlayCounter(fb, tr, cfg, render.OverlayConfig{
				Counter: c, Rate: true, Color: render.CategoryColor(7),
			}, tr.CounterIndex())
			rec.End(id)
		}
	}
	rec.End(tl)
	if err != nil {
		return nil, err
	}
	return encodePNG(fb, rec)
}

// modeSpan folds the three NUMA modes into one span name.
func modeSpan(m render.Mode) string {
	switch m {
	case render.ModeState:
		return "state"
	case render.ModeHeat:
		return "heatmap"
	case render.ModeType:
		return "typemap"
	}
	return "numa"
}

func encodePNG(fb *render.Framebuffer, rec *Recorder) ([]byte, error) {
	id := rec.Begin("render.encode_png")
	defer rec.End(id)
	var buf bytes.Buffer
	if err := fb.EncodePNG(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// windowOnly is the query of the window-keyed endpoints.
func (t tileReq) windowOnly() *query.Query {
	q := query.New()
	if t.windowed() {
		q.Window(t.T0, t.T1)
	}
	return q
}

// directStats computes the /stats body.
func (t tileReq) directStats(tr *core.Trace, rec *Recorder) ([]byte, error) {
	id := rec.Begin("stats.stats")
	defer rec.End(id)
	return json.Marshal(query.StatsOf(tr, t.windowOnly()))
}

// directMatrix computes the /matrix body.
func (t tileReq) directMatrix(tr *core.Trace, rec *Recorder) ([]byte, error) {
	id := rec.Begin("stats.matrix")
	m := query.CommMatrixOf(tr, t.windowOnly())
	rec.End(id)
	id = rec.Begin("render.matrix")
	fb := render.RenderMatrix(m, matrixCell)
	rec.End(id)
	return encodePNG(fb, rec)
}

// directAnomalies runs the /anomalies scan and returns the findings.
func (t tileReq) directAnomalies(tr *core.Trace, rec *Recorder) (int, error) {
	id := rec.Begin("anomaly.scan")
	defer rec.End(id)
	q := t.windowOnly().AnomalyWindows(anomaly.DefaultWindows)
	found, err := query.AnomaliesOf(tr, q)
	return len(found), err
}

// directPlot computes the /plot?kind=idle body at a refinement level.
func directPlot(tr *core.Trace, level int, rec *Recorder) ([]byte, error) {
	id := rec.Begin("metrics.series")
	series, err := query.SeriesOf(tr, query.New().Metric("idle").Intervals(plotIntervals).Level(level))
	rec.End(id)
	if err != nil {
		return nil, err
	}
	id = rec.Begin("render.plot")
	fb, err := render.PlotSeries(render.PlotConfig{
		Width: plotW, Height: plotH, Title: strings.ToUpper(series.Name),
	}, series)
	rec.End(id)
	if err != nil {
		return nil, err
	}
	return encodePNG(fb, rec)
}

func plotPath(level int) string {
	if level == 0 {
		return "/t/x/plot?kind=idle"
	}
	return fmt.Sprintf("/t/x/plot?kind=idle&level=%d", level)
}

// isPNG reports whether body starts with the PNG signature.
func isPNG(body []byte) bool {
	return bytes.HasPrefix(body, []byte("\x89PNG\r\n\x1a\n"))
}

// column returns the time bounds of pixel column x of n over [t0, t1).
func column(t0, t1 int64, x, n int) (lo, hi int64) {
	return t0 + tmath.MulDiv(t1-t0, int64(x), int64(n)), t0 + tmath.MulDiv(t1-t0, int64(x+1), int64(n))
}

// probeDominant resolves every pixel column of every CPU row through
// the dominance index — the state rasterizer's inner loop, without the
// drawing. It returns the lookups made and how many the index served.
func (t tileReq) probeDominant(tr *core.Trace, rec *Recorder) (lookups, indexed int) {
	t0, t1 := query.WindowOf(tr, t.windowOnly())
	id := rec.BeginProbe("mragg.dominant")
	defer rec.End(id)
	dom := tr.DomIndex()
	for cpu := 0; cpu < tr.NumCPUs(); cpu++ {
		d := dom.CPU(tr, int32(cpu))
		for x := 0; x < t.W; x++ {
			lo, hi := column(t0, t1, x, t.W)
			if _, _, ix := d.DominantState(lo, hi); ix {
				indexed++
			}
			lookups++
		}
	}
	return lookups, indexed
}

// probeMinMax runs the counter overlay's per-column min/max queries
// against the counter's trees and returns the queries made.
func (t tileReq) probeMinMax(tr *core.Trace, rec *Recorder) (queries int) {
	c, ok := tr.CounterByName(t.Counter)
	if !ok {
		return 0
	}
	t0, t1 := query.WindowOf(tr, t.windowOnly())
	ci := tr.CounterIndex()
	id := rec.BeginProbe("mmtree.minmax")
	defer rec.End(id)
	for cpu := 0; cpu < tr.NumCPUs(); cpu++ {
		tree := ci.Tree(c, int32(cpu))
		for x := 0; x < t.W; x++ {
			lo, hi := column(t0, t1, x, t.W)
			tree.MinMax(lo, hi)
			queries++
		}
	}
	return queries
}

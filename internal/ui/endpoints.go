package ui

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/taskgraph"
)

// windowPolicy says what an entry does with the request window (see
// resolveWindow).
type windowPolicy int

const (
	windowIgnored  windowPolicy = iota // parsed, but kept out of the key
	windowResolved                     // resolved against the snapshot's span
	windowClamped                      // and clamped to it: the anomaly scan's contract
)

// mount says where an entry is answered: by every Server (standalone
// or under a hub's /t/<name>/), at the hub's root, or both.
type mount uint8

const (
	onServer mount = 1 << iota
	onHub
)

// request is what serve hands an entry: who answers (srv, or hub at
// its root), the response being written, the pinned snapshot (a
// Server's), the shared parameters with the window resolved, and the
// reader for the entry's own.
type request struct {
	srv   *Server
	hub   *Hub
	w     http.ResponseWriter
	r     *http.Request
	tr    *core.Trace
	epoch uint64
	q     *query.Query
	p     *query.Params
}

// endpoint is one path answered by serve. A cached entry's plan reads
// the verb's own parameters (failures stick in rq.p) and returns the
// projection of the query the response depends on — the cache key, so
// parameters the verb ignores never fragment the LRU — any key text the
// query cannot carry, and the closure that builds the body on a miss,
// whose error is the request's unless it is a serverError. An uncached
// entry's write writes the body, or returns the error before any.
type endpoint struct {
	path        string // "/" + the verb a cache key names
	at          mount
	contentType string
	window      windowPolicy
	plan        func(rq request) (key *query.Query, extra string, build func() ([]byte, error))
	write       func(w http.ResponseWriter, rq request) error
}

// endpoints is every path of the viewer and the hub.
var endpoints = []endpoint{
	{"/", onServer, "text/html; charset=utf-8", windowResolved, nil, writeIndex},
	{"/render", onServer, "image/png", windowResolved, planRender, nil},
	{"/matrix", onServer, "image/png", windowResolved, planMatrix, nil},
	{"/plot", onServer, "image/png", windowIgnored, planPlot, nil},
	{"/stats", onServer, "application/json", windowResolved, planStats, nil},
	{"/anomalies", onServer, "application/json", windowClamped, planAnomalies, nil},
	{"/graph.dot", onServer, "text/vnd.graphviz", windowIgnored, planGraphDOT, nil},
	{"/task", onServer, "application/json", windowIgnored, nil, writeTask},
	{"/live", onServer, "application/json", windowIgnored, nil, writeLive},
	{"/events", onServer | onHub, "text/event-stream", windowIgnored, nil, writeEvents},
	{"/", onHub, "text/html; charset=utf-8", windowIgnored, nil, writeHubIndex},
	{"/traces", onHub, "application/json", windowIgnored, nil, writeTraces},
}

// serve is the front door of every path: rq says who answers, sub is
// the path below its mount. Only serve looks the cleaned path up,
// refuses any method but GET and HEAD, pins the snapshot, parses the
// shared parameters and writes an entry's failure as the structured
// error. A cached entry's key — scope (hub trace identity), epoch,
// verb, canonical query, the plan's extra text — holds everything the
// response depends on.
func serve(w http.ResponseWriter, r *http.Request, sub string, rq request) {
	at := onServer
	if rq.srv == nil {
		at = onHub
	}
	var ep *endpoint
	clean := path.Clean(sub)
	for i := range endpoints {
		if e := &endpoints[i]; e.at&at != 0 && e.path == clean {
			ep = e
		}
	}
	if ep == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such endpoint %q", clean))
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if rq.srv != nil {
		rq.tr, rq.epoch = rq.srv.src.Snapshot()
	}
	v := r.URL.Query()
	q, err := query.FromValues(v)
	if err == nil && ep.window != windowIgnored {
		err = resolveWindow(rq.tr, q, ep.window == windowClamped)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rq.w, rq.r, rq.q, rq.p = w, r, q, query.NewParams(v)
	if ep.plan == nil {
		w.Header().Set("Content-Type", ep.contentType)
		if err := ep.write(w, rq); err != nil {
			writeError(w, statusOf(err), err)
		}
		return
	}
	keyQ, extra, build := ep.plan(rq)
	if err := rq.p.Err(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := rq.srv.scope + "e" + strconv.FormatUint(rq.epoch, 10) + "|" + ep.path[1:] + "|" + keyQ.Canonical() + extra
	rq.srv.serveCached(w, r, key, ep.contentType, build)
}

// serverError marks a failure that is the server's, not the request's:
// an encoder that could not write, a build that did not complete.
type serverError struct{ error }

func (e serverError) Unwrap() error { return e.error }

// notFoundError marks a request for a task or trace that does not exist.
type notFoundError struct{ error }

// exactBody copies what an encoder wrote into an exactly sized body:
// the cache charges len(body) against its bound but keeps the whole
// backing array alive, and a bytes.Buffer's, grown by doubling, can be
// twice what was written.
func exactBody(buf *bytes.Buffer) []byte {
	body := make([]byte, buf.Len())
	copy(body, buf.Bytes())
	return body
}

// encodePNG is the tail of every PNG producer. The body is exactly
// sized by the encoder itself (PNGBytes), as exactBody sizes others.
func encodePNG(fb *render.Framebuffer) ([]byte, error) {
	body, err := fb.PNGBytes()
	if err != nil {
		return nil, serverError{err}
	}
	return body, nil
}

// encodeJSON is the tail of every cached JSON producer: one value, one
// line.
func encodeJSON(v interface{}) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, serverError{err}
	}
	return append(body, '\n'), nil
}

func planRender(rq request) (*query.Query, string, func() ([]byte, error)) {
	tr, q, p, w := rq.tr, rq.q, rq.p, rq.w
	q.Size(p.Int("w", 1000, 100, 4000), p.Int("h", 400, 50, 2000)).
		Heat(p.Int64("heatmin", 0), p.Int64("heatmax", 0)).
		Shades(p.Int("shades", 10, 2, 64)).
		Level(p.Int("level", 0, 0, 12)).
		Labels(p.Flag("labels", true))
	if p.Str("counter", "") == "" {
		// rate only modifies a counter overlay; without one it must
		// not fragment the cache key.
		q.Rate(true)
	}
	anns, annsVer := rq.srv.annotationsState()
	marks := p.Flag("marks", true)
	if anns != nil {
		// marks only modifies rendering when an annotation set is
		// attached; without one it must not fragment the cache key.
		q.Marks(marks)
	}
	return q, "|a" + strconv.Itoa(annsVer), func() ([]byte, error) {
		t0 := time.Now()
		fb, _, err := query.TimelineOf(tr, q)
		if err != nil {
			return nil, err
		}
		if marks && anns != nil {
			render.OverlayAnnotations(fb, tr, query.TimelineConfigOf(tr, q), anns)
		}
		t1 := time.Now()
		body, err := encodePNG(fb)
		if err == nil {
			setServerTiming(w.Header(), stage{"raster", t1.Sub(t0)}, stage{"encode", time.Since(t1)})
		}
		return body, err
	}
}

// stage is one named step of a response built on a miss and how long
// it took.
type stage struct {
	name string
	dur  time.Duration
}

// setServerTiming sets the Server-Timing header of a response built on
// a miss: each stage's duration, in milliseconds, in build order. A HIT
// builds nothing and carries none. The value and the one-string list
// the header keeps it in are one allocation: the value is the list's
// neighbour, written once before the header holds it.
func setServerTiming(h http.Header, stages ...stage) {
	v := new(struct {
		list [1]string
		b    [96]byte
	})
	s := v.b[:0]
	for i, st := range stages {
		if i > 0 {
			s = append(s, ", "...)
		}
		s = append(append(s, st.name...), ";dur="...)
		s = strconv.AppendFloat(s, float64(st.dur.Microseconds())/1e3, 'f', 3, 64)
	}
	v.list[0] = unsafe.String(unsafe.SliceData(s), len(s))
	h["Server-Timing"] = v.list[:]
}

func planMatrix(rq request) (*query.Query, string, func() ([]byte, error)) {
	cell := rq.p.Int("cell", 14, 4, 64)
	// The matrix-only projection (window + cell): filter, mode and
	// counter parameters do not change the matrix.
	q := rq.q.MatrixOnly(cell)
	return q, "", func() ([]byte, error) {
		return encodePNG(render.RenderMatrix(query.CommMatrixOf(rq.tr, q), cell))
	}
}

func planPlot(rq request) (*query.Query, string, func() ([]byte, error)) {
	p := rq.p
	rq.q.Intervals(p.Int("n", 200, 10, 2000))
	width, height := p.Int("w", 800, 100, 4000), p.Int("h", 220, 50, 2000)
	rq.q.Level(p.Int("level", 0, 0, 12)).Metric(p.Str("kind", "idle"))
	// The series-only projection: the window (and, for
	// filter-insensitive metrics, the filter) does not change the
	// plotted series.
	q := rq.q.SeriesOnly(width, height)
	return q, "", func() ([]byte, error) {
		t0 := time.Now()
		series, err := query.SeriesOf(rq.tr, q)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		fb, err := render.PlotSeries(render.PlotConfig{
			Width: width, Height: height,
			Title: strings.ToUpper(series.Name),
		}, series)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		body, err := encodePNG(fb)
		if err == nil {
			setServerTiming(rq.w.Header(), stage{"series", t1.Sub(t0)}, stage{"plot", t2.Sub(t1)}, stage{"encode", time.Since(t2)})
		}
		return body, err
	}
}

func planStats(rq request) (*query.Query, string, func() ([]byte, error)) {
	// The stats-only projection (window + filter): mode and counter
	// parameters do not change the summary.
	q := rq.q.StatsOnly()
	return q, "", func() ([]byte, error) {
		t0 := time.Now()
		body, err := encodeJSON(query.StatsOf(rq.tr, q))
		if err == nil {
			setServerTiming(rq.w.Header(), stage{"stats", time.Since(t0)})
		}
		return body, err
	}
}

// anomalyItem is one finding in the /anomalies JSON body.
type anomalyItem struct {
	Kind        string  `json:"kind"`
	Score       float64 `json:"score"`
	Start       int64   `json:"start"`
	End         int64   `json:"end"`
	CPU         int32   `json:"cpu"`
	Task        uint64  `json:"task,omitempty"`
	Counter     string  `json:"counter,omitempty"`
	Explanation string  `json:"explanation"`
}

// anomaliesResponse is the JSON body of /anomalies.
type anomaliesResponse struct {
	Start     int64         `json:"start"`
	End       int64         `json:"end"`
	Count     int           `json:"count"`
	Anomalies []anomalyItem `json:"anomalies"`
}

// planAnomalies runs the anomaly detectors over the requested window
// and returns the ranked findings as JSON. Parameters: t0/t1 (scan
// window, clamped to the trace span as the scan itself clamps, so the
// echoed window and the cache key are exactly the interval scanned),
// types/mindur/maxdur/rnodes/wnodes (task filter), kind (restrict to one anomaly
// kind), n (max results, default 50), windows (analysis window count),
// minscore (severity cutoff). The findings come from query.AnomaliesOf,
// as in the library and the CLI; the response cache, keyed on the
// epoch and this projection, is the only memo of a scan.
func planAnomalies(rq request) (*query.Query, string, func() ([]byte, error)) {
	tr, p := rq.tr, rq.p
	n := p.Int("n", 50, 1, 1000)
	windows := p.Int("windows", anomaly.DefaultWindows, 8, 4096)
	minScore := p.Float("minscore", 0)
	if minScore < 0 {
		p.Reject(&query.BadParamError{Param: "minscore", Reason: "must be non-negative"})
	}
	// Project to the scan-relevant fields plus the result selection:
	// view parameters (mode, counter, ...) change neither the scan
	// nor the response, so they must not fragment the cache.
	q := rq.q.AnomalyWindows(windows).MinScore(minScore).ScanOnly().
		Limit(n).AnomalyKind(p.Str("kind", ""))
	// Validate the kind selection up front — through its one
	// definition site — so an invalid kind cannot trigger a scan.
	if _, err := query.SelectAnomalies(nil, q); err != nil {
		p.Reject(err)
	}
	return q, "", func() ([]byte, error) {
		selected, err := query.AnomaliesOf(tr, q)
		if err != nil {
			return nil, err
		}
		t0, t1 := query.WindowOf(tr, q)
		resp := anomaliesResponse{Start: t0, End: t1, Anomalies: []anomalyItem{}}
		for _, a := range selected {
			resp.Anomalies = append(resp.Anomalies, anomalyItem{
				Kind:        a.Kind.String(),
				Score:       a.Score,
				Start:       a.Window.Start,
				End:         a.Window.End,
				CPU:         a.CPU,
				Task:        uint64(a.TaskID),
				Counter:     a.Counter,
				Explanation: a.Explanation,
			})
		}
		resp.Count = len(resp.Anomalies)
		return encodeJSON(resp)
	}
}

func planGraphDOT(rq request) (*query.Query, string, func() ([]byte, error)) {
	// max <= 0 exports every task, so all such values are one entry.
	max := rq.p.Int("max", 500, 0, math.MaxInt)
	return query.New().Limit(max), "", func() ([]byte, error) {
		var buf bytes.Buffer
		g := taskgraph.Reconstruct(rq.tr)
		if err := g.WriteDOT(&buf, taskgraph.DOTOptions{MaxTasks: max, Label: rq.srv.Name}); err != nil {
			return nil, serverError{err}
		}
		return exactBody(&buf), nil
	}
}

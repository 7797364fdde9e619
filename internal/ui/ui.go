// Package ui serves Aftermath's interactive viewer over HTTP. It
// replaces the paper's GTK+ main window (Section II-A) with a browser
// front end offering the same interface groups: the timeline with its
// five modes (1), statistics for the selected interval (2), task
// filters (3), detailed information for a selected task (4) and
// derived metric overlays (5). Zooming, scrolling and filtering
// re-render server-side through the optimized rendering engine.
//
// Every path — a Server's cached verbs /render, /matrix, /plot,
// /stats, /anomalies and /graph.dot, its uncached index page, /task,
// /live and /events, and a Hub's own /, /traces and /events — is an
// entry of one table (endpoints.go) naming its content type, its
// window policy, and either a plan (the projection of the query its
// response depends on, plus the closure that builds the body) or a
// writer of its own body. One function, serve, is the front door: it
// looks the cleaned path up, answers any method but GET and HEAD with
// a 405, pins an immutable epoch-versioned snapshot, parses the shared
// parameters into one canonical Query (internal/query) and resolves
// the window. For a cached entry it keys the cache on (trace, epoch,
// verb, canonical query), so equivalent requests share one entry
// however they were spelled, and runs it with its singleflight
// (X-Cache: MISS or HIT). A failure's status comes from the error
// itself: the request's is a structured JSON 400 naming the parameter,
// an encoder's or an unfinished build's a 500, an unknown task, trace
// or path a 404. A Server serves one trace; a Hub (hub.go) serves many
// from one process behind one shared cache.
package ui

import (
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/openstream/aftermath/internal/annotations"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/tmath"
	"github.com/openstream/aftermath/internal/trace"
)

// defaultCacheBytes bounds the response cache: enough for hundreds of
// rendered tiles, small next to the traces the paper targets.
const defaultCacheBytes = 32 << 20

// Server serves one trace source — a fully loaded immutable trace or a
// live trace that is still being appended to. Every request queries an
// immutable snapshot, so rendered responses are cached (see
// responseCache) under keys versioned by the snapshot's epoch: a
// static trace is forever epoch 0 and caches exactly as before, while
// a live trace invalidates naturally on every published append
// (MISS → HIT → MISS-after-append). Safe for concurrent clients.
type Server struct {
	// Trace is the static trace served, nil when the server follows a
	// live source.
	Trace *core.Trace
	// Name is shown in the page title.
	Name string

	src   query.Source
	cache *responseCache
	// scope prefixes every cache key; a Hub gives each registered
	// trace a distinct scope so many traces share one LRU without
	// colliding.
	scope string
	// anns are annotations overlaid on rendered timelines (e.g. the
	// top anomaly-scan findings); annsVer keys the response cache so
	// tiles rendered against an older set are never served for a
	// newer one. annsMu guards both against concurrent SetAnnotations.
	annsMu  sync.RWMutex
	anns    *annotations.Set
	annsVer int

	// statusSnap/statusResp memoize the ingest-status totals (an
	// O(counters x CPUs) sweep) per immutable snapshot, so the hub's
	// landing page and /traces don't recompute them for every
	// registered trace on every hit. statusMu guards both.
	statusMu   sync.Mutex
	statusSnap *core.Trace
	statusResp liveResponse

	// heartbeat is the SSE keepalive interval; 0 means the default.
	// Set before serving (tests) — never concurrently with requests.
	heartbeat time.Duration
}

// Close releases the server's trace source, if it owns releasable
// resources: a live trace flushes its background spill compactions, a
// store-backed static trace unmaps its snapshot file. Sources without
// an io.Closer side (plain loaded traces) make Close a no-op. The
// server must not serve requests after Close.
func (s *Server) Close() error {
	if c, ok := s.src.(io.Closer); ok {
		return c.Close()
	}
	if s.Trace != nil {
		return s.Trace.Close()
	}
	return nil
}

// SetAnnotations attaches an annotation set overlaid on every rendered
// timeline (markers at the annotated instants). Safe to call while
// serving: the set is swapped atomically with its cache-key version,
// so previously cached tiles are invalidated and in-flight renders use
// a consistent (set, version) pair. The set itself must not be mutated
// after the call.
func (s *Server) SetAnnotations(set *annotations.Set) {
	s.annsMu.Lock()
	s.anns = set
	s.annsVer++
	s.annsMu.Unlock()
}

// annotationsState snapshots the current annotation set and version.
func (s *Server) annotationsState() (*annotations.Set, int) {
	s.annsMu.RLock()
	defer s.annsMu.RUnlock()
	return s.anns, s.annsVer
}

// NewServer creates a viewer for a trace source: a loaded trace
// (query.NewStatic) or a live one. Requests always see the source's
// most recently published snapshot, so on a live trace timelines,
// metrics, statistics and anomaly rankings update as it grows, and the
// /live endpoint reports the current epoch and ingest progress.
func NewServer(src query.Source, name string) *Server {
	return newServer(src, name, newResponseCache(defaultCacheBytes), "")
}

func newServer(src query.Source, name string, cache *responseCache, scope string) *Server {
	s := &Server{
		Name:  name,
		src:   src,
		cache: cache,
		scope: scope,
	}
	if st, ok := src.(query.StaticSource); ok {
		s.Trace = st.StaticTrace()
	}
	return s
}

// errorBody is the structured JSON error every endpoint returns for
// invalid requests: machine-readable status and, for parameter errors,
// the offending parameter name.
type errorBody struct {
	Error  string `json:"error"`
	Param  string `json:"param,omitempty"`
	Status int    `json:"status"`
}

// writeError reports a request failure as structured JSON — the one
// error shape shared by batch, live and hub endpoints.
func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Error: err.Error(), Status: status}
	var bp *query.BadParamError
	if errors.As(err, &bp) {
		body.Param = bp.Param
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// statusOf takes a failure's status from the error: a serverError is a
// 500, a notFoundError a 404, anything else a request can provoke (a
// bad parameter, an unknown metric, a size the renderer rejects) a 400.
func statusOf(err error) int {
	switch {
	case errors.As(err, new(serverError)):
		return http.StatusInternalServerError
	case errors.As(err, new(notFoundError)):
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// writeJSON writes v as the body of an uncached JSON entry.
func writeJSON(w http.ResponseWriter, v interface{}) error {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return serverError{err}
	}
	return nil
}

// serveCached serves the response for key from the cache, invoking
// build on a miss. Error responses are never cached.
//
// Concurrent misses on one key coalesce (singleflight): exactly one
// request, the leader, runs build, the rest wait and serve its result
// as a HIT. Without this, a push notification synchronizing N clients
// on an epoch advance triggers N identical expensive renders at once.
// A follower whose client has gone stops waiting; the leader builds on,
// so its result still lands in the cache.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key, contentType string, build func() ([]byte, error)) {
	ent, ok := s.cache.get(key)
	xCache := "HIT"
	if !ok {
		f, leader := s.cache.begin(key)
		if leader {
			xCache = s.cache.lead(key, contentType, f, build)
		} else {
			select {
			case <-f.done:
			case <-r.Context().Done():
				return
			}
		}
		if f.err != nil {
			writeError(w, statusOf(f.err), f.err)
			return
		}
		ent = f.ent
	}
	w.Header().Set("Content-Type", ent.contentType)
	w.Header().Set("X-Cache", xCache)
	w.Write(ent.body)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	serve(w, r, r.URL.Path, request{srv: s})
}

// resolveWindow resolves the query window against the snapshot into
// the query — so an explicit full-span request and an unwindowed one
// share one entry — rejecting windows that are empty after resolution,
// e.g. a one-sided t0 beyond the trace end. Queries with no explicit
// bounds always pass, and so does everything on an empty-span trace (a
// live source before data arrives), whose windows all degenerate. With
// clamp the window is first clamped to the trace span, so an
// overhanging window serves the overlapping part and a non-overlapping
// one is rejected.
func resolveWindow(tr *core.Trace, q *query.Query, clamp bool) error {
	t0, t1 := query.WindowOf(tr, q)
	if clamp {
		t0, t1 = max(t0, tr.Span.Start), min(t1, tr.Span.End)
	}
	if t1 <= t0 {
		if q.HasWindow() && tr.Span.End > tr.Span.Start {
			// Blame the window's end when the request set it, else
			// the start — the bound whose value emptied the window.
			param := "t0"
			if q.HasEnd() {
				param = "t1"
			}
			return &query.BadParamError{
				Param:  param,
				Reason: fmt.Sprintf("window [%d,%d) is empty once resolved against the trace span [%d,%d)", t0, t1, tr.Span.Start, tr.Span.End),
			}
		}
		// No explicit bounds (or nothing to serve at all): the full
		// span, however degenerate, is the honest answer.
		t0, t1 = tr.Span.Start, tr.Span.End
	}
	q.Window(t0, t1)
	return nil
}

// taskResponse is the JSON body of /task — the detailed text view of
// interface group 4: task and state type, duration, and the sources
// and destinations of the data read and written by the task.
type taskResponse struct {
	ID       uint64           `json:"id"`
	Type     string           `json:"type"`
	TypeAddr string           `json:"type_addr"`
	CPU      int32            `json:"cpu"`
	Node     int32            `json:"node"`
	Start    int64            `json:"exec_start"`
	End      int64            `json:"exec_end"`
	Duration int64            `json:"duration"`
	Reads    []accessResponse `json:"reads"`
	Writes   []accessResponse `json:"writes"`
}

type accessResponse struct {
	Addr string `json:"addr"`
	Size uint64 `json:"size"`
	Node int32  `json:"node"`
}

func writeTask(w http.ResponseWriter, rq request) error {
	tr, p := rq.tr, rq.p
	// Select by id, or by cpu+time (clicking the timeline).
	var task *core.TaskInfo
	if idStr := p.Str("id", ""); idStr != "" {
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			return &query.BadParamError{Param: "id", Reason: "not a task id"}
		}
		t, ok := tr.TaskByID(trace.TaskID(id))
		if !ok {
			return notFoundError{fmt.Errorf("no task with id %d", id)}
		}
		task = t
	} else {
		cpu := p.Int64("cpu", 0)
		if cpu < 0 || cpu > trace.MaxCPUID {
			// Reject before the int32 cast: an implausible id would
			// otherwise silently truncate into some other CPU's id.
			p.Reject(&query.BadParamError{
				Param:  "cpu",
				Reason: fmt.Sprintf("cpu %d out of range [0, %d]", cpu, trace.MaxCPUID),
			})
		}
		at := p.Int64("at", 0)
		if err := p.Err(); err != nil {
			return err
		}
		// Saturate the exclusive bound: at = MaxInt64 would overflow
		// at+1 into an inverted window and silently find nothing.
		for _, ev := range tr.StatesIn(tr.RowOf(int32(cpu)), at, tmath.SatAdd(at, 1)) {
			if ev.State == trace.StateTaskExec {
				if t, ok := tr.TaskByID(ev.Task); ok {
					task = t
				}
			}
		}
		if task == nil {
			return notFoundError{errors.New("no task at that position")}
		}
	}
	tt, _ := tr.TypeByID(task.Type)
	resp := taskResponse{
		ID:       uint64(task.ID),
		Type:     tr.TypeName(task.Type),
		TypeAddr: fmt.Sprintf("0x%x", tt.Addr),
		CPU:      task.ExecCPU,
		Node:     tr.NodeOfCPU(task.ExecCPU),
		Start:    task.ExecStart,
		End:      task.ExecEnd,
		Duration: task.Duration(),
	}
	for ev, home := range tr.TaskAccesses(task).Homes() {
		if ev.Task != task.ID {
			continue
		}
		a := accessResponse{
			Addr: fmt.Sprintf("0x%x", ev.Addr),
			Size: ev.Size,
			Node: home,
		}
		if ev.Kind == trace.CommRead {
			resp.Reads = append(resp.Reads, a)
		} else {
			resp.Writes = append(resp.Writes, a)
		}
	}
	return writeJSON(w, resp)
}

// liveResponse is the JSON body of /live: the ingest status of the
// served trace. Pollers compare epoch values to detect new data; a
// static trace reports live=false at epoch 0 forever.
type liveResponse struct {
	Live     bool   `json:"live"`
	Epoch    uint64 `json:"epoch"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	CPUs     int    `json:"cpus"`
	Tasks    int    `json:"tasks"`
	Types    int    `json:"types"`
	Counters int    `json:"counters"`
	Events   int64  `json:"events"`
	Samples  int64  `json:"samples"`
	// Error is the sticky ingest error, if the stream went bad: the
	// snapshots served remain valid, but no further data will arrive,
	// and pollers must not mistake the frozen epoch for a quiet run.
	Error string `json:"error,omitempty"`
	// Spill reports the live trace's epoch-spilling state when
	// retention is enabled and data has spilled; absent otherwise.
	Spill *spillStatus `json:"spill,omitempty"`
}

// spillStatus is the /live view of core.SpillStats: how much of the
// trace lives in on-disk segment files, how much was aged out under
// the retention budget, and whether background compaction failed.
type spillStatus struct {
	Segments     int    `json:"segments"`
	SpilledBytes int64  `json:"spilled_bytes"`
	Pending      int    `json:"pending"`
	DroppedSegs  int    `json:"dropped_segs,omitempty"`
	DroppedBytes int64  `json:"dropped_bytes,omitempty"`
	Error        string `json:"error,omitempty"`
}

// liveStatus builds the ingest-status summary for the current
// snapshot (shared by /live, /events and the hub's trace listing).
// The event and sample totals are memoized per snapshot — snapshots
// are immutable, so they only need recomputing when the epoch
// publishes a new one. The sticky ingest error AND the spill state are
// refreshed on every call: both can change without a publish (the
// error on a failed poll, the spill state when a background compaction
// installs or fails), so memoizing them with the snapshot would serve
// stale — and hide failing — retention status indefinitely.
func (s *Server) liveStatus() liveResponse {
	tr, epoch := s.src.Snapshot()
	ls, isLive := s.src.(query.LiveSource)
	s.statusMu.Lock()
	if s.statusSnap != tr {
		resp := liveResponse{
			Epoch:    epoch,
			Start:    tr.Span.Start,
			End:      tr.Span.End,
			CPUs:     tr.NumCPUs(),
			Tasks:    len(tr.Tasks),
			Types:    len(tr.Types),
			Counters: len(tr.Counters),
		}
		// EventCounts counts whole columns, a live trace's spilled
		// parts included.
		resp.Events, resp.Samples = tr.EventCounts()
		s.statusSnap, s.statusResp = tr, resp
	}
	resp := s.statusResp
	s.statusMu.Unlock()
	// Spill state, fresh per call. A live source's current state is
	// preferred over the published snapshot's, which predates any
	// compaction still running at publish time. The local copy gets its
	// own pointer; the memoized response is never mutated.
	st, ok := tr.SpillStats()
	if isLive {
		st, ok = ls.SpillStats()
	}
	if ok {
		resp.Spill = &spillStatus{
			Segments:     st.Segments,
			SpilledBytes: st.SpilledBytes,
			Pending:      st.Pending,
			DroppedSegs:  st.DroppedSegs,
			DroppedBytes: st.DroppedBytes,
			Error:        st.Err,
		}
	}
	resp.Live = isLive
	if isLive {
		if err := ls.Err(); err != nil {
			resp.Error = err.Error()
		}
	}
	return resp
}

// writeLive reports the current epoch and snapshot totals. Never
// cached: its whole point is telling pollers whether anything changed.
func writeLive(w http.ResponseWriter, rq request) error {
	w.Header().Set("Cache-Control", "no-store")
	return writeJSON(w, rq.srv.liveStatus())
}

// The index template links relatively ("render?...", not "/render?..."),
// so the same page works served standalone at "/" and hub-mounted at
// "/t/<name>/".
//
// Tiles load progressively: the initial <img> src requests a coarse
// level-N tile (rendered from ~2^N times fewer pyramid cells, so it
// paints almost immediately), and the script preloads the exact
// level-0 tile and swaps it in when ready. On a live trace the same
// script subscribes to the /events SSE stream and repeats the
// coarse-then-exact dance on every epoch advance — no reloads, no
// polling. The _e=<epoch> parameter only busts the browser's image
// cache (the server ignores it; its response cache keys on the real
// epoch).
var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>Aftermath - {{.Name}}</title>
<style>
body { font-family: sans-serif; background: #1a1a1a; color: #ddd; margin: 1em; }
a { color: #8cf; margin-right: 0.6em; }
img { border: 1px solid #444; display: block; margin: 0.6em 0; }
.controls { margin: 0.4em 0; }
code { color: #fc9; }
</style></head>
<body>
<h2>Aftermath &mdash; {{.Name}}</h2>
<div>machine: {{.Machine}} &middot; {{.CPUs}} CPUs / {{.Nodes}} NUMA nodes &middot; {{.Tasks}} tasks &middot; span {{.Span}} cycles{{if .Live}} &middot; <b>live</b> (epoch <span id="epoch">{{.Epoch}}</span>){{end}}</div>
<div class="controls">mode:
{{range .Modes}}<a href="?mode={{.}}&t0={{$.T0}}&t1={{$.T1}}">{{.}}</a>{{end}}
</div>
<div class="controls">
<a href="?mode={{.Mode}}&t0={{.ZoomInT0}}&t1={{.ZoomInT1}}">zoom in</a>
<a href="?mode={{.Mode}}&t0={{.ZoomOutT0}}&t1={{.ZoomOutT1}}">zoom out</a>
<a href="?mode={{.Mode}}&t0={{.LeftT0}}&t1={{.LeftT1}}">&larr; pan</a>
<a href="?mode={{.Mode}}&t0={{.RightT0}}&t1={{.RightT1}}">pan &rarr;</a>
<a href="?mode={{.Mode}}">reset</a>
</div>
<img class="prog" data-base="render?mode={{.Mode}}&t0={{.T0}}&t1={{.T1}}&w=1100&h=420" src="render?mode={{.Mode}}&t0={{.T0}}&t1={{.T1}}&w=1100&h=420&level={{.CoarseLevel}}&_e={{.Epoch}}" width="1100" height="420" alt="timeline">
<img class="prog" data-base="plot?kind=idle&w=1100&h=180" src="plot?kind=idle&w=1100&h=180&level={{.CoarseLevel}}&_e={{.Epoch}}" width="1100" height="180" alt="idle workers">
<div class="controls">
<a href="stats?t0={{.T0}}&t1={{.T1}}">interval statistics (JSON)</a>
<a href="matrix?t0={{.T0}}&t1={{.T1}}">communication matrix</a>
<a href="graph.dot">task graph (DOT)</a>
<a href="anomalies?t0={{.T0}}&t1={{.T1}}">anomalies (JSON)</a>
<a href="live">ingest status (JSON)</a>
</div>
<script>
(function () {
  var epoch = {{.Epoch}};
  var coarse = {{.CoarseLevel}};
  var imgs = Array.prototype.slice.call(document.querySelectorAll("img.prog"));
  function url(img, level) {
    return img.getAttribute("data-base") + "&level=" + level + "&_e=" + epoch;
  }
  function refine(img) {
    var exact = url(img, 0);
    var pre = new Image();
    pre.onload = function () { img.src = exact; };
    pre.src = exact;
  }
  imgs.forEach(refine);
  {{if .Live}}
  var es = new EventSource("events");
  es.addEventListener("epoch", function (ev) {
    var st = JSON.parse(ev.data);
    if (!(st.epoch > epoch)) { return; }
    epoch = st.epoch;
    var label = document.getElementById("epoch");
    if (label) { label.textContent = epoch; }
    imgs.forEach(function (img) {
      img.src = url(img, coarse);
      refine(img);
    });
  });
  {{end}}
})();
</script>
</body></html>`))

type indexData struct {
	Name, Machine        string
	CPUs, Nodes, Tasks   int
	Span                 int64
	Live                 bool
	Epoch                uint64
	Mode                 string
	Modes                []string
	CoarseLevel          int
	T0, T1               int64
	ZoomInT0, ZoomInT1   int64
	ZoomOutT0, ZoomOutT1 int64
	LeftT0, LeftT1       int64
	RightT0, RightT1     int64
}

// indexCoarseLevel is the pyramid level of the index page's first
// paint: 2^3 = 8x fewer cells than the exact tile it refines into.
const indexCoarseLevel = 3

func writeIndex(w http.ResponseWriter, rq request) error {
	s, tr := rq.srv, rq.tr
	t0, t1 := query.WindowOf(tr, rq.q)
	// All navigation arithmetic saturates: trace times are raw cycle
	// counts that may sit anywhere in int64, so t1 + span/2 (zoom out
	// near the end) or t0 - quarter (pan left near MinInt64) would wrap
	// into an inverted window the parameter layer rejects with a 400 —
	// a dead link on the page. Saturation keeps every generated link a
	// valid (if clamped) window.
	span := tmath.SatSub(t1, t0)
	quarter := span / 4
	_, isLive := s.src.(query.LiveSource)
	d := indexData{
		Name:        s.Name,
		Machine:     tr.Topology.Name,
		CPUs:        tr.NumCPUs(),
		Nodes:       tr.NumNodes(),
		Tasks:       len(tr.Tasks),
		Span:        tr.Span.Duration(),
		Live:        isLive,
		Epoch:       rq.epoch,
		Mode:        rq.p.Str("mode", "state"),
		CoarseLevel: indexCoarseLevel,
		T0:          t0, T1: t1,
		ZoomInT0: tmath.SatAdd(t0, quarter), ZoomInT1: tmath.SatSub(t1, quarter),
		ZoomOutT0: tmath.SatSub(t0, span/2), ZoomOutT1: tmath.SatAdd(t1, span/2),
		LeftT0: tmath.SatSub(t0, quarter), LeftT1: tmath.SatSub(t1, quarter),
		RightT0: tmath.SatAdd(t0, quarter), RightT1: tmath.SatAdd(t1, quarter),
	}
	for m := render.ModeState; m <= render.ModeNUMAHeat; m++ {
		d.Modes = append(d.Modes, m.String())
	}
	if err := indexTmpl.Execute(w, d); err != nil {
		return serverError{err}
	}
	return nil
}

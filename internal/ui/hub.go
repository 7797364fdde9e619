// The Hub: one process, many traces. A Hub registers named trace
// sources — batch and live mixed — and mounts the full single-trace
// viewer for each under /t/<name>/, behind ONE shared LRU response
// cache whose keys are (trace, epoch, canonical query). This is the
// multi-tenant serving shape the ROADMAP's production goal needs:
// memory is bounded globally rather than per trace, a hot trace may
// use the whole budget while idle traces keep only their hottest
// tiles, and live traces invalidate per-epoch without touching their
// neighbours' entries.
package ui

import (
	"fmt"
	"html/template"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/openstream/aftermath/internal/query"
)

// Hub serves many named trace sources from one process:
//
//	/                   HTML index of the registered traces
//	/traces             JSON listing (name, live, epoch, totals)
//	/events             SSE stream of the registered traces (events.go)
//	/t/<name>/...       the full single-trace viewer for that source
//
// Its own paths are entries of the endpoint table (endpoints.go); of
// the rest it splits /t/<name> off and hands them to the front door.
//
// Safe for concurrent clients and concurrent Add.
type Hub struct {
	mu      sync.RWMutex
	servers map[string]*Server
	names   []string // registration order
	cache   *responseCache
	closers []io.Closer
	// heartbeat overrides the SSE keepalive interval of the hub-level
	// /events multiplexer (events.go); 0 = default.
	heartbeat time.Duration
}

// NewHub returns an empty hub with a shared response cache.
func NewHub() *Hub {
	return &Hub{
		servers: make(map[string]*Server),
		cache:   newResponseCache(defaultCacheBytes),
	}
}

// Add registers a trace source under a name, routing /t/<name>/... to
// its viewer. Batch traces (query.NewStatic) and live traces may be
// mixed freely. Names must be non-empty, free of '/' and unique.
func (h *Hub) Add(name string, src query.Source) error {
	if name == "" {
		return fmt.Errorf("hub: trace name must not be empty")
	}
	if strings.ContainsAny(name, "/?#") {
		return fmt.Errorf("hub: trace name %q must not contain '/', '?' or '#'", name)
	}
	if name == "." || name == ".." {
		// Browsers normalize /t/./ and /t/../ away from the mount,
		// leaving the trace unreachable through the UI.
		return fmt.Errorf("hub: trace name %q is not routable", name)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.servers[name]; dup {
		return fmt.Errorf("hub: trace %q already registered", name)
	}
	// The scope prefixes every cache key of this trace's server, so
	// all registered traces share the hub's one LRU without colliding:
	// effective keys are (trace, epoch, canonical query).
	scope := "t=" + url.QueryEscape(name) + "|"
	h.servers[name] = newServer(src, name, h.cache, scope)
	h.names = append(h.names, name)
	return nil
}

// AddCloser registers a resource torn down by Close alongside the
// hub's sources — typically the follower that feeds a live trace (its
// Close stops the poll goroutine and releases the trace file handle).
func (h *Hub) AddCloser(c io.Closer) {
	h.mu.Lock()
	h.closers = append(h.closers, c)
	h.mu.Unlock()
}

// Close tears down the hub: every closer registered with AddCloser is
// closed, then every registered source that implements io.Closer (live
// traces flush their background spill compactions; store-backed static
// traces release their file mappings). The first error wins; all
// closers run regardless. The hub must not serve requests after Close.
func (h *Hub) Close() error {
	h.mu.Lock()
	closers := h.closers
	h.closers = nil
	for _, n := range h.names {
		closers = append(closers, h.servers[n])
	}
	h.mu.Unlock()
	var first error
	for _, c := range closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Server returns the mounted viewer for a registered trace (for
// attaching annotations, etc.).
func (h *Hub) Server(name string) (*Server, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s, ok := h.servers[name]
	return s, ok
}

// Names returns the registered trace names in registration order.
func (h *Hub) Names() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return append([]string(nil), h.names...)
}

// CacheStats returns the shared cache's entry count and byte size.
func (h *Hub) CacheStats() (entries, bytes int) {
	return h.cache.stats()
}

// ServeHTTP implements http.Handler.
func (h *Hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// r.URL.Path is already percent-decoded by net/http; do not decode
	// again, or names containing literal escape sequences become
	// unreachable (or alias another trace).
	rest, mounted := strings.CutPrefix(r.URL.Path, "/t/")
	if !mounted {
		serve(w, r, r.URL.Path, request{hub: h})
		return
	}
	name, _, found := strings.Cut(rest, "/")
	srv, ok := h.Server(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace %q registered", name))
		return
	}
	if !found {
		// /t/<name> -> /t/<name>/ so the viewer's relative links
		// resolve under the trace's mount point; the query string
		// (window, mode, ...) rides along, and the path keeps its
		// original escaping.
		target := r.URL.EscapedPath() + "/"
		if r.URL.RawQuery != "" { //atmvet:ignore cachekeycheck the redirect echoes the client's query string verbatim; no cache key or identity is derived from it
			target += "?" + r.URL.RawQuery
		}
		http.Redirect(w, r, target, http.StatusMovedPermanently)
		return
	}
	serve(w, r, rest[len(name):], request{srv: srv})
}

// hubTrace is one entry of the /traces JSON listing.
type hubTrace struct {
	Name string `json:"name"`
	liveResponse
}

// listing snapshots every registered trace's status, sorted by name
// for a deterministic response.
func (h *Hub) listing() []hubTrace {
	h.mu.RLock()
	names := append([]string(nil), h.names...)
	servers := make([]*Server, len(names))
	for i, n := range names {
		servers[i] = h.servers[n]
	}
	h.mu.RUnlock()
	out := make([]hubTrace, len(names))
	for i, srv := range servers {
		out[i] = hubTrace{Name: names[i], liveResponse: srv.liveStatus()}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// writeTraces lists the registered traces as JSON. Never cached: it
// reports live epochs.
func writeTraces(w http.ResponseWriter, rq request) error {
	w.Header().Set("Cache-Control", "no-store")
	return writeJSON(w, rq.hub.listing())
}

var hubTmpl = template.Must(template.New("hub").Parse(`<!DOCTYPE html>
<html><head><title>Aftermath Hub</title>
<style>
body { font-family: sans-serif; background: #1a1a1a; color: #ddd; margin: 1em; }
a { color: #8cf; }
table { border-collapse: collapse; margin: 0.8em 0; }
td, th { border: 1px solid #444; padding: 0.3em 0.8em; text-align: left; }
</style></head>
<body>
<h2>Aftermath &mdash; {{len .}} trace{{if ne (len .) 1}}s{{end}}</h2>
<table>
<tr><th>trace</th><th>status</th><th>epoch</th><th>CPUs</th><th>tasks</th><th>span (cycles)</th></tr>
{{range .}}<tr>
<td><a href="/t/{{.NameEscaped}}/">{{.Name}}</a></td>
<td>{{if .Live}}live{{if .Error}} (ingest error){{end}}{{else}}batch{{end}}</td>
<td>{{.Epoch}}</td><td>{{.CPUs}}</td><td>{{.Tasks}}</td><td>{{.SpanCycles}}</td>
</tr>{{end}}
</table>
<div><a href="/traces">listing (JSON)</a></div>
</body></html>`))

// hubIndexRow adds the template-derived fields to a listing entry.
type hubIndexRow struct {
	hubTrace
	// NameEscaped is the path-escaped name for the mount link, so
	// names with spaces or literal escape sequences round-trip
	// through net/http's one decode.
	NameEscaped string
	SpanCycles  int64
}

func writeHubIndex(w http.ResponseWriter, rq request) error {
	traces := rq.hub.listing()
	rows := make([]hubIndexRow, len(traces))
	for i, t := range traces {
		rows[i] = hubIndexRow{hubTrace: t, NameEscaped: url.PathEscape(t.Name), SpanCycles: t.End - t.Start}
	}
	if err := hubTmpl.Execute(w, rows); err != nil {
		return serverError{err}
	}
	return nil
}

package ui

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/openstream/aftermath/internal/annotations"
	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/taskgraph"
	"github.com/openstream/aftermath/internal/trace"
)

// endpointParams are the parameters the table-driven tests request an
// entry with. An entry without one is requested bare, so one added to
// the endpoint table is walked without touching this map.
var endpointParams = map[string]string{
	"/render":    "mode=state&w=300&h=100&wnodes=0",
	"/plot":      "kind=idle&w=300&h=100&rnodes=1",
	"/stats":     "t0=0&t1=500000&rnodes=0",
	"/anomalies": "n=10&rnodes=1,0&wnodes=0",
	"/task":      "id=1",
}

// endpointPath is the request path the tests use for one table entry.
func endpointPath(ep endpoint) string {
	if params := endpointParams[ep.path]; params != "" {
		return ep.path + "?" + params
	}
	return ep.path
}

// checkContentTypes: every entry answered at mount, mounted at prefix,
// declares the content type its table entry names on success.
func checkContentTypes(t *testing.T, srv *httptest.Server, prefix string, at mount) {
	t.Helper()
	for _, ep := range endpoints {
		if ep.at&at == 0 {
			continue
		}
		path := prefix + endpointPath(ep)
		resp, body := get(t, srv, path)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != ep.contentType {
			t.Errorf("%s: content type %q, want %q", path, ct, ep.contentType)
		}
	}
}

// checkMissThenHit: the second identical request of every cached entry
// answered at mount, mounted at prefix, is served from the LRU response
// cache. An uncached entry carries no X-Cache, and one reporting live
// state tells every cache on the way not to keep it.
func checkMissThenHit(t *testing.T, srv *httptest.Server, prefix string, at mount) {
	t.Helper()
	for _, ep := range endpoints {
		if ep.at&at == 0 {
			continue
		}
		path := prefix + endpointPath(ep)
		resp, first := get(t, srv, path)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if ep.plan == nil {
			if xc, ok := resp.Header["X-Cache"]; ok {
				t.Errorf("%s: uncached entry carries X-Cache %q", path, xc)
			}
			switch ep.path {
			case "/live", "/events", "/traces":
				if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
					t.Errorf("%s: Cache-Control %q, want no-store", path, cc)
				}
			}
			continue
		}
		if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
			t.Errorf("%s: first request X-Cache = %q, want MISS", path, xc)
		}
		resp, second := get(t, srv, path)
		if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
			t.Errorf("%s: second request X-Cache = %q, want HIT", path, xc)
		}
		if string(first) != string(second) {
			t.Errorf("%s: cached body differs from computed body", path)
		}
	}
}

// TestEndpointContentTypes: every endpoint declares the right content
// type on success.
func TestEndpointContentTypes(t *testing.T) {
	checkContentTypes(t, newTestServer(t), "", onServer)
}

// TestEndpointTableWalk: the table is the route list. Every entry is
// answered standalone and under a hub's /t/<name>/, batch and live,
// where the entries of both traces share one LRU, and the hub's own
// entries at its root: cached ones go MISS then HIT, uncached ones
// carry no X-Cache, each declares its content type, and a verb the
// table does not list there is a structured JSON 404 in every place.
func TestEndpointTableWalk(t *testing.T) {
	h, _, _ := newTestHub(t)
	hub := httptest.NewServer(h)
	t.Cleanup(hub.Close)
	for _, c := range []struct {
		srv    *httptest.Server
		prefix string
		at     mount
	}{
		{newTestServer(t), "", onServer},
		{hub, "/t/batch", onServer},
		{hub, "/t/live", onServer},
		{hub, "", onHub},
	} {
		checkMissThenHit(t, c.srv, c.prefix, c.at)
		checkContentTypes(t, c.srv, c.prefix, c.at)
		// The other mount's verbs are unknown here too.
		other := "/traces"
		if c.at == onHub {
			other = "/render"
		}
		for _, verb := range []string{"/bogus", "/render/x", other} {
			resp, body := get(t, c.srv, c.prefix+verb)
			decodeError(t, c.prefix+verb, resp, body, 404)
		}
	}
}

// TestGraphDOTCached: /graph.dot is a cached verb like the rest. Every
// max <= 0 means "all tasks" and shares one entry, and what the cache
// serves is byte for byte a direct WriteDOT.
func TestGraphDOTCached(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	srv := httptest.NewServer(NewServer(query.NewStatic(tr), "dot-test"))
	t.Cleanup(srv.Close)
	var want bytes.Buffer
	if err := taskgraph.Reconstruct(tr).WriteDOT(&want, taskgraph.DOTOptions{Label: "dot-test"}); err != nil {
		t.Fatal(err)
	}
	for i, path := range []string{"/graph.dot?max=0", "/graph.dot?max=-3", "/graph.dot?max=0"} {
		resp, body := get(t, srv, path)
		wantCache := "HIT"
		if i == 0 {
			wantCache = "MISS"
		}
		if xc := resp.Header.Get("X-Cache"); resp.StatusCode != 200 || xc != wantCache {
			t.Errorf("%s: status %d, X-Cache %q, want 200 %s", path, resp.StatusCode, xc, wantCache)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s: body differs from a direct WriteDOT", path)
		}
	}
	if resp, body := get(t, srv, "/graph.dot?max=2"); resp.Header.Get("X-Cache") != "MISS" || bytes.Equal(body, want.Bytes()) {
		t.Errorf("/graph.dot?max=2: X-Cache %q, want a MISS of a bounded graph", resp.Header.Get("X-Cache"))
	}
}

// TestEndpointBadParameters: malformed parameters return 400, not 200
// or a panic.
func TestEndpointBadParameters(t *testing.T) {
	srv := newTestServer(t)
	for _, path := range []string{
		"/render?mode=bogus",
		"/plot?kind=bogus",
		"/task?id=abc",
		"/anomalies?kind=bogus",
		"/anomalies?minscore=abc",
		"/anomalies?minscore=-1",
	} {
		resp, _ := get(t, srv, path)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
	// Out-of-range numeric parameters clamp rather than fail.
	for _, path := range []string{
		"/render?w=999999&h=1",
		"/plot?n=1",
		"/anomalies?n=999999&windows=2",
	} {
		resp, _ := get(t, srv, path)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d, want 200 (clamped)", path, resp.StatusCode)
		}
	}
}

// decodeError asserts a response is a structured JSON error with the
// given status, returning the named parameter.
func decodeError(t *testing.T, path string, resp *http.Response, body []byte, status int) string {
	t.Helper()
	if resp.StatusCode != status {
		t.Errorf("%s: status %d, want %d", path, resp.StatusCode, status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: error content type %q, want application/json", path, ct)
	}
	var e struct {
		Error  string `json:"error"`
		Param  string `json:"param"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Errorf("%s: error body is not JSON: %s", path, body)
		return ""
	}
	if e.Error == "" || e.Status != status {
		t.Errorf("%s: malformed error body: %s", path, body)
	}
	return e.Param
}

// TestStructuredErrors: invalid window/filter/mode parameters return
// the same structured JSON 400 on every endpoint — batch, live and
// hub alike — naming the offending parameter; formerly several were
// silently clamped or ignored.
func TestStructuredErrors(t *testing.T) {
	cases := []struct{ path, param string }{
		{"/render?t0=abc", "t0"},
		{"/render?t0=5&t1=5", "t1"},
		{"/render?mode=bogus", "mode"},
		{"/render?w=abc", "w"},
		{"/render?heatmin=x", "heatmin"},
		{"/stats?t0=99999999999999", "t0"}, // one-sided window beyond the span: empty once resolved
		{"/matrix?t1=-5", "t1"},            // the bound the request set gets the blame
		{"/stats?mindur=-1", "mindur"},
		{"/stats?maxdur=1x", "maxdur"},
		{"/plot?n=ten", "n"},
		{"/matrix?cell=big", "cell"},
		{"/anomalies?windows=x", "windows"},
		{"/anomalies?t0=99999999999999", "t0"}, // window handling is consistent with /stats & friends
		{"/anomalies?minscore=-1", "minscore"},
		{"/anomalies?kind=bogus", "kind"},
		{"/task?id=abc", "id"},
		{"/task?cpu=x", "cpu"},
		{"/graph.dot?max=lots", "max"},
		{"/?t1=oops", "t1"},
		// The shared parameters are checked on uncached paths too.
		{"/live?t0=x", "t0"},
		{"/events?t1=oops", "t1"},
		{"/task?id=1&mode=bogus", "mode"},
		// Two bad parameters: the one blamed is the first in the order
		// the server reads them, not the order the URL spells them.
		{"/render?h=x&w=y", "w"},
		{"/plot?level=x&n=y", "n"},
		{"/anomalies?minscore=-1&windows=x", "windows"},
		{"/stats?maxdur=x&t0=y", "t0"},
	}

	check := func(t *testing.T, srv *httptest.Server, prefix string) {
		for _, c := range cases {
			resp, body := get(t, srv, prefix+c.path)
			if param := decodeError(t, prefix+c.path, resp, body, 400); param != c.param {
				t.Errorf("%s: error names param %q, want %q", prefix+c.path, param, c.param)
			}
		}
		// Not-found responses are structured JSON too.
		for _, p := range []string{"/task?id=999999", "/bogus"} {
			resp, body := get(t, srv, prefix+p)
			decodeError(t, prefix+p, resp, body, 404)
		}
		// Any method but GET and HEAD is a 405, on a cached verb and an
		// uncached one alike, before the cache sees the request.
		checkMethods(t, srv, prefix, "/render?w=211&h=80", "/task?id=1", "/live")
	}

	t.Run("batch", func(t *testing.T) {
		check(t, newTestServer(t), "")
	})
	t.Run("live", func(t *testing.T) {
		data := liveTraceBytes(t)
		sr := trace.NewStreamReader(&growingTraceReader{data: data, limit: len(data)})
		lv := core.NewLive()
		if _, err := lv.Feed(sr); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewServer(lv, "live-errors"))
		t.Cleanup(srv.Close)
		check(t, srv, "")
	})
	t.Run("hub", func(t *testing.T) {
		h, _, _ := newTestHub(t)
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		check(t, srv, "/t/batch")
		check(t, srv, "/t/live")
		checkMethods(t, srv, "", "/traces", "/events", "/")
	})
}

// checkMethods: POST, PUT and DELETE of each path mounted at prefix are
// a structured JSON 405 naming the methods allowed, and leave nothing
// in the cache — a GET afterwards is a MISS, or no cached entry at all.
// HEAD is answered.
func checkMethods(t *testing.T, srv *httptest.Server, prefix string, paths ...string) {
	t.Helper()
	// A stream answered to a refused method would never end.
	client := *srv.Client()
	client.Timeout = 5 * time.Second
	for _, path := range paths {
		for _, method := range []string{"POST", "PUT", "DELETE"} {
			req, err := http.NewRequest(method, srv.URL+prefix+path, strings.NewReader("x"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			decodeError(t, method+" "+prefix+path, resp, body, http.StatusMethodNotAllowed)
			if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s: Allow %q, want \"GET, HEAD\"", method, prefix+path, allow)
			}
		}
		if strings.HasSuffix(path, "events") {
			continue // a stream answered to GET or HEAD never ends
		}
		if resp, _ := get(t, srv, prefix+path); resp.Header.Get("X-Cache") == "HIT" {
			t.Errorf("GET %s after POST, PUT and DELETE: X-Cache HIT, want nothing cached by them", prefix+path)
		}
		resp, err := client.Head(srv.URL + prefix + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("HEAD %s: status %d, want 200", prefix+path, resp.StatusCode)
		}
	}
}

// TestEndpointCacheHit: the second identical request is served from
// the LRU response cache.
func TestEndpointCacheHit(t *testing.T) {
	srv := newTestServer(t)
	checkMissThenHit(t, srv, "", onServer)
	// Plots cache under the series-only projection: parameters that do
	// not change the plotted series (the window; the filter, for
	// filter-insensitive metrics) must not fragment the cache.
	for _, path := range []string{
		"/plot?kind=idle&w=300&h=100&t0=0&t1=400000",
		"/plot?kind=idle&w=300&h=100&types=seidel_block",
	} {
		resp, _ := get(t, srv, path)
		if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
			t.Errorf("%s: X-Cache = %q, want HIT (series unchanged)", path, xc)
		}
	}
	// Likewise /stats, /matrix, /render and /anomalies cache under
	// verb-only projections: parameters the verb ignores must share
	// the entry warmed by the loop above.
	for _, path := range []string{
		"/stats?t0=0&t1=500000&rnodes=0&mode=heatmap&counter=cycles",
		"/render?mode=state&w=300&h=100&wnodes=0&rate=0", // rate is overlay-only; no counter set
		"/anomalies?n=10&rnodes=0,1&wnodes=0&mode=heatmap&counter=cycles&rate=0",
		// URLs from before the index switch was removed: the key is no
		// longer read, so they share the plain request's entry.
		"/render?mode=state&w=300&h=100&wnodes=0&noindex=1",
		"/anomalies?n=10&wnodes=0&rnodes=1,0&noindex=1",
	} {
		resp, _ := get(t, srv, path)
		if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
			t.Errorf("%s: X-Cache = %q, want HIT (verb ignores the extras)", path, xc)
		}
	}
	// The resolved window canonicalizes into the key: an explicit
	// full-span request shares the unwindowed request's entry, and
	// marks without an attached annotation set is a no-op.
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	wsrv := httptest.NewServer(NewServer(query.NewStatic(tr), "window-canon"))
	t.Cleanup(wsrv.Close)
	for _, probe := range []struct{ warm, same string }{
		{"/stats", fmt.Sprintf("/stats?t0=%d&t1=%d", tr.Span.Start, tr.Span.End)},
		{"/render?mode=state&w=300&h=100", "/render?mode=state&w=300&h=100&marks=0"},
	} {
		if resp, _ := get(t, wsrv, probe.warm); resp.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("%s: warm-up not a MISS", probe.warm)
		}
		if resp, _ := get(t, wsrv, probe.same); resp.Header.Get("X-Cache") != "HIT" {
			t.Errorf("%s: X-Cache = %q, want HIT (equivalent to %s)", probe.same, resp.Header.Get("X-Cache"), probe.warm)
		}
	}

	resp, _ := get(t, srv, "/matrix?cell=20")
	if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
		t.Errorf("matrix warm-up X-Cache = %q, want MISS", xc)
	}
	resp, _ = get(t, srv, "/matrix?cell=20&types=seidel_block&mode=heatmap")
	if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
		t.Errorf("matrix with ignored params X-Cache = %q, want HIT", xc)
	}

	// The filter does change an avgdur plot: distinct entries.
	resp, _ = get(t, srv, "/plot?kind=avgdur&w=300&h=100")
	if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
		t.Errorf("avgdur first X-Cache = %q, want MISS", xc)
	}
	resp, _ = get(t, srv, "/plot?kind=avgdur&w=300&h=100&types=seidel_block")
	if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
		t.Errorf("avgdur filtered X-Cache = %q, want MISS (filter-sensitive)", xc)
	}
}

// TestCachedPNGBodiesAreExactlySized: the cache charges len(body)
// against its byte bound and keeps cap(body) alive, so every PNG
// producer must hand it a slice with nothing behind its end — not the
// backing array of the buffer the encoder grew by doubling.
func TestCachedPNGBodiesAreExactlySized(t *testing.T) {
	s := NewServer(query.NewStatic(atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)), "exact")
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	paths := []string{"/matrix?cell=20", "/plot?kind=idle&w=300&h=100", "/render?mode=heatmap&w=900&h=380&level=3"}
	for _, mode := range []string{"state", "heatmap", "typemap", "numa-read", "numa-write", "numa-heat"} {
		paths = append(paths, "/render?w=900&h=380&counter=cycles&mode="+mode)
	}
	for _, path := range paths {
		if resp, _ := get(t, srv, path); resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("%s: status %d, X-Cache %q", path, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
	}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	if len(s.cache.items) != len(paths) {
		t.Fatalf("%d entries cached for %d requests", len(s.cache.items), len(paths))
	}
	for key, el := range s.cache.items {
		ent := el.Value.(*cachedResponse)
		if ent.contentType != "image/png" {
			t.Fatalf("%s: content type %q", key, ent.contentType)
		}
		if cap(ent.body) != len(ent.body) {
			t.Errorf("%s: body of %d bytes retains %d", key, len(ent.body), cap(ent.body))
		}
	}
}

// TestAnomaliesEndpoint: the ranked JSON respects window, kind and
// count parameters.
func TestAnomaliesEndpoint(t *testing.T) {
	srv := newTestServer(t)
	resp, body := get(t, srv, "/anomalies?minscore=0.5&n=500")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar struct {
		Start     int64 `json:"start"`
		End       int64 `json:"end"`
		Count     int   `json:"count"`
		Anomalies []struct {
			Kind  string  `json:"kind"`
			Score float64 `json:"score"`
			Start int64   `json:"start"`
			End   int64   `json:"end"`
		} `json:"anomalies"`
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if ar.Count != len(ar.Anomalies) {
		t.Errorf("count %d != len %d", ar.Count, len(ar.Anomalies))
	}
	for i, a := range ar.Anomalies {
		if a.Kind == "" || a.Start > a.End {
			t.Errorf("anomaly %d malformed: %+v", i, a)
		}
		if i > 0 && a.Score > ar.Anomalies[i-1].Score {
			t.Errorf("anomaly %d out of rank order", i)
		}
		if a.End < ar.Start || a.Start > ar.End {
			t.Errorf("anomaly %d outside scan window: %+v", i, a)
		}
	}

	// n bounds the result count.
	resp, body = get(t, srv, "/anomalies?minscore=0.5&n=1")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Count > 1 {
		t.Errorf("n=1 returned %d anomalies", ar.Count)
	}

	// kind restricts, and a window restricts the scan span.
	resp, body = get(t, srv, "/anomalies?kind=load-imbalance&t0=0&t1=1000000&minscore=0.1")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Start != 0 || ar.End != 1000000 {
		t.Errorf("window = [%d,%d), want [0,1000000)", ar.Start, ar.End)
	}
	for _, a := range ar.Anomalies {
		if a.Kind != "load-imbalance" {
			t.Errorf("kind filter leaked %q", a.Kind)
		}
	}
}

// TestAnomaliesQuoteExactSpikePeak: a counter that jumps by 2·10¹¹ in
// one sample interval — where Δv · 1000 · RateScale no longer fits an
// int64 — is flagged, and its explanation quotes the peak rate of the
// exact quotient. The int64 expression wrapped it to a negative rate, so
// the endpoint explained the spike with the counter's ordinary 10/kcycle.
func TestAnomaliesQuoteExactSpikePeak(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	const cpus, samples = 4, 100
	check(w.WriteCounterDesc(trace.CounterDesc{ID: 1, Name: "spiky", Monotonic: true}))
	for cpu := int32(0); cpu < cpus; cpu++ {
		check(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: 0, End: 1000 * samples}))
		for i := int64(0); i <= samples; i++ {
			v := 10 * i
			if cpu == 2 && i > samples/2 {
				v += 2e11
			}
			check(w.WriteSample(trace.CounterSample{CPU: cpu, Counter: 1, Time: 1000 * i, Value: v}))
		}
	}
	check(w.Flush())
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(query.NewStatic(tr), "spike-test"))
	t.Cleanup(srv.Close)
	resp, body := get(t, srv, "/anomalies?kind=counter-spike&n=5")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar struct {
		Anomalies []struct {
			Explanation string `json:"explanation"`
		} `json:"anomalies"`
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	// (2·10¹¹ + 10) · 1000 / 1000 events per kilocycle.
	const want = "spiky rate on cpu 2 peaked at 200000000010.00/kcycle"
	if len(ar.Anomalies) == 0 || !strings.Contains(ar.Anomalies[0].Explanation, want) {
		t.Fatalf("top spike %+v, want an explanation quoting %q", ar.Anomalies, want)
	}
}

// TestRenderAnnotationMarks: attaching annotations changes the
// rendered timeline (markers drawn), and marks=0 suppresses them.
func TestRenderAnnotationMarks(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	s := NewServer(query.NewStatic(tr), "marks-test")
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	_, plain := get(t, srv, "/render?w=300&h=100")

	set := &annotations.Set{}
	mid := (tr.Span.Start + tr.Span.End) / 2
	set.Add(annotations.Annotation{Time: mid, CPU: -1, Text: "marker"})
	s.SetAnnotations(set)

	resp, marked := get(t, srv, "/render?w=300&h=100")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if string(marked) == string(plain) {
		t.Error("annotation markers did not change the rendering")
	}
	resp, suppressed := get(t, srv, "/render?w=300&h=100&marks=0")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if string(suppressed) != string(plain) {
		t.Error("marks=0 did not suppress annotation markers")
	}
	if !strings.HasPrefix(string(marked), "\x89PNG") {
		t.Error("marked render is not a PNG")
	}
}

// TestServedNodeFilters: rnodes= and wnodes= reach /anomalies: on a
// NUMA-scheduled trace it serves exactly what the scan answers for a
// hand-built TaskFilter naming node 0, and a node list is one cache
// entry however it is spelled. (/stats, /plot and /render with either
// parameter are held to the oracle by TestServedEqualsOracle.)
func TestServedNodeFilters(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	srv := httptest.NewServer(NewServer(query.NewStatic(tr), "nodes"))
	t.Cleanup(srv.Close)
	node0 := []int32{0}
	for _, c := range []struct {
		param string
		f     *filter.TaskFilter
	}{
		{"rnodes", &filter.TaskFilter{ReadNodes: node0}},
		{"wnodes", &filter.TaskFilter{WriteNodes: node0}},
	} {
		ar := anomaliesResponse{Start: tr.Span.Start, End: tr.Span.End, Anomalies: []anomalyItem{}}
		found := anomaly.Scan(tr, anomaly.Config{Windows: anomaly.DefaultWindows, Filter: c.f})
		for _, a := range found[:min(len(found), 50)] {
			ar.Anomalies = append(ar.Anomalies, anomalyItem{
				Kind: a.Kind.String(), Score: a.Score, Start: a.Window.Start, End: a.Window.End,
				CPU: a.CPU, Task: uint64(a.TaskID), Counter: a.Counter, Explanation: a.Explanation,
			})
		}
		ar.Count = len(ar.Anomalies)
		want, err := encodeJSON(ar)
		if err != nil {
			t.Fatal(err)
		}
		resp, got := get(t, srv, "/anomalies?n=50&"+c.param+"=0")
		if resp.StatusCode != 200 || !bytes.Equal(got, want) {
			t.Errorf("/anomalies %s=0: status %d\n got %s\nwant %s", c.param, resp.StatusCode, got, want)
		}
	}

	for i, path := range []string{"/stats?rnodes=1,0", "/stats?rnodes=0,1,1"} {
		resp, body := get(t, srv, path)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if got, want := resp.Header.Get("X-Cache"), []string{"MISS", "HIT"}[i]; got != want {
			t.Errorf("%s: X-Cache %q, want %q", path, got, want)
		}
	}
}

// TestPNGTailAllocs: the PNG tail of a /render miss (encodePNG) makes
// one allocation beyond what the encoder makes writing nowhere — the
// body, sized by the encoder once the pixels are compressed — and
// returns the bytes EncodePNG writes, in a body of exactly their
// length. A body grown by doubling and then copied to its length would
// cost five allocations more on a 1000×400 tile.
func TestPNGTailAllocs(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	fb, _, err := query.TimelineOf(tr, query.New().Size(1000, 400))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := fb.EncodePNG(&want); err != nil {
		t.Fatal(err)
	}
	body, err := encodePNG(fb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) || cap(body) != len(body) {
		t.Fatalf("the body is %d bytes (room for %d), EncodePNG wrote %d, not the same", len(body), cap(body), want.Len())
	}
	encoder := testing.AllocsPerRun(20, func() { fb.EncodePNG(io.Discard) })
	tail := testing.AllocsPerRun(20, func() { encodePNG(fb) })
	if tail != encoder+1 {
		t.Errorf("the PNG tail of a /render miss makes %.0f allocations, the encoder %.0f: want one more, the body", tail, encoder)
	}
}

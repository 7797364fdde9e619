package ui

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/trace"
)

// newTestHub builds a hub serving one batch trace ("batch") and one
// live trace ("live") fed half its stream, returning the live handles
// for appending the rest.
func newTestHub(t *testing.T) (*Hub, *core.Live, func()) {
	t.Helper()
	batch := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	data := liveTraceBytes(t)
	g := &growingTraceReader{data: data, limit: len(data) / 2}
	sr := trace.NewStreamReader(g)
	lv := core.NewLive()
	if _, err := lv.Feed(sr); err != nil {
		t.Fatal(err)
	}
	feedRest := func() {
		g.limit = len(data)
		if n, err := lv.Feed(sr); err != nil || n == 0 {
			t.Fatalf("feed rest = (%d, %v)", n, err)
		}
	}
	h := NewHub()
	if err := h.Add("batch", query.NewStatic(batch)); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("live", lv); err != nil {
		t.Fatal(err)
	}
	return h, lv, feedRest
}

// TestHubRoutingAndListing: the hub serves the index, the JSON
// listing, and the full per-trace viewer under /t/<name>/; unknown
// names and endpoints 404 with structured JSON.
func TestHubRoutingAndListing(t *testing.T) {
	h, _, _ := newTestHub(t)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	resp, body := get(t, srv, "/")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "/t/batch/") || !strings.Contains(string(body), "/t/live/") {
		t.Fatalf("hub index missing trace links (status %d): %s", resp.StatusCode, body)
	}

	resp, body = get(t, srv, "/traces")
	if resp.StatusCode != 200 {
		t.Fatalf("/traces status %d", resp.StatusCode)
	}
	var listing []struct {
		Name  string `json:"name"`
		Live  bool   `json:"live"`
		Epoch uint64 `json:"epoch"`
		Tasks int    `json:"tasks"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("/traces body: %v", err)
	}
	if len(listing) != 2 || listing[0].Name != "batch" || listing[1].Name != "live" {
		t.Fatalf("listing = %+v", listing)
	}
	if listing[0].Live || !listing[1].Live {
		t.Fatalf("live flags wrong: %+v", listing)
	}
	if listing[0].Tasks == 0 || listing[1].Tasks == 0 {
		t.Fatalf("listing reports no tasks: %+v", listing)
	}

	// The mounted viewer answers every endpoint under its prefix.
	for _, path := range []string{"/t/batch/", "/t/batch/stats", "/t/batch/render?w=200&h=80", "/t/live/live", "/t/live/anomalies?n=5&windows=16"} {
		resp, body := get(t, srv, path)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
		}
	}
	// Non-clean paths are served in place, under the hub and by a
	// standalone server alike: a path-cleaning redirect's Location
	// would escape the /t/<name>/ mount prefix.
	standalone := newTestServer(t)
	for _, c := range []struct {
		srv  *httptest.Server
		path string
	}{
		{srv, "/t/batch//stats"}, {srv, "/t/batch/./stats"},
		{standalone, "//stats"}, {standalone, "/./stats"},
	} {
		resp, _ := get(t, c.srv, c.path)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d, want 200 (served in place)", c.path, resp.StatusCode)
		}
		if got := resp.Request.URL.Path; got != c.path {
			t.Errorf("%s: redirected to %s, want served in place", c.path, got)
		}
	}

	// /t/<name> redirects to the trailing-slash mount so relative
	// links resolve, carrying the query string along.
	resp, _ = get(t, srv, "/t/batch?mode=heatmap&t0=0&t1=500000")
	if resp.Request.URL.Path != "/t/batch/" {
		t.Errorf("/t/batch did not redirect to /t/batch/ (landed on %s)", resp.Request.URL.Path)
	}
	if got := resp.Request.URL.RawQuery; got != "mode=heatmap&t0=0&t1=500000" {
		t.Errorf("redirect dropped the query string (landed on %q)", got)
	}
	for _, path := range []string{"/t/nope/stats", "/bogus"} {
		resp, body := get(t, srv, path)
		if resp.StatusCode != 404 {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
		var e struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Status != 404 || e.Error == "" {
			t.Errorf("%s: not a structured JSON 404: %s", path, body)
		}
	}
}

// TestHubCacheIsolationAndSharing: the two traces share one LRU but
// never collide — the same canonical query on each computes its own
// entry, and each entry serves only its own trace.
func TestHubCacheIsolationAndSharing(t *testing.T) {
	h, _, _ := newTestHub(t)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	const q = "/stats?t0=0&t1=500000"
	resp, bodyBatch := get(t, srv, "/t/batch"+q)
	if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
		t.Fatalf("batch first X-Cache = %q", xc)
	}
	resp, bodyLive := get(t, srv, "/t/live"+q)
	if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
		t.Fatalf("live first X-Cache = %q (collided with batch entry?)", xc)
	}
	if string(bodyBatch) == string(bodyLive) {
		t.Fatal("different traces returned identical stats — cache collision")
	}
	resp, again := get(t, srv, "/t/batch"+q)
	if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
		t.Fatalf("batch repeat X-Cache = %q", xc)
	}
	if string(again) != string(bodyBatch) {
		t.Fatal("batch cache entry served wrong body")
	}
	if entries, _ := h.CacheStats(); entries < 2 {
		t.Fatalf("shared cache entries = %d, want >= 2", entries)
	}
}

// TestHubPermutedParamsShareEntry: reordered, duplicated and
// redundantly-spelled parameters canonicalize to one cache key, so the
// permuted request is a HIT on the original's entry.
func TestHubPermutedParamsShareEntry(t *testing.T) {
	h, _, _ := newTestHub(t)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	first := "/t/batch/stats?t0=0&t1=500000&types=seidel_block,seidel_init&mindur=7"
	permuted := []string{
		"/t/batch/stats?types=seidel_init,seidel_block&mindur=7&t1=500000&t0=0",
		"/t/batch/stats?t1=500000&t0=0&t0=0&types=seidel_block,seidel_init,seidel_block&mindur=007",
		"/t/batch/stats?mindur=7&maxdur=0&t0=0&t1=500000&types=seidel_init,seidel_block",
	}
	resp, body := get(t, srv, first)
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first request: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	for _, p := range permuted {
		resp, b := get(t, srv, p)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", p, resp.StatusCode, b)
		}
		if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
			t.Errorf("%s: X-Cache = %q, want HIT (same canonical query)", p, xc)
		}
		if string(b) != string(body) {
			t.Errorf("%s: body differs from original", p)
		}
	}
	// The render path canonicalizes too.
	r1 := "/t/batch/render?mode=heatmap&w=300&h=100&types=seidel_block"
	r2 := "/t/batch/render?types=seidel_block&h=100&w=300&mode=heatmap"
	resp, _ = get(t, srv, r1)
	if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
		t.Fatalf("render first X-Cache = %q", xc)
	}
	resp, _ = get(t, srv, r2)
	if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
		t.Errorf("permuted render X-Cache = %q, want HIT", xc)
	}
}

// TestHubEpochInvalidation: appending to the live trace bumps only its
// epoch — its cached responses recompute while the batch trace's (and
// its own older-epoch keys) stay untouched in the shared LRU.
func TestHubEpochInvalidation(t *testing.T) {
	h, _, feedRest := newTestHub(t)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	paths := []string{"/t/live/stats?t0=0&t1=1000000", "/t/batch/stats?t0=0&t1=1000000"}
	for _, p := range paths {
		get(t, srv, p) // warm
		if resp, _ := get(t, srv, p); resp.Header.Get("X-Cache") != "HIT" {
			t.Fatalf("%s: warm request not a HIT", p)
		}
	}

	feedRest() // live trace publishes a new epoch

	if resp, _ := get(t, srv, paths[0]); resp.Header.Get("X-Cache") != "MISS" {
		t.Error("live trace served a stale pre-append response after epoch bump")
	}
	if resp, _ := get(t, srv, paths[1]); resp.Header.Get("X-Cache") != "HIT" {
		t.Error("batch trace's cache entry was disturbed by the live append")
	}
}

// TestHubConcurrentMixedTraffic hammers both tenants — while the live
// trace ingests — from concurrent clients; under -race this proves the
// hub, the shared cache and the per-trace servers are safe for
// parallel multi-trace traffic.
func TestHubConcurrentMixedTraffic(t *testing.T) {
	batch := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	data := liveTraceBytes(t)
	g := &growingTraceReader{data: data, limit: len(data) / 4}
	sr := trace.NewStreamReader(g)
	lv := core.NewLive()
	if _, err := lv.Feed(sr); err != nil {
		t.Fatal(err)
	}
	h := NewHub()
	if err := h.Add("batch", query.NewStatic(batch)); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("live", lv); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	// Writer: keep appending to the live trace while clients query.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for step := 2; step <= 8; step++ {
			g.limit = len(data) * step / 8
			if _, err := lv.Feed(sr); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	paths := []string{
		"/traces",
		"/t/batch/stats", "/t/live/stats",
		"/t/batch/render?w=300&h=100", "/t/live/render?w=300&h=100",
		"/t/batch/plot?kind=idle&w=300&h=100", "/t/live/live",
		"/t/batch/anomalies?n=5&windows=16", "/t/live/anomalies?n=5&windows=16",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for round := 0; round < 3; round++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				resp, err := http.Get(srv.URL + p)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("%s: status %d", p, resp.StatusCode)
				}
			}(p)
		}
	}
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSourceServerStaticTrace: a server over a static source exposes
// the served trace via the documented Trace field; live sources leave
// it nil.
func TestSourceServerStaticTrace(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 2, 2, openstream.SchedNUMA)
	if s := NewServer(query.NewStatic(tr), "x"); s.Trace != tr {
		t.Error("NewServer(query.NewStatic(tr)) left Trace unset")
	}
	if s := NewServer(core.NewLive(), "y"); s.Trace != nil {
		t.Error("live server populated the static Trace field")
	}
}

// TestHubNameRoundTrip: names containing spaces or literal escape
// sequences are reachable through the index's own escaped links —
// the router decodes exactly once (net/http's decode), never twice.
func TestHubNameRoundTrip(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 2, 2, openstream.SchedNUMA)
	h := NewHub()
	for _, name := range []string{"run 1", "run%201"} {
		if err := h.Add(name, query.NewStatic(tr)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	resp, body := get(t, srv, "/")
	if resp.StatusCode != 200 {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	// The index links escape the names; following each must land on
	// the matching trace, not its look-alike.
	for name, link := range map[string]string{
		"run 1":   "/t/run%201/",
		"run%201": "/t/run%25201/",
	} {
		if !strings.Contains(string(body), `href="`+link+`"`) {
			t.Errorf("index missing escaped link %q for %q", link, name)
		}
		resp, page := get(t, srv, link)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", link, resp.StatusCode)
			continue
		}
		if !strings.Contains(string(page), "Aftermath &mdash; "+name) {
			t.Errorf("%s served the wrong trace (want %q)", link, name)
		}
	}
}

// TestHubAddValidation: names must be unique, non-empty and free of
// routing metacharacters.
func TestHubAddValidation(t *testing.T) {
	h := NewHub()
	tr := atmtest.SeidelTrace(t, 2, 2, openstream.SchedNUMA)
	if err := h.Add("run", query.NewStatic(tr)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "a/b", "a?b", ".", "..", "run"} {
		if err := h.Add(name, query.NewStatic(tr)); err == nil {
			t.Errorf("Add(%q) accepted", name)
		}
	}
	if got := h.Names(); len(got) != 1 || got[0] != "run" {
		t.Errorf("Names = %v", got)
	}
}

package ui

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/trace"
)

// sseEvent is one parsed Server-Sent Events frame.
type sseEvent struct {
	name string
	id   string
	data string
}

// sseReader parses frames off an open SSE body into a channel, which
// closes when the stream does. Comment lines (heartbeats) are skipped.
func sseReader(body io.Reader) <-chan sseEvent {
	ch := make(chan sseEvent, 16)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(body)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev.name != "" || ev.data != "" {
					ch <- ev
				}
				ev = sseEvent{}
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case strings.HasPrefix(line, "id: "):
				ev.id = strings.TrimPrefix(line, "id: ")
			}
		}
	}()
	return ch
}

// nextEvent waits for the next frame with the given event name,
// skipping others.
func nextEvent(t *testing.T, ch <-chan sseEvent, name string) sseEvent {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("SSE stream closed while waiting for %q event", name)
			}
			if ev.name == name {
				return ev
			}
		case <-deadline:
			t.Fatalf("timeout waiting for SSE %q event", name)
		}
	}
}

// openEvents opens a streaming GET of an SSE path and returns the
// parsed event channel.
func openEvents(t *testing.T, base, path string) <-chan sseEvent {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("%s: content type %q, want text/event-stream", path, ct)
	}
	return sseReader(resp.Body)
}

// TestEventsPush is the tentpole flow: a client learns of an epoch
// advance through /events — no polling — and its re-requested tiles
// rebuild (MISS) at the new epoch while the old ones were cache HITs.
func TestEventsPush(t *testing.T) {
	data := liveTraceBytes(t)
	g := &growingTraceReader{data: data, limit: len(data) / 2}
	sr := trace.NewStreamReader(g)
	lv := core.NewLive()
	if _, err := lv.Feed(sr); err != nil {
		t.Fatal(err)
	}
	view := NewServer(lv, "push-test")
	view.heartbeat = 20 * time.Millisecond
	srv := httptest.NewServer(view)
	t.Cleanup(srv.Close)

	events := openEvents(t, srv.URL, "/events")

	// Initial frame: the current status, so the client starts without
	// a separate /live round trip.
	ev := nextEvent(t, events, "epoch")
	var st liveResponse
	if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
		t.Fatalf("epoch payload not JSON: %s", ev.data)
	}
	if st.Epoch != 1 || !st.Live {
		t.Fatalf("initial epoch event = %+v, want live epoch 1", st)
	}
	if ev.id != "1" {
		t.Errorf("initial event id = %q, want \"1\"", ev.id)
	}

	const path = "/render?mode=state&w=300&h=100"
	resp, body := get(t, srv, path)
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first render: status %d X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	if resp, _ = get(t, srv, path); resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("repeated render X-Cache = %q, want HIT", resp.Header.Get("X-Cache"))
	}

	// Publish the rest; the notification must arrive with no request
	// in between.
	g.limit = len(data)
	if n, err := lv.Feed(sr); err != nil || n == 0 {
		t.Fatalf("feed = (%d, %v)", n, err)
	}
	ev = nextEvent(t, events, "epoch")
	if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
		t.Fatalf("epoch payload not JSON: %s", ev.data)
	}
	if st.Epoch != 2 {
		t.Fatalf("pushed epoch = %d, want 2", st.Epoch)
	}

	// The same URL now rebuilds against the new snapshot.
	if resp, _ = get(t, srv, path); resp.Header.Get("X-Cache") != "MISS" {
		t.Errorf("post-publish render X-Cache = %q, want MISS", resp.Header.Get("X-Cache"))
	}
}

// TestEventsStaticTrace: a batch trace has no epochs to push, but the
// stream still opens and carries the initial status frame.
func TestEventsStatic(t *testing.T) {
	srv := newTestServer(t)
	events := openEvents(t, srv.URL, "/events")
	ev := nextEvent(t, events, "epoch")
	var st liveResponse
	if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
		t.Fatalf("epoch payload not JSON: %s", ev.data)
	}
	if st.Live {
		t.Errorf("static trace reported live: %+v", st)
	}
}

// TestEventsIngestError: a sticky ingest error reaches subscribers as
// an "error" event.
func TestEventsIngestError(t *testing.T) {
	data := liveTraceBytes(t)
	lv := core.NewLive()
	if _, err := lv.Feed(trace.NewStreamReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	view := NewServer(lv, "err-test")
	view.heartbeat = 20 * time.Millisecond
	srv := httptest.NewServer(view)
	t.Cleanup(srv.Close)

	events := openEvents(t, srv.URL, "/events")
	nextEvent(t, events, "epoch")

	// A malformed batch poisons the stream.
	bad := &trace.RecordBatch{States: []trace.StateEvent{{CPU: -1}}}
	if err := lv.Append(bad); err == nil {
		t.Fatal("append of malformed batch succeeded")
	}
	ev := nextEvent(t, events, "error")
	var e sseError
	if err := json.Unmarshal([]byte(ev.data), &e); err != nil || e.Error == "" {
		t.Fatalf("error payload = %q (%v)", ev.data, err)
	}
}

// TestHubEvents: the hub multiplexes several traces onto one stream,
// tagging payloads with the trace name.
func TestHubEvents(t *testing.T) {
	data := liveTraceBytes(t)
	lv := core.NewLive()
	if _, err := lv.Feed(trace.NewStreamReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	hub := NewHub()
	hub.heartbeat = 20 * time.Millisecond
	if err := hub.Add("lv", lv); err != nil {
		t.Fatal(err)
	}
	if err := hub.Add("batch", query.NewStatic(atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA))); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hub)
	t.Cleanup(srv.Close)

	// Default: all registered traces, each with an initial frame.
	events := openEvents(t, srv.URL, "/events")
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		ev := nextEvent(t, events, "epoch")
		var ht hubTrace
		if err := json.Unmarshal([]byte(ev.data), &ht); err != nil {
			t.Fatalf("hub epoch payload not JSON: %s", ev.data)
		}
		seen[ht.Name] = true
	}
	if !seen["lv"] || !seen["batch"] {
		t.Fatalf("initial frames covered %v, want both traces", seen)
	}

	// Subset selection + live push through the hub stream.
	sub := openEvents(t, srv.URL, "/events?traces=lv")
	ev := nextEvent(t, sub, "epoch")
	var ht hubTrace
	if err := json.Unmarshal([]byte(ev.data), &ht); err != nil || ht.Name != "lv" {
		t.Fatalf("subset payload = %s (%v), want trace lv", ev.data, err)
	}
	lv.Append(&trace.RecordBatch{States: []trace.StateEvent{{CPU: 0, Start: trace.Time(ht.End + 1), End: trace.Time(ht.End + 2), State: trace.StateIdle}}})
	lv.Publish()
	ev = nextEvent(t, sub, "epoch")
	if err := json.Unmarshal([]byte(ev.data), &ht); err != nil || ht.Name != "lv" || ht.Epoch != 2 {
		t.Fatalf("pushed hub payload = %s (%v), want lv epoch 2", ev.data, err)
	}

	// A repeated name is streamed once: one initial frame, then one
	// frame per publish. Frames of one connection are written in order,
	// so a second subscription to lv would put a second epoch-2 frame
	// ahead of epoch 3 (and of epoch 4).
	dup := openEvents(t, srv.URL, "/events?traces=lv,lv")
	for want := uint64(2); want <= 4; want++ {
		ev := nextEvent(t, dup, "epoch")
		if err := json.Unmarshal([]byte(ev.data), &ht); err != nil || ht.Name != "lv" || ht.Epoch != want {
			t.Fatalf("traces=lv,lv: frame = %s (%v), want exactly one lv frame for epoch %d", ev.data, err, want)
		}
		lv.Publish()
	}

	// Unknown names 404 instead of streaming forever, also behind a
	// known or a repeated one.
	for _, sel := range []string{"nope", "lv,nope", "lv,lv,nope"} {
		if resp, _ := get(t, srv, "/events?traces="+sel); resp.StatusCode != 404 {
			t.Errorf("traces=%s: status %d, want 404", sel, resp.StatusCode)
		}
	}
}

// unwrapOnly hides every optional interface of the writer it wraps
// behind Unwrap, as a timing or logging middleware does.
type unwrapOnly struct{ http.ResponseWriter }

func (u unwrapOnly) Unwrap() http.ResponseWriter { return u.ResponseWriter }

// noFlush is a writer that cannot stream at all.
type noFlush struct{ http.ResponseWriter }

// TestEventsBehindWrappingWriter: the SSE loop flushes through
// http.ResponseController, so behind a wrapper that offers only Unwrap
// the hub's /events and a mounted server's still stream their initial
// epoch frame, where a type assertion to http.Flusher answered 500. A
// writer that cannot flush at all gets the structured 500 before any
// frame.
func TestEventsBehindWrappingWriter(t *testing.T) {
	h, _, _ := newTestHub(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(unwrapOnly{w}, r)
	}))
	t.Cleanup(srv.Close)
	for _, path := range []string{"/events?traces=live", "/t/live/events"} {
		ev := nextEvent(t, openEvents(t, srv.URL, path), "epoch")
		var st liveResponse
		if err := json.Unmarshal([]byte(ev.data), &st); err != nil || !st.Live {
			t.Errorf("%s: initial epoch frame %q (%v), want the live trace's status", path, ev.data, err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(noFlush{rec}, httptest.NewRequest("GET", "/events", nil))
	res := rec.Result()
	decodeError(t, "/events", res, rec.Body.Bytes(), 500)
}

// TestLiveSpillStatusFresh is the stale-status regression: the spill
// starts after the publish that installed the snapshot, and once Close
// has waited for its compaction a status memoized purely per snapshot
// predates it and /live would report no spill at all. The status must
// match the live source's current state, not the snapshot's.
func TestLiveSpillStatusFresh(t *testing.T) {
	lv := core.NewLive()
	lv.SetRetention(core.RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	if _, err := lv.Feed(trace.NewStreamReader(bytes.NewReader(liveTraceBytes(t)))); err != nil {
		t.Fatal(err)
	}
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	st, ok := lv.SpillStats()
	if !ok || st.Segments == 0 {
		t.Fatalf("precondition: live source spilled nothing (%+v, %v)", st, ok)
	}
	srv := httptest.NewServer(NewServer(lv, "spill-test"))
	t.Cleanup(srv.Close)
	lr := getLive(t, srv)
	if lr.Spill == nil {
		t.Fatal("/live reports no spill state after a finished spill")
	}
	if lr.Spill.Segments != st.Segments || lr.Spill.Pending != st.Pending {
		t.Errorf("/live spill = %+v, want segments %d pending %d", lr.Spill, st.Segments, st.Pending)
	}
}

// TestIndexExtremeWindow is the navigation-overflow regression: with a
// window pushed against MaxInt64, the zoom/pan links the index page
// generates must stay valid (saturated) windows — before the fix,
// zoom-out overflowed t1 + span/2 into an inverted window and the
// link 400ed.
func TestIndexExtremeWindow(t *testing.T) {
	srv := newTestServer(t)
	base := "/?t0=" + itoa64(math.MaxInt64/2) + "&t1=" + itoa64(math.MaxInt64)
	resp, body := get(t, srv, base)
	if resp.StatusCode != 200 {
		t.Fatalf("%s: status %d: %s", base, resp.StatusCode, body)
	}
	hrefs := regexp.MustCompile(`href="\?([^"]+)"`).FindAllStringSubmatch(string(body), -1)
	if len(hrefs) == 0 {
		t.Fatal("index page has no navigation links")
	}
	for _, m := range hrefs {
		link := "/?" + strings.ReplaceAll(m[1], "&amp;", "&")
		resp, body := get(t, srv, link)
		if resp.StatusCode != 200 {
			t.Errorf("nav link %s: status %d: %s", link, resp.StatusCode, body)
		}
	}
}

// TestTaskParamValidation is the /task bounds regression: a cpu
// outside [0, MaxCPUID] must be a structured 400 before the int32
// cast, and at = MaxInt64 must resolve cleanly (saturated exclusive
// bound) to a structured 404 instead of overflowing.
func TestTaskParamValidation(t *testing.T) {
	srv := newTestServer(t)
	for _, cpu := range []string{"-1", "2000000"} {
		path := "/task?cpu=" + cpu + "&at=0"
		resp, body := get(t, srv, path)
		if p := decodeError(t, path, resp, body, 400); p != "cpu" {
			t.Errorf("%s: blamed param %q, want cpu", path, p)
		}
	}
	path := "/task?cpu=0&at=" + itoa64(math.MaxInt64)
	resp, body := get(t, srv, path)
	decodeError(t, path, resp, body, 404)
	if !strings.Contains(string(body), "no task at that position") {
		t.Errorf("%s: body %s, want clean no-task 404", path, body)
	}
}

// TestServeCachedSingleflight is the thundering-herd regression:
// concurrent misses on one key run the build exactly once — one MISS,
// the rest HITs of the shared result.
func TestServeCachedSingleflight(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	view := NewServer(query.NewStatic(tr), "sf-test")
	const n = 16
	var builds int32
	start := make(chan struct{})
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(w *httptest.ResponseRecorder) {
			defer wg.Done()
			<-start
			view.serveCached(w, httptest.NewRequest("GET", "/", nil), "sf-key", "text/plain", func() ([]byte, error) {
				atomic.AddInt32(&builds, 1)
				time.Sleep(30 * time.Millisecond)
				return []byte("expensive"), nil
			})
		}(recs[i])
	}
	close(start)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times for %d concurrent requests, want 1", builds, n)
	}
	miss, hit := 0, 0
	for _, w := range recs {
		if w.Code != 200 || w.Body.String() != "expensive" {
			t.Fatalf("request got (%d, %q)", w.Code, w.Body.String())
		}
		switch xc := w.Header().Get("X-Cache"); xc {
		case "MISS":
			miss++
		case "HIT":
			hit++
		default:
			t.Fatalf("X-Cache = %q", xc)
		}
	}
	if miss != 1 || hit != n-1 {
		t.Errorf("MISS/HIT = %d/%d, want 1/%d", miss, hit, n-1)
	}
}

// TestServeCachedSingleflightError: a failed build propagates to every
// waiting follower but is never cached — the next request retries.
func TestServeCachedSingleflightError(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	view := NewServer(query.NewStatic(tr), "sferr-test")
	const n = 8
	var builds int32
	start := make(chan struct{})
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(w *httptest.ResponseRecorder) {
			defer wg.Done()
			<-start
			view.serveCached(w, httptest.NewRequest("GET", "/", nil), "sferr-key", "text/plain", func() ([]byte, error) {
				atomic.AddInt32(&builds, 1)
				time.Sleep(10 * time.Millisecond)
				return nil, &query.BadParamError{Param: "w", Reason: "boom"}
			})
		}(recs[i])
	}
	close(start)
	wg.Wait()
	for _, w := range recs {
		if w.Code != 400 {
			t.Fatalf("request got status %d, want 400", w.Code)
		}
	}
	// Errors must not be cached: a later request builds again.
	w := httptest.NewRecorder()
	view.serveCached(w, httptest.NewRequest("GET", "/", nil), "sferr-key", "text/plain", func() ([]byte, error) {
		atomic.AddInt32(&builds, 1)
		return []byte("ok"), nil
	})
	if w.Code != 200 || w.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("retry after error got (%d, %q), want fresh 200 MISS", w.Code, w.Header().Get("X-Cache"))
	}
}

// waitingCtx is a request context that reports when the serving path
// first asks for its Done channel: a singleflight follower does so only
// once it holds the leader's flight and is about to wait on it.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx(parent context.Context) *waitingCtx {
	return &waitingCtx{Context: parent, waiting: make(chan struct{})}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestServeCachedPanicRetiresFlight: a build that panics (net/http
// recovers it per connection) must still retire its flight. Followers
// already waiting on it get a 500 instead of hanging, and the next
// request for the key builds afresh instead of joining a flight nobody
// will ever finish.
func TestServeCachedPanicRetiresFlight(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	view := NewServer(query.NewStatic(tr), "sfpanic-test")
	mustNotBuild := func() ([]byte, error) {
		t.Error("a follower ran its own build")
		return nil, nil
	}
	building, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("the leader's panic did not reach its caller")
			}
		}()
		view.serveCached(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil), "sfpanic-key", "text/plain", func() ([]byte, error) {
			close(building)
			<-release
			panic("boom")
		})
	}()
	<-building
	const n = 4
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		ctx := newWaitingCtx(context.Background())
		wg.Add(1)
		go func(w *httptest.ResponseRecorder) {
			defer wg.Done()
			view.serveCached(w, httptest.NewRequest("GET", "/", nil).WithContext(ctx), "sfpanic-key", "text/plain", mustNotBuild)
		}(recs[i])
		<-ctx.waiting
	}
	close(release)
	wg.Wait()
	for _, w := range recs {
		if w.Code != 500 {
			t.Errorf("follower of a panicked build got status %d, want 500", w.Code)
		}
	}
	w := httptest.NewRecorder()
	view.serveCached(w, httptest.NewRequest("GET", "/", nil), "sfpanic-key", "text/plain", func() ([]byte, error) {
		return []byte("ok"), nil
	})
	if w.Code != 200 || w.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("request after a panicked build got (%d, %q), want fresh 200 MISS", w.Code, w.Header().Get("X-Cache"))
	}
}

// TestServeCachedFollowerCancel: a follower whose client has gone
// returns while the leader is still building, writing nothing; the
// leader's result is cached all the same and the next request is a HIT.
func TestServeCachedFollowerCancel(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	view := NewServer(query.NewStatic(tr), "sfcancel-test")
	building, release := make(chan struct{}), make(chan struct{})
	leader := httptest.NewRecorder()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		view.serveCached(leader, httptest.NewRequest("GET", "/", nil), "sfcancel-key", "text/plain", func() ([]byte, error) {
			close(building)
			<-release
			return []byte("late"), nil
		})
	}()
	<-building
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	follower := httptest.NewRecorder()
	// Called on the test's goroutine: at the parent commit this call
	// never returns (the leader is blocked until it does).
	view.serveCached(follower, httptest.NewRequest("GET", "/", nil).WithContext(ctx), "sfcancel-key", "text/plain", func() ([]byte, error) {
		t.Error("a follower ran its own build")
		return nil, nil
	})
	if follower.Body.Len() != 0 || follower.Header().Get("X-Cache") != "" {
		t.Errorf("cancelled follower wrote a response: %q", follower.Body.String())
	}
	close(release)
	<-leaderDone
	if leader.Code != 200 || leader.Header().Get("X-Cache") != "MISS" || leader.Body.String() != "late" {
		t.Errorf("leader got (%d, %q, %q), want 200 MISS late", leader.Code, leader.Header().Get("X-Cache"), leader.Body.String())
	}
	next := httptest.NewRecorder()
	view.serveCached(next, httptest.NewRequest("GET", "/", nil), "sfcancel-key", "text/plain", func() ([]byte, error) {
		t.Error("the leader's result was not cached")
		return nil, nil
	})
	if next.Header().Get("X-Cache") != "HIT" || next.Body.String() != "late" {
		t.Errorf("request after the leader got (%q, %q), want HIT late", next.Header().Get("X-Cache"), next.Body.String())
	}
}

// TestRenderProgressiveGolden pins progressive refinement: the exact
// (level 0) tile the index page swaps in — cache-busting _e and all —
// is byte-identical to a direct render.Timeline of the same window,
// and to the same URL with no level parameter at all (they share one
// cache entry).
func TestRenderProgressiveGolden(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	srv := httptest.NewServer(NewServer(query.NewStatic(tr), "golden-test"))
	t.Cleanup(srv.Close)

	// The direct render, through the same query pipeline the handler
	// uses.
	q, err := query.FromValues(url.Values{"mode": {"state"}})
	if err != nil {
		t.Fatal(err)
	}
	q.Window(tr.Span.Start, tr.Span.End)
	q.Size(300, 100).Heat(0, 0).Shades(10).Level(0)
	q.Labels(true)
	q.Rate(true)
	fb, _, err := query.TimelineOf(tr, q)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := fb.EncodePNG(&want); err != nil {
		t.Fatal(err)
	}

	resp, plain := get(t, srv, "/render?mode=state&w=300&h=100")
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("plain render: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(plain, want.Bytes()) {
		t.Fatal("plain render differs from direct render.Timeline output")
	}

	// The refined URL (level=0 plus the cache-busting _e) must not
	// fragment the cache: same bytes, served as a HIT of the same
	// entry.
	resp, refined := get(t, srv, "/render?mode=state&w=300&h=100&level=0&_e=42")
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Errorf("refined render X-Cache = %q, want HIT of the plain entry", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(refined, want.Bytes()) {
		t.Fatal("refined (level=0) response differs from direct render")
	}

	// The coarse first paint is a genuinely different (smaller) tile
	// under its own key.
	resp, coarse := get(t, srv, "/render?mode=state&w=300&h=100&level=3&_e=42")
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("coarse render: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if bytes.Equal(coarse, want.Bytes()) {
		t.Error("coarse (level=3) tile identical to exact tile; coarsening did nothing")
	}
}

package ui

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"

	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/topology"
	"github.com/openstream/aftermath/internal/trace"
)

// growingTraceReader exposes data[:limit] with io.EOF at the limit — a
// trace file that is still being written.
type growingTraceReader struct {
	data  []byte
	limit int
	off   int
}

func (g *growingTraceReader) Read(p []byte) (int, error) {
	if g.off >= g.limit {
		return 0, io.EOF
	}
	n := copy(p, g.data[g.off:g.limit])
	g.off += n
	return n, nil
}

// liveTraceBytes simulates a small seidel run and returns the raw
// trace bytes.
func liveTraceBytes(t testing.TB) []byte {
	t.Helper()
	prog, err := apps.BuildSeidel(apps.ScaledSeidelConfig(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := openstream.DefaultConfig(topology.Small(4, 4))
	cfg.Seed = 5
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if _, err := openstream.Run(prog, cfg, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// getLive decodes the /live JSON body.
func getLive(t *testing.T, srv *httptest.Server) liveResponse {
	t.Helper()
	resp, body := get(t, srv, "/live")
	if resp.StatusCode != 200 {
		t.Fatalf("/live status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/live content type %q", ct)
	}
	var lr liveResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatalf("/live body: %v", err)
	}
	return lr
}

// TestLiveEndpointStatus: /live reports ingest progress, with the
// epoch advancing as data is appended.
func TestLiveEndpointStatus(t *testing.T) {
	data := liveTraceBytes(t)
	g := &growingTraceReader{data: data, limit: len(data) / 2}
	sr := trace.NewStreamReader(g)
	lv := core.NewLive()
	if _, err := lv.Feed(sr); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(lv, "live-test"))
	t.Cleanup(srv.Close)

	lr := getLive(t, srv)
	if !lr.Live {
		t.Fatal("/live reports live=false for a live server")
	}
	if lr.Epoch != 1 {
		t.Fatalf("/live epoch = %d, want 1", lr.Epoch)
	}
	if lr.Events == 0 || lr.CPUs == 0 {
		t.Fatalf("/live reports no ingested data: %+v", lr)
	}

	g.limit = len(data)
	if n, err := lv.Feed(sr); err != nil || n == 0 {
		t.Fatalf("second feed = (%d, %v)", n, err)
	}
	lr2 := getLive(t, srv)
	if lr2.Epoch != 2 {
		t.Fatalf("/live epoch after append = %d, want 2", lr2.Epoch)
	}
	if lr2.Events <= lr.Events || lr2.End < lr.End {
		t.Fatalf("/live totals did not grow: %+v -> %+v", lr, lr2)
	}

	// The index page shows the live indicator.
	resp, body := get(t, srv, "/")
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte("live")) {
		t.Fatalf("index page missing live indicator (status %d)", resp.StatusCode)
	}
}

// TestAnomaliesLiveHubOneMemo: on a live hub the response cache is the
// one memo of an anomaly scan. Within an epoch a repeated /anomalies
// request is a HIT, after a publish the same request is a MISS, and
// every variant's body is the JSON built from query.AnomaliesOf — the
// library's and the CLI's scan — on the snapshot it was served from.
func TestAnomaliesLiveHubOneMemo(t *testing.T) {
	data := liveTraceBytes(t)
	g := &growingTraceReader{data: data, limit: len(data) / 2}
	sr := trace.NewStreamReader(g)
	lv := core.NewLive()
	if _, err := lv.Feed(sr); err != nil {
		t.Fatal(err)
	}
	hub := NewHub()
	if err := hub.Add("run", lv); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hub)
	t.Cleanup(srv.Close)

	first, _ := lv.Snapshot()
	t0 := first.Span.Start + first.Span.Duration()/4
	t1 := first.Span.Start + first.Span.Duration()/2
	// The endpoint's defaults: 50 findings over DefaultWindows windows.
	def := func() *query.Query { return query.New().Limit(50).AnomalyWindows(anomaly.DefaultWindows) }
	variants := []struct {
		params string
		q      *query.Query
	}{
		{"", def()},
		{"n=3", def().Limit(3)},
		{"kind=load-imbalance&n=10", def().AnomalyKind("load-imbalance").Limit(10)},
		{"minscore=0.5&windows=16", def().MinScore(0.5).AnomalyWindows(16)},
		{"t0=" + itoa64(t0) + "&t1=" + itoa64(t1) + "&kind=duration-outlier", def().Window(t0, t1).AnomalyKind("duration-outlier")},
	}
	findings := 0
	for epoch := uint64(1); epoch <= 2; epoch++ {
		snap, e := lv.Snapshot()
		if e != epoch {
			t.Fatalf("live trace at epoch %d, want %d", e, epoch)
		}
		for _, v := range variants {
			path := "/t/run/anomalies?" + v.params
			resp, body := get(t, srv, path)
			if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "MISS" {
				t.Fatalf("epoch %d %s: status %d, X-Cache %q, want a 200 MISS: %s", epoch, path, resp.StatusCode, resp.Header.Get("X-Cache"), body)
			}
			again, body2 := get(t, srv, path)
			if again.Header.Get("X-Cache") != "HIT" || !bytes.Equal(body, body2) {
				t.Errorf("epoch %d %s: repeat is X-Cache %q (same body %v), want a HIT of the same body", epoch, path, again.Header.Get("X-Cache"), bytes.Equal(body, body2))
			}
			want, n := anomaliesJSON(t, snap, v.q)
			findings += n
			if !bytes.Equal(body, want) {
				t.Errorf("epoch %d %s: body differs from query.AnomaliesOf:\n got %s\nwant %s", epoch, path, body, want)
			}
		}
		g.limit = len(data)
		if n, err := lv.Feed(sr); err != nil || (epoch == 1 && n == 0) {
			t.Fatalf("second feed = (%d, %v)", n, err)
		}
	}
	if findings == 0 {
		t.Fatal("precondition: no variant found an anomaly")
	}
}

// anomaliesJSON is the /anomalies body for q on tr, built from
// query.AnomaliesOf, and the number of findings in it.
func anomaliesJSON(t *testing.T, tr *core.Trace, q *query.Query) ([]byte, int) {
	t.Helper()
	found, err := query.AnomaliesOf(tr, q)
	if err != nil {
		t.Fatal(err)
	}
	start, end := query.WindowOf(tr, q)
	resp := anomaliesResponse{Start: start, End: end, Count: len(found), Anomalies: []anomalyItem{}}
	for _, a := range found {
		resp.Anomalies = append(resp.Anomalies, anomalyItem{
			Kind: a.Kind.String(), Score: a.Score, Start: a.Window.Start, End: a.Window.End,
			CPU: a.CPU, Task: uint64(a.TaskID), Counter: a.Counter, Explanation: a.Explanation,
		})
	}
	body, err := encodeJSON(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body, len(found)
}

// TestLiveEmptyTraceViewer: a live viewer registered before any data
// arrives (span still [0,0)) must serve its index and JSON endpoints,
// and the index's own self-generated t0=0&t1=0 links must not 400.
// The timeline image itself cannot exist for a zero-span trace — the
// renderer rejects the empty interval, exactly as before this layer
// existed — but that must come back as the structured error shape,
// and the page recovers on reload once the first records arrive.
func TestLiveEmptyTraceViewer(t *testing.T) {
	srv := httptest.NewServer(NewServer(core.NewLive(), "pre-data"))
	t.Cleanup(srv.Close)
	for _, path := range []string{"/", "/?mode=state&t0=0&t1=0", "/stats?t0=0&t1=0", "/anomalies?t0=0&t1=0&windows=16", "/live"} {
		resp, body := get(t, srv, path)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d on empty live trace: %s", path, resp.StatusCode, body)
		}
	}
	resp, body := get(t, srv, "/render?w=200&h=80&t0=0&t1=0")
	decodeError(t, "/render (empty span)", resp, body, 400)
	// And on a trace with data, the pre-data page's stale t0=0&t1=0
	// links resolve to the full span instead of a 400.
	full := newTestServer(t)
	for _, path := range []string{"/?mode=state&t0=0&t1=0", "/render?w=200&h=80&t0=0&t1=0", "/stats?t0=0&t1=0"} {
		resp, body := get(t, full, path)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d on loaded trace: %s", path, resp.StatusCode, body)
		}
	}
}

// TestLiveEndpointIngestError: a corrupted stream surfaces as a sticky
// error in /live, so pollers can tell a dead ingest from a quiet run;
// already-published snapshots keep serving.
func TestLiveEndpointIngestError(t *testing.T) {
	data := liveTraceBytes(t)
	// Find a record-aligned cut so the corruption lands on a frame
	// boundary (a mid-record cut would just buffer as a partial tail).
	probe := trace.NewStreamReader(&growingTraceReader{data: data, limit: len(data) / 2})
	if _, err := probe.Poll(func(*trace.RecordBatch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	cut := int(probe.Consumed())
	// Valid prefix followed by a frame claiming an absurd payload size.
	bad := append(append([]byte(nil), data[:cut]...), 0x02, 0xff, 0xff, 0xff, 0xff, 0x7f)
	sr := trace.NewStreamReader(bytes.NewReader(bad))
	lv := core.NewLive()
	if _, err := lv.Feed(sr); err == nil {
		t.Fatal("corrupted stream fed without error")
	}
	srv := httptest.NewServer(NewServer(lv, "live-err"))
	t.Cleanup(srv.Close)
	lr := getLive(t, srv)
	if lr.Error == "" {
		t.Fatal("/live does not report the sticky ingest error")
	}
	if lr.Epoch == 0 || lr.Events == 0 {
		t.Fatalf("valid prefix was not published before the error: %+v", lr)
	}
	if resp, _ := get(t, srv, "/stats"); resp.StatusCode != 200 {
		t.Fatalf("published snapshot no longer served: status %d", resp.StatusCode)
	}
}

// TestLiveEndpointStaticTrace: a static server answers /live with
// live=false at epoch 0.
func TestLiveEndpointStaticTrace(t *testing.T) {
	srv := newTestServer(t)
	lr := getLive(t, srv)
	if lr.Live {
		t.Fatal("/live reports live=true for a static trace")
	}
	if lr.Epoch != 0 {
		t.Fatalf("/live epoch = %d, want 0", lr.Epoch)
	}
	if lr.Tasks == 0 {
		t.Fatal("/live reports no tasks for a loaded trace")
	}
}

// TestLiveCacheEpochVersioning: cached endpoints follow the
// MISS → HIT → MISS-after-append lifecycle, because every cache key is
// versioned by the snapshot epoch.
func TestLiveCacheEpochVersioning(t *testing.T) {
	data := liveTraceBytes(t)
	g := &growingTraceReader{data: data, limit: len(data) / 2}
	sr := trace.NewStreamReader(g)
	lv := core.NewLive()
	if _, err := lv.Feed(sr); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(lv, "live-test"))
	t.Cleanup(srv.Close)

	paths := []string{
		"/anomalies?n=10&windows=16",
		"/render?mode=state&w=300&h=100&t0=0&t1=1000000",
		"/stats?t0=0&t1=1000000",
		"/plot?kind=idle&w=300&h=100",
	}
	for _, path := range paths {
		resp, body := get(t, srv, path)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
			t.Errorf("%s: first request X-Cache = %q, want MISS", path, xc)
		}
		resp, _ = get(t, srv, path)
		if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
			t.Errorf("%s: repeated request X-Cache = %q, want HIT", path, xc)
		}
	}

	// Append more data: the same URLs must re-render.
	g.limit = len(data)
	if n, err := lv.Feed(sr); err != nil || n == 0 {
		t.Fatalf("feed = (%d, %v)", n, err)
	}
	for _, path := range paths {
		resp, _ := get(t, srv, path)
		if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
			t.Errorf("%s: post-append request X-Cache = %q, want MISS", path, xc)
		}
		resp, _ = get(t, srv, path)
		if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
			t.Errorf("%s: post-append repeat X-Cache = %q, want HIT", path, xc)
		}
	}
}

package ui

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
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

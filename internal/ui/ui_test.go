package ui

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/trace"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	srv := httptest.NewServer(NewServer(query.NewStatic(tr), "seidel-test"))
	t.Cleanup(srv.Close)
	return srv
}

// get fetches path. An event stream does not end, so its body is left
// unread and the stream closed.
func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Type") == "text/event-stream" {
		return resp, nil
	}
	var buf strings.Builder
	b := make([]byte, 64*1024)
	for {
		n, err := resp.Body.Read(b)
		buf.Write(b[:n])
		if err != nil {
			break
		}
	}
	return resp, []byte(buf.String())
}

func TestIndexPage(t *testing.T) {
	srv := newTestServer(t)
	resp, body := get(t, srv, "/")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	s := string(body)
	// Links are relative so the same page works standalone and mounted
	// under a hub's /t/<name>/ prefix.
	for _, want := range []string{"seidel-test", "state", "heatmap", "numa-read", `src="render?mode=`} {
		if !strings.Contains(s, want) {
			t.Errorf("index missing %q", want)
		}
	}
	// Unknown path 404s.
	resp, _ = get(t, srv, "/nope")
	if resp.StatusCode != 404 {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
}

func TestRenderEndpointAllModes(t *testing.T) {
	srv := newTestServer(t)
	for _, mode := range []string{"state", "heatmap", "typemap", "numa-read", "numa-write", "numa-heat"} {
		resp, body := get(t, srv, "/render?mode="+mode+"&w=300&h=100")
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", mode, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
			t.Errorf("%s: content type %q", mode, ct)
		}
		if !strings.HasPrefix(string(body), "\x89PNG") {
			t.Errorf("%s: not a PNG", mode)
		}
	}
	resp, _ := get(t, srv, "/render?mode=bogus")
	if resp.StatusCode != 400 {
		t.Errorf("bogus mode status = %d", resp.StatusCode)
	}
}

func TestRenderWithFilterZoomAndOverlay(t *testing.T) {
	srv := newTestServer(t)
	resp, _ := get(t, srv, "/render?mode=heatmap&types=seidel_block&t0=0&t1=1000000&counter=cache_misses&rate=1")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestServerTiming: a tile, a statistics panel or a plot built on a
// miss says how long each of its stages took in a Server-Timing header;
// the same response served from the cache builds nothing and says
// nothing. The header costs the miss one allocation.
func TestServerTiming(t *testing.T) {
	srv := newTestServer(t)
	for _, c := range []struct {
		path   string
		stages []string
	}{
		{"/render?mode=state&w=600&h=200", []string{"raster", "encode"}},
		{"/stats?t0=1000&t1=900000", []string{"stats"}},
		{"/plot?kind=idle&n=50", []string{"series", "plot", "encode"}},
	} {
		resp, _ := get(t, srv, c.path)
		if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("%s: status %d, X-Cache %q", c.path, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		st := resp.Header.Get("Server-Timing")
		metrics := strings.Split(st, ", ")
		if len(metrics) != len(c.stages) {
			t.Fatalf("%s: Server-Timing %q: want the durations of %v", c.path, st, c.stages)
		}
		for i, name := range c.stages {
			dur, ok := strings.CutPrefix(metrics[i], name+";dur=")
			if ms, err := strconv.ParseFloat(dur, 64); !ok || err != nil || ms < 0 {
				t.Errorf("%s: Server-Timing %q: metric %d is not %s;dur=<ms>", c.path, st, i, name)
			}
		}
		resp, _ = get(t, srv, c.path)
		if resp.Header.Get("X-Cache") != "HIT" {
			t.Fatalf("%s: second request X-Cache %q, want HIT", c.path, resp.Header.Get("X-Cache"))
		}
		if st, ok := resp.Header["Server-Timing"]; ok {
			t.Errorf("%s: a HIT carries Server-Timing %q", c.path, st)
		}
	}
	h := http.Header{}
	stages := []stage{{"series", 1234 * time.Microsecond}, {"plot", 56 * time.Millisecond}, {"encode", 7 * time.Second}}
	if allocs := testing.AllocsPerRun(20, func() { setServerTiming(h, stages...) }); allocs > 1 {
		t.Errorf("setting Server-Timing allocates %.0f times, want 1", allocs)
	}
	if got, want := h.Get("Server-Timing"), "series;dur=1.234, plot;dur=56.000, encode;dur=7000.000"; got != want {
		t.Errorf("Server-Timing %q, want %q", got, want)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	resp, body := get(t, srv, "/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st map[string]interface{}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if st["tasks"].(float64) <= 0 {
		t.Error("no tasks in stats")
	}
	if st["avg_parallelism"].(float64) <= 0 {
		t.Error("no parallelism in stats")
	}
	sc := st["state_cycles"].(map[string]interface{})
	if sc["task_exec"].(float64) <= 0 {
		t.Error("no exec cycles")
	}
}

func TestTaskEndpoint(t *testing.T) {
	srv := newTestServer(t)
	// Find a valid task id via stats of the full window: use id 1.
	resp, body := get(t, srv, "/task?id=1")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var task map[string]interface{}
	if err := json.Unmarshal(body, &task); err != nil {
		t.Fatal(err)
	}
	if task["type"].(string) == "" {
		t.Error("task has no type")
	}
	if task["duration"].(float64) <= 0 {
		t.Error("task has no duration")
	}
	// Select by position: cpu+at of this task.
	at := int64(task["exec_start"].(float64))
	cpu := int(task["cpu"].(float64))
	resp, body = get(t, srv, "/task?cpu="+itoa(cpu)+"&at="+itoa64(at))
	if resp.StatusCode != 200 {
		t.Fatalf("by-position status %d: %s", resp.StatusCode, body)
	}
	resp, _ = get(t, srv, "/task?id=999999")
	if resp.StatusCode != 404 {
		t.Errorf("missing task status = %d", resp.StatusCode)
	}
	resp, _ = get(t, srv, "/task?id=abc")
	if resp.StatusCode != 400 {
		t.Errorf("bad id status = %d", resp.StatusCode)
	}
}

// TestTaskNeverExecuted: a task that was created but never ran — every
// task of a live trace between its creation and its execution — is
// answered with CPU and node -1 and no accesses, not a panic on
// node[-1].
func TestTaskNeverExecuted(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, err := range []error{
		w.WriteTopology(trace.Topology{Name: "two", NodeOfCPU: []int32{0, 1}, Distance: []int32{0, 1, 1, 0}, NumNodes: 2}),
		w.WriteTaskType(trace.TaskType{ID: 1, Name: "pending"}),
		w.WriteTask(trace.Task{ID: 7, Type: 1, Created: 100, CreatorCPU: 1}),
		w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateIdle, Start: 0, End: 1000}),
		w.Flush(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(query.NewStatic(tr), "pending-test"))
	t.Cleanup(srv.Close)
	resp, body := get(t, srv, "/task?id=7")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var task struct {
		CPU    int32 `json:"cpu"`
		Node   int32 `json:"node"`
		Reads  []any `json:"reads"`
		Writes []any `json:"writes"`
	}
	if err := json.Unmarshal(body, &task); err != nil {
		t.Fatal(err)
	}
	if task.CPU != -1 || task.Node != -1 || len(task.Reads)+len(task.Writes) != 0 {
		t.Errorf("never-executed task = %s, want cpu and node -1 and no accesses", body)
	}
}

func TestMatrixPlotAndDOT(t *testing.T) {
	srv := newTestServer(t)
	resp, body := get(t, srv, "/matrix")
	if resp.StatusCode != 200 || !strings.HasPrefix(string(body), "\x89PNG") {
		t.Errorf("matrix: status %d", resp.StatusCode)
	}
	for _, kind := range []string{"idle", "avgdur", "os_system_time_us"} {
		resp, _ = get(t, srv, "/plot?kind="+kind)
		if resp.StatusCode != 200 {
			t.Errorf("plot %s: status %d", kind, resp.StatusCode)
		}
	}
	resp, _ = get(t, srv, "/plot?kind=bogus")
	if resp.StatusCode != 400 {
		t.Errorf("bogus plot status = %d", resp.StatusCode)
	}
	resp, body = get(t, srv, "/graph.dot?max=50")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "digraph") {
		t.Errorf("graph.dot: status %d", resp.StatusCode)
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func itoa64(v int64) string { return strconv.FormatInt(v, 10) }

package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	aftermath "github.com/openstream/aftermath"
	"github.com/openstream/aftermath/internal/atmtest/oracle"
	"github.com/openstream/aftermath/internal/trace"
)

// TestHubNamesMixedDirectories: serving runs/a and runs/b with equal
// basenames must mount each trace under a deterministic directory-
// qualified name — not let whichever sorts first claim the bare name
// while the other gets an order-dependent numeric suffix.
func TestHubNamesMixedDirectories(t *testing.T) {
	paths := []string{
		"runs/a/trace.atm",
		"runs/b/trace.atm",
		"runs/b/other.atm.gz",
	}
	want := []string{"a-trace", "b-trace", "other"}
	if got := hubNames(paths); !reflect.DeepEqual(got, want) {
		t.Fatalf("hubNames(%v) = %v, want %v", paths, got, want)
	}
	// Reversed argument order maps the same paths to the same names.
	rev := []string{paths[2], paths[1], paths[0]}
	wantRev := []string{"other", "b-trace", "a-trace"}
	if got := hubNames(rev); !reflect.DeepEqual(got, wantRev) {
		t.Fatalf("hubNames(%v) = %v, want %v", rev, got, wantRev)
	}
}

// TestHubNamesLastResortSuffix: same basename AND same parent directory
// name still get unique (numeric) names.
func TestHubNamesLastResortSuffix(t *testing.T) {
	paths := []string{
		"x/runs/trace.atm",
		"y/runs/trace.atm",
	}
	got := hubNames(paths)
	if got[0] == got[1] {
		t.Fatalf("hubNames(%v) produced duplicate %q", paths, got[0])
	}
	for _, n := range got {
		if n == "" || n == "trace" {
			t.Fatalf("colliding basenames must all be qualified, got %v", got)
		}
	}
}

// TestHubNamesUnroutable: names the hub would reject are mapped away.
func TestHubNamesUnroutable(t *testing.T) {
	got := hubNames([]string{"runs/..atm", "we?ird.atm"})
	if got[0] != "trace" {
		t.Fatalf("dot-named trace maps to %q, want %q", got[0], "trace")
	}
	if got[1] != "we-ird" {
		t.Fatalf("query-char trace maps to %q, want %q", got[1], "we-ird")
	}
}

// nativeTraceBytes writes a minimal complete native trace for tests
// that need real sniffable content.
func nativeTraceBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(trace.Topology{
		Name: "test", NumNodes: 1,
		NodeOfCPU: []int32{0, 0},
		Distance:  []int32{0},
	}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Name: "work"}))
	must(w.WriteTask(trace.Task{ID: 10, Type: 1, Created: 5, CreatorCPU: 0}))
	must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Start: 100, End: 300, Task: 10}))
	must(w.Flush())
	return buf.Bytes()
}

func gzipped(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const spanFixture = "../../internal/ingest/otlp/testdata/spans.jsonl"

// TestExpandTraceArgsMixed: directories expand sorted and recognize
// members by content, not extension; files the sniffers reject are
// skipped; explicit file arguments pass through.
func TestExpandTraceArgsMixed(t *testing.T) {
	dir := t.TempDir()
	spanData, err := os.ReadFile(spanFixture)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"b.atm":     nativeTraceBytes(t),
		"a.atm.gz":  gzipped(t, nativeTraceBytes(t)),
		"s.jsonl":   spanData,
		"snap.blob": []byte("ATMSTOR1 head only, detection does not load it"),
		"notes.txt": []byte("not a trace\n"),
		"empty":     nil,
	}
	for n, data := range files {
		if err := os.WriteFile(filepath.Join(dir, n), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lone := filepath.Join(dir, "b.atm")
	got, err := expandTraceArgs([]string{dir, lone})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, "a.atm.gz"),
		filepath.Join(dir, "b.atm"),
		filepath.Join(dir, "s.jsonl"),
		filepath.Join(dir, "snap.blob"),
		lone,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expandTraceArgs = %v, want %v", got, want)
	}
}

// TestBuildHubMixedDirectory: -serve on a directory holding a native
// trace, a gzip-compressed trace, a store snapshot and an imported
// span stream mounts all four, and the imported trace answers
// /anomalies with ranked findings — the importer feeds the analysis
// stack with no special-casing downstream.
func TestBuildHubMixedDirectory(t *testing.T) {
	dir := t.TempDir()
	native := nativeTraceBytes(t)
	spanData, err := os.ReadFile(spanFixture)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("run.atm", native)
	write("run-gz.atm.gz", gzipped(t, native))
	write("spans.jsonl", spanData)
	tr, err := aftermath.OpenReader(bytes.NewReader(native))
	if err != nil {
		t.Fatal(err)
	}
	if err := aftermath.SaveSnapshot(tr, filepath.Join(dir, "snap.store")); err != nil {
		t.Fatal(err)
	}

	paths, err := expandTraceArgs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("expanded %d paths, want 4: %v", len(paths), paths)
	}
	hub, err := buildHub(paths, hubNames(paths), runOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	srv := httptest.NewServer(hub)
	defer srv.Close()

	for _, name := range []string{"run", "run-gz", "snap", "spans"} {
		resp, err := http.Get(srv.URL + "/t/" + name + "/live")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/t/%s/live = %d, want 200", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/t/spans/anomalies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/t/spans/anomalies = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "duration-outlier") {
		t.Fatalf("anomalies response lacks the planted duration outlier: %s", body)
	}
}

// TestOpenTraceImportReport: opening a span file through the CLI helper
// surfaces the inference report; native traces surface none.
func TestOpenTraceImportReport(t *testing.T) {
	dir := t.TempDir()
	spanData, err := os.ReadFile(spanFixture)
	if err != nil {
		t.Fatal(err)
	}
	spanPath := filepath.Join(dir, "spans.data")
	if err := os.WriteFile(spanPath, spanData, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := openTrace(spanPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Spans != 60 || len(rep.Services) != 3 {
		t.Fatalf("import report = %+v, want 60 spans over 3 services", rep)
	}

	nativePath := filepath.Join(dir, "run.atm")
	if err := os.WriteFile(nativePath, nativeTraceBytes(t), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err = openTrace(nativePath)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("native open produced an import report: %+v", rep)
	}
}

// TestServerDropsStalledHeadersKeepsEventStreams: the server every
// serve mode listens with disconnects a client that stalls half way
// through its request line once the header timeout passes, while an
// /events stream opened before — headers long sent, response never
// finished — stays open past the same timeout and still delivers the
// next epoch. That is the reason the helper bounds header reads only
// and sets no whole-exchange timeout.
func TestServerDropsStalledHeadersKeepsEventStreams(t *testing.T) {
	lv := aftermath.NewLiveTrace()
	t.Cleanup(func() { lv.Close() })
	if _, err := lv.Feed(trace.NewStreamReader(bytes.NewReader(nativeTraceBytes(t)))); err != nil {
		t.Fatal(err)
	}
	srv := newServer("", aftermath.NewViewer(lv, "serve-test"))
	if srv.ReadHeaderTimeout != serveHeaderTimeout || srv.IdleTimeout != serveIdleTimeout ||
		srv.MaxHeaderBytes != serveMaxHeaderBytes || serveHeaderTimeout <= 0 {
		t.Fatalf("server limits not taken from the constants: %+v", srv)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("whole-exchange timeouts set (read %v, write %v): /events streams would be cut", srv.ReadTimeout, srv.WriteTimeout)
	}
	// Same server, header timeout shrunk so the test can wait it out.
	const headerTimeout = 150 * time.Millisecond
	srv.ReadHeaderTimeout = headerTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-served
	})

	resp, err := http.Get("http://" + ln.Addr().String() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events = %d", resp.StatusCode)
	}
	epochs := make(chan string, 16) // closed when the stream ends
	go func() {
		defer close(epochs)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if id, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
				epochs <- id
			}
		}
	}()
	nextEpoch := func(want string) {
		t.Helper()
		select {
		case id, ok := <-epochs:
			if !ok {
				t.Fatalf("/events stream closed waiting for epoch %s", want)
			}
			if id != want {
				t.Fatalf("/events delivered epoch %s, want %s", id, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout waiting for epoch %s on /events", want)
		}
	}
	nextEpoch("1")

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /render?mode=st"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(5 * time.Second))
	// Reading to EOF returns once the server hangs up (it may say 408
	// first); only the read deadline means it never did.
	reply, err := io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("half a request line still connected %v after a %v header timeout", time.Since(start), headerTimeout)
	}
	if bytes.HasPrefix(reply, []byte("HTTP/1.1 2")) {
		t.Fatalf("half a request line was served: %q", reply)
	}
	if waited := time.Since(start); waited < headerTimeout {
		t.Fatalf("stalled client dropped after %v, before the %v header timeout", waited, headerTimeout)
	}

	// The stream is now older than the header timeout; it must still
	// be delivering.
	if err := lv.Append(&trace.RecordBatch{States: []trace.StateEvent{
		{CPU: 1, State: trace.StateIdle, Start: 300, End: 400},
	}}); err != nil {
		t.Fatal(err)
	}
	lv.Publish()
	nextEpoch("2")
}

// TestRunLocalityCoversSpanEnd is the span-end wrap regression of the
// summary: its NUMA locality read [Span.Start, Span.End+1), an empty
// window once the span ends at MaxInt64. CPU 0 (node 0) reads 64 bytes
// homed on node 0 at time 10; CPU 1 (node 1) writes 64 bytes there at
// MaxInt64, the end of its task: half the bytes are node-local.
func TestRunLocalityCoversSpanEnd(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(trace.Topology{
		Name: "test", NumNodes: 2,
		NodeOfCPU: []int32{0, 1},
		Distance:  []int32{10, 20, 20, 10},
	}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Name: "work"}))
	must(w.WriteTask(trace.Task{ID: 1, Type: 1}))
	must(w.WriteTask(trace.Task{ID: 2, Type: 1}))
	must(w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x1000, Size: 64, Node: 0}))
	must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Start: 0, End: 100, Task: 1}))
	must(w.WriteComm(trace.CommEvent{Kind: trace.CommRead, CPU: 0, SrcCPU: -1, Time: 10, Task: 1, Addr: 0x1000, Size: 64}))
	must(w.WriteState(trace.StateEvent{CPU: 1, State: trace.StateTaskExec, Start: 200, End: math.MaxInt64, Task: 2}))
	must(w.WriteComm(trace.CommEvent{Kind: trace.CommWrite, CPU: 1, SrcCPU: -1, Time: math.MaxInt64, Task: 2, Addr: 0x1000, Size: 64}))
	must(w.Flush())
	path := filepath.Join(t.TempDir(), "end.atm")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	r, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = pw
	runErr := run(path, runOptions{width: 40, rows: 2})
	os.Stdout = stdout
	pw.Close()
	summary := string(<-out)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if want := "NUMA locality: 50.0% of accessed bytes are node-local"; !strings.Contains(summary, want) {
		t.Fatalf("summary lacks %q:\n%s", want, summary)
	}
}

// TestRunWideSpan: the summary of a trace whose span is wider than
// 2^63-1 cycles (oracle.Gen(6): the first CPU's states near MinInt64,
// the others' near MaxInt64) prints the span over the unsigned width
// and an empty ASCII timeline, where it printed a negative span and
// then panicked in the timeline's pixel mapping.
func TestRunWideSpan(t *testing.T) {
	data, _ := oracle.Gen(6)
	path := filepath.Join(t.TempDir(), "wide.atm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = pw
	runErr := run(path, runOptions{width: 40, rows: 2})
	os.Stdout = stdout
	pw.Close()
	summary := string(<-out)
	if runErr != nil {
		t.Fatal(runErr)
	}
	var gcycles, par float64
	for _, l := range strings.Split(summary, "\n") {
		fmt.Sscanf(l, "span: %f Gcycles", &gcycles)
		fmt.Sscanf(l, "parallelism: %f average", &par)
	}
	if gcycles < math.MaxInt64/1e9 || par < 0 {
		t.Errorf("span %v Gcycles and parallelism %v, want more than 2^63-1 cycles and no negative average:\n%s", gcycles, par, summary)
	}
	_, timeline, _ := strings.Cut(summary, "timeline (")
	if _, rows, _ := strings.Cut(timeline, "\n"); strings.ContainsAny(rows, "#.") {
		t.Errorf("a timeline was drawn over a span no column maps to:\n%s", summary)
	}
}

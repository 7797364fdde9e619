package core_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/export"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/trace"
	"github.com/openstream/aftermath/internal/ui"
)

// writeTrace returns the native trace write produces.
func writeTrace(t testing.TB, write func(w *trace.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := write(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// opens are the three ways to a trace of a stream: a batch load, a
// live feed drained and published, and a store file saved from a batch
// load and mapped back. Each returns what it keeps alive first: the
// Live of the live open.
var opens = []struct {
	name string
	open func(t testing.TB, data []byte) (any, *core.Trace)
}{
	{"batch", func(t testing.TB, data []byte) (any, *core.Trace) {
		tr, err := core.FromReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return tr, tr
	}},
	{"live", func(t testing.TB, data []byte) (any, *core.Trace) {
		lv := core.NewLive()
		if _, err := lv.Feed(trace.NewStreamReader(bytes.NewReader(data))); err != nil {
			t.Fatal(err)
		}
		tr, _ := lv.Snapshot()
		return lv, tr
	}},
	{"store", func(t testing.TB, data []byte) (any, *core.Trace) {
		tr, err := core.FromReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "far.atms")
		if err := core.SaveStore(tr, path); err != nil {
			t.Fatal(err)
		}
		st, err := core.OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st, st
	}},
}

// heapAfterGC returns the live heap after two collections: the second
// frees what waited on a finalizer in the first.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocated returns the bytes f allocates and how long it takes.
func allocated(f func()) (uint64, time.Duration) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, took
}

// TestFarCPUIDs is the gate on a trace of two idle states, on CPU 0 and
// on CPU MaxCPUID: every way of opening it keeps two rows and costs
// what the two CPUs hold, not what the largest id would size, and so
// does every cached verb served from it. The wall-clock bound holds
// only without the race detector, whose instrumentation multiplies it.
func TestFarCPUIDs(t *testing.T) {
	const far = trace.MaxCPUID
	data := writeTrace(t, func(w *trace.Writer) error {
		if err := w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateIdle, Start: 0, End: 10}); err != nil {
			return err
		}
		return w.WriteState(trace.StateEvent{CPU: far, State: trace.StateIdle, Start: 0, End: 10})
	})
	const (
		maxRetained = 1 << 20
		maxServed   = 10 << 20
		maxTook     = 50 * time.Millisecond
	)
	verbs := []string{"/stats", "/matrix", "/plot?kind=idle", "/plot?kind=avgdur", "/anomalies",
		fmt.Sprintf("/task?cpu=%d&at=5", far)}
	for _, m := range []string{"state", "heatmap", "typemap", "numa-read", "numa-write", "numa-heat"} {
		verbs = append(verbs, "/render?mode="+m)
	}
	for _, o := range opens {
		t.Run(o.name, func(t *testing.T) {
			before := heapAfterGC()
			keep, tr := o.open(t, data)
			if kept := int64(heapAfterGC()) - int64(before); kept > maxRetained {
				t.Errorf("the open retains %d bytes, over %d", kept, maxRetained)
			}
			runtime.KeepAlive(keep)
			if tr.NumCPUs() != 2 || tr.CPUs[1].ID != far {
				t.Fatalf("%d rows, want CPU 0 and CPU %d", tr.NumCPUs(), far)
			}

			srv := ui.NewServer(query.NewStatic(tr), "far")
			for _, path := range verbs {
				rec := httptest.NewRecorder()
				alloc, took := allocated(func() { srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil)) })
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					t.Errorf("GET %s: %d %s", path, rec.Code, rec.Body)
				}
				if alloc > maxServed {
					t.Errorf("GET %s allocated %d bytes, over %d", path, alloc, maxServed)
				}
				if !core.RaceEnabled && took > maxTook {
					t.Errorf("GET %s took %v, over %v", path, took, maxTook)
				}
			}

			var fb *render.Framebuffer
			alloc, took := allocated(func() {
				var err error
				if fb, _, err = query.TimelineOf(tr, query.New().CPUs(far).Size(200, 40).Labels(false)); err != nil {
					t.Fatal(err)
				}
			})
			if alloc > maxServed || !core.RaceEnabled && took > maxTook {
				t.Errorf("the far CPU's timeline allocated %d bytes in %v", alloc, took)
			}
			if got, want := fb.At(100, 10), render.StateColor(trace.StateIdle); got != want {
				t.Errorf("the far CPU's row is %v mid-span, want the idle colour %v", got, want)
			}
		})
	}

	// A one-record publish extends the far CPU's row and nothing else.
	lv := core.NewLive()
	if _, err := lv.Feed(trace.NewStreamReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	alloc, _ := allocated(func() {
		if err := lv.Append(&trace.RecordBatch{States: []trace.StateEvent{{CPU: far, State: trace.StateIdle, Start: 10, End: 20}}}); err != nil {
			t.Fatal(err)
		}
		lv.Publish()
	})
	if alloc > maxRetained {
		t.Errorf("a one-record publish allocated %d bytes, over %d", alloc, maxRetained)
	}
}

// labelTraces are two traces whose CPU ids are not their rows: CPUs 0,
// 5 and MaxCPUID without a topology record, and a 4-CPU topology plus
// CPU 1000. On each, the other CPUs execute a task over the whole span,
// and the far CPU idles most of it, then executes a task that reads and
// writes a region, beside a counter's samples — so the imbalance
// detector blames it.
func labelTraces(t testing.TB) map[int32][]byte {
	build := func(topo *trace.Topology, near []int32, far int32) []byte {
		return writeTrace(t, func(w *trace.Writer) error {
			var err error
			do := func(e error) {
				if err == nil {
					err = e
				}
			}
			if topo != nil {
				do(w.WriteTopology(*topo))
			}
			do(w.WriteTaskType(trace.TaskType{ID: 1, Name: "work"}))
			do(w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x1000, Size: 4096, Node: 0}))
			do(w.WriteCounterDesc(trace.CounterDesc{ID: 1, Name: "ctr", Monotonic: true}))
			for i, cpu := range near {
				do(w.WriteTask(trace.Task{ID: trace.TaskID(i + 1), Type: 1, CreatorCPU: cpu}))
				do(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateTaskExec, Start: 0, End: 1000, Task: trace.TaskID(i + 1)}))
			}
			task := trace.TaskID(len(near) + 1)
			do(w.WriteTask(trace.Task{ID: task, Type: 1, CreatorCPU: near[0]}))
			do(w.WriteState(trace.StateEvent{CPU: far, State: trace.StateIdle, Start: 0, End: 900}))
			do(w.WriteState(trace.StateEvent{CPU: far, State: trace.StateTaskExec, Start: 900, End: 1000, Task: task}))
			do(w.WriteComm(trace.CommEvent{Kind: trace.CommRead, CPU: far, SrcCPU: -1, Time: 900, Task: task, Addr: 0x1000, Size: 64}))
			do(w.WriteComm(trace.CommEvent{Kind: trace.CommWrite, CPU: far, SrcCPU: -1, Time: 1000, Task: task, Addr: 0x1040, Size: 32}))
			for i, v := range []int64{0, 10, 1000} {
				do(w.WriteSample(trace.CounterSample{CPU: far, Counter: 1, Time: int64(i) * 500, Value: v}))
			}
			return err
		})
	}
	four := trace.Topology{Name: "four", NumNodes: 2, NodeOfCPU: []int32{0, 0, 1, 1}, Distance: []int32{0, 1, 1, 0}}
	return map[int32][]byte{
		trace.MaxCPUID: build(nil, []int32{0, 5}, trace.MaxCPUID),
		1000:           build(&four, []int32{0, 1, 2, 3}, 1000),
	}
}

// TestCPULabels: a CPU is a row inside the process and its id outside
// it. Batch, live and store-opened loads of traces whose ids are not
// their rows agree; every CPU number that leaves — /task's and
// /anomalies' cpu, the CSV export, the timeline's row labels — is the
// producer's id; and Query.CPUs, TimelineConfig.CPUs and /task's cpu=
// select by id.
func TestCPULabels(t *testing.T) {
	for far, data := range labelTraces(t) {
		var want *core.Trace
		for _, o := range opens {
			ctx := fmt.Sprintf("CPU %d, %s", far, o.name)
			_, tr := o.open(t, data)
			if want == nil {
				want = tr
			} else {
				core.EqualTraces(t, want, tr, ctx)
			}
			row := tr.RowOf(far)
			if row != int32(tr.NumCPUs()-1) || tr.CPUs[row].ID != far {
				t.Fatalf("%s: CPU %d is row %d of %d", ctx, far, row, tr.NumCPUs())
			}
			task := &tr.Tasks[len(tr.Tasks)-1]
			if task.ExecCPU != far {
				t.Fatalf("%s: the far task ran on CPU %d", ctx, task.ExecCPU)
			}
			checkServedLabels(t, ctx, tr, far, task.ID)

			// The CSV export names the producer's id.
			c, _ := tr.CounterByName("ctr")
			var buf bytes.Buffer
			if err := export.TasksCSV(&buf, tr, nil, []*core.Counter{c}); err != nil {
				t.Fatal(err)
			}
			rows, err := csv.NewReader(&buf).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			last := rows[len(rows)-1]
			if last[0] != strconv.FormatUint(uint64(task.ID), 10) || last[2] != strconv.Itoa(int(far)) || last[8] != "990" {
				t.Errorf("%s: CSV row %v, want task %d on CPU %d with a counter delta of 990", ctx, last, task.ID, far)
			}

			// Row labels are ids, with and without a selection by id.
			for _, cpus := range [][]int32{nil, {far, 0}} {
				fb, _, err := render.Timeline(tr, render.TimelineConfig{Width: 200, Height: 20 * max(len(cpus), tr.NumCPUs()), Mode: render.ModeState, Labels: true, CPUs: cpus})
				if err != nil {
					t.Fatal(err)
				}
				labels := cpus
				if labels == nil {
					for r := range tr.CPUs {
						labels = append(labels, tr.CPUs[r].ID)
					}
				}
				rowH := fb.H() / len(labels)
				for r, id := range labels {
					if !labelled(fb, r*rowH, rowH, fmt.Sprintf("CPU %d", id)) {
						t.Errorf("%s: row %d of the timeline over %v is not labelled CPU %d", ctx, r, cpus, id)
					}
				}
				if cpus != nil && fb.At(fb.W()-2, 10) != render.StateColor(trace.StateTaskExec) {
					t.Errorf("%s: the first row selected by id %d does not show its task at the end", ctx, far)
				}
			}
			fb, _, err := query.TimelineOf(tr, query.New().CPUs(far).Size(200, 20).Labels(false))
			if err != nil {
				t.Fatal(err)
			}
			if got := fb.At(50, 10); got != render.StateColor(trace.StateIdle) {
				t.Errorf("%s: Query.CPUs(%d) drew %v before its task, want idle", ctx, far, got)
			}
		}
	}
}

// labelled reports whether the label gutter of the timeline row at y,
// rowH high, shows text and nothing else.
func labelled(fb *render.Framebuffer, y, rowH int, text string) bool {
	ref := render.NewFramebuffer(fb.W(), fb.H())
	// The renderer centres a label in its row, or tops it in a row
	// shorter than the font.
	ref.DrawText(0, y+max((rowH-render.GlyphHeight)/2+1, 0), text, render.TextColor)
	for yy := y; yy < y+rowH; yy++ {
		for x := 0; x < render.TextWidth("CPU 000 "); x++ {
			if fb.At(x, yy) != ref.At(x, yy) {
				return false
			}
		}
	}
	return true
}

// checkServedLabels checks the CPU numbers /task and /anomalies serve.
func checkServedLabels(t *testing.T, ctx string, tr *core.Trace, far int32, task trace.TaskID) {
	t.Helper()
	srv := ui.NewServer(query.NewStatic(tr), "labels")
	var got struct {
		ID  uint64 `json:"id"`
		CPU int32  `json:"cpu"`
	}
	for _, path := range []string{fmt.Sprintf("/task?id=%d", task), fmt.Sprintf("/task?cpu=%d&at=950", far)} {
		if err := json.Unmarshal(get(t, srv, path), &got); err != nil {
			t.Fatal(err)
		}
		if got.ID != uint64(task) || got.CPU != far {
			t.Errorf("%s: GET %s answered task %d on CPU %d, want task %d on CPU %d", ctx, path, got.ID, got.CPU, task, far)
		}
	}
	var found struct {
		Anomalies []struct {
			Kind string `json:"kind"`
			CPU  int32  `json:"cpu"`
		} `json:"anomalies"`
	}
	if err := json.Unmarshal(get(t, srv, "/anomalies"), &found); err != nil {
		t.Fatal(err)
	}
	blamed := false
	for _, a := range found.Anomalies {
		if a.CPU != -1 && tr.RowOf(a.CPU) < 0 {
			t.Errorf("%s: /anomalies names CPU %d, which the trace does not hold", ctx, a.CPU)
		}
		blamed = blamed || a.Kind == "load-imbalance" && a.CPU == far
	}
	if !blamed {
		t.Errorf("%s: /anomalies %+v blames no imbalance on CPU %d", ctx, found.Anomalies, far)
	}
}

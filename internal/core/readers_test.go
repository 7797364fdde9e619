package core_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/trace"
	"github.com/openstream/aftermath/internal/ui"
)

// get serves one GET and fails the test unless it answers 200.
func get(t testing.TB, srv http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// accessCount returns the reads and writes on tr's CPUs in [t0, t1).
func accessCount(tr *core.Trace, t0, t1 trace.Time) (n int64) {
	for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
		for _, ev := range tr.CommIn(cpu, t0, t1) {
			if ev.Kind == trace.CommRead || ev.Kind == trace.CommWrite {
				n++
			}
		}
	}
	return n
}

// TestRegionSearches counts the accesses resolved through the region
// table. A batch load resolves none at load; its home-node column's
// build resolves each of the trace's accesses exactly once; after it,
// /stats, /matrix, a numa-heat tile, /anomalies and /task resolve none.
// A live snapshot keeps no column: its /stats resolves each access of
// the window.
func TestRegionSearches(t *testing.T) {
	c := core.GenHomeCase(rand.New(rand.NewSource(7)), 3, []int{400, 250, 31, 0})
	batch, err := core.FromReader(bytes.NewReader(c.Stream(t)))
	if err != nil {
		t.Fatal(err)
	}
	if got := batch.Searched(); got != 0 {
		t.Fatalf("the load resolved %d accesses", got)
	}
	all := accessCount(batch, math.MinInt64, math.MaxInt64)
	row := make([]int64, 2*batch.NumNodes())
	for cpu := int32(0); int(cpu) < batch.NumCPUs(); cpu++ {
		batch.HomeBytes(cpu, math.MinInt64, math.MaxInt64, row)
	}
	if got := batch.Searched(); got != all {
		t.Fatalf("the column build resolved %d accesses, the trace holds %d", got, all)
	}

	task := -1
	for i := 0; i < len(batch.Tasks) && task < 0; i++ {
		for _, ev := range batch.TaskAccesses(&batch.Tasks[i]).Events {
			if ev.Task == batch.Tasks[i].ID {
				task = i
				break
			}
		}
	}
	if task < 0 {
		t.Fatal("precondition: no task has accesses")
	}
	srv := ui.NewServer(query.NewStatic(batch), "batch")
	for _, path := range []string{
		"/stats", "/matrix", "/render?mode=numa-heat&w=300&h=80", "/anomalies",
		fmt.Sprintf("/task?id=%d", batch.Tasks[task].ID),
	} {
		get(t, srv, path)
		if got := batch.Searched(); got != all {
			t.Errorf("GET %s on the batch trace resolved %d accesses through the region table", path, got-all)
			all = got
		}
	}

	lv, live := c.Live(t)
	defer lv.Close()
	t0 := live.Span.Start + (live.Span.End-live.Span.Start)/4
	t1 := live.Span.End - (live.Span.End-live.Span.Start)/4
	want := accessCount(live, t0, t1)
	before := live.Searched()
	get(t, ui.NewServer(query.NewStatic(live), "live"), fmt.Sprintf("/stats?t0=%d&t1=%d", t0, t1))
	if got := live.Searched() - before; got != want || want == 0 {
		t.Errorf("/stats on a live snapshot resolved %d accesses, its window holds %d", got, want)
	}
}

// homesOf lists the homes Accesses yields.
func homesOf(a core.Accesses) []int32 {
	var out []int32
	for _, home := range a.Homes() {
		out = append(out, home)
	}
	return out
}

// checkReaders holds every reader of the home-node column on batch to
// the same reader on live, its twin, which searches the region table:
// each access's home, HomeBytes, TaskHomes, numa-heat pixels, the NUMA
// detector's per-task scores, rnodes=/wnodes= matches and /task's
// access list, over the whole axis and over [t0, t1).
func checkReaders(t *testing.T, batch, live *core.Trace, t0, t1 trace.Time) {
	t.Helper()
	if batch.Span != live.Span || len(batch.Tasks) != len(live.Tasks) || batch.NumCPUs() != live.NumCPUs() {
		t.Fatalf("precondition: the live twin differs: span %v, %d CPUs, %d tasks; batch span %v, %d CPUs, %d tasks",
			live.Span, live.NumCPUs(), len(live.Tasks), batch.Span, batch.NumCPUs(), len(batch.Tasks))
	}
	n := batch.NumNodes()
	for cpu := int32(0); int(cpu) < batch.NumCPUs(); cpu++ {
		for _, w := range [][2]trace.Time{{math.MinInt64, math.MaxInt64}, {t0, t1}} {
			got, want := homesOf(batch.AccessesIn(cpu, w[0], w[1])), homesOf(live.AccessesIn(cpu, w[0], w[1]))
			if !slices.Equal(got, want) {
				t.Fatalf("cpu %d [%d, %d): homes %v, the search's %v", cpu, w[0], w[1], got, want)
			}
			for _, h := range got {
				if h < -1 || int(h) >= n {
					t.Fatalf("cpu %d: home %d outside [-1, %d)", cpu, h, n)
				}
			}
			gotRow, wantRow := make([]int64, 2*n), make([]int64, 2*n)
			batch.HomeBytes(cpu, w[0], w[1], gotRow)
			live.HomeBytes(cpu, w[0], w[1], wantRow)
			if !slices.Equal(gotRow, wantRow) {
				t.Fatalf("cpu %d [%d, %d): HomeBytes %v, the search's %v", cpu, w[0], w[1], gotRow, wantRow)
			}
		}
	}

	nodeFilters := []*filter.TaskFilter{nil}
	for _, node := range []int32{-1, 0, 1, int32(n) - 1, int32(n)} {
		nodeFilters = append(nodeFilters,
			&filter.TaskFilter{ReadNodes: []int32{node}},
			&filter.TaskFilter{WriteNodes: []int32{node}},
			&filter.TaskFilter{ReadNodes: []int32{node}, WriteNodes: []int32{int32(n) - 1 - node}})
	}
	bs, ls := ui.NewServer(query.NewStatic(batch), "batch"), ui.NewServer(query.NewStatic(live), "live")
	for i := range batch.Tasks {
		bt := &batch.Tasks[i]
		lt, ok := live.TaskByID(bt.ID)
		if !ok {
			t.Fatalf("precondition: task %d is not on the live twin", bt.ID)
		}
		if got, want := batch.TaskHomes(bt.ID), live.TaskHomes(bt.ID); got != want {
			t.Fatalf("task %d: TaskHomes %+v, the search's %+v", bt.ID, got, want)
		}
		for _, f := range nodeFilters[1:] {
			if got, want := f.Match(batch, bt), f.Match(live, lt); got != want {
				t.Fatalf("task %d: filter %+v matches %v, on the search %v", bt.ID, *f, got, want)
			}
		}
		path := fmt.Sprintf("/task?id=%d", bt.ID)
		if got, want := get(t, bs, path), get(t, ls, path); !bytes.Equal(got, want) {
			t.Fatalf("%s: %s\nthe search's: %s", path, got, want)
		}
	}

	for _, w := range [][2]trace.Time{{0, 0}, {t0, t1}} {
		if w[0] >= w[1] && w != [2]trace.Time{} {
			continue
		}
		for _, f := range nodeFilters[:3] {
			cfg := render.TimelineConfig{Width: 173, Height: 24 * max(batch.NumCPUs(), 1), Start: w[0], End: w[1], Mode: render.ModeNUMAHeat, Filter: f}
			got, _, gerr := render.Timeline(batch, cfg)
			want, _, werr := render.Timeline(live, cfg)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("numa-heat [%d, %d): error %v, the search's %v", w[0], w[1], gerr, werr)
			}
			if gerr == nil && !bytes.Equal(got.RGBA().Pix, want.RGBA().Pix) {
				t.Fatalf("numa-heat [%d, %d) filter %+v: the pixels differ from the search's", w[0], w[1], f)
			}
		}
	}

	cfg := anomaly.Config{MinScore: math.SmallestNonzeroFloat64, MaxPerKind: -1, Workers: 1}
	if got, want := anomaly.ScanWith(batch, cfg, anomaly.NUMADetector{}), anomaly.ScanWith(live, cfg, anomaly.NUMADetector{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("NUMA detector: %v\nthe search's: %v", got, want)
	}
}

// FuzzHomeBytes: whatever the column's shape, the node count, the region
// table and the window, the sums answer what the scan answers and
// nothing panics; every task's TaskHomes, from rows and on a live
// snapshot from the search, is the reference's; and every reader of the
// home-node column on the batch load answers what it answers on the
// live twin, which searches the region table (checkReaders). The window
// is given as two event positions and nudged by up to one cycle, so the
// fuzzer steers it onto checkpoint rows; the seeds sit on every boundary
// the property test names, and on the largest topology the column holds
// (128 nodes) and the smallest it does not.
func FuzzHomeBytes(f *testing.F) {
	for _, length := range []uint16{0, 1, 7, 8, 9, 16, 17, 40} { // one node: stride 8
		for _, w := range [][2]uint16{{0, length}, {7, 9}, {8, 16}, {9, 15}, {1, 17}, {16, 8}} {
			f.Add(int64(length), uint8(1), length, w[0], w[1], uint8(0))
		}
	}
	f.Add(int64(3), uint8(3), uint16(100), uint16(31), uint16(65), uint8(5))     // three nodes: stride 32
	f.Add(int64(4), uint8(0), uint16(20), uint16(0), uint16(20), uint8(0))       // no node at all
	f.Add(int64(5), uint8(128), uint16(1500), uint16(0), uint16(1400), uint8(4)) // stride 1024
	f.Add(int64(6), uint8(129), uint16(1500), uint16(3), uint16(1300), uint8(0)) // no column
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, length, lo, hi uint16, nudge uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := core.GenHomeCase(rng, int(nodes), []int{int(length % 2048)})
		col := c.Column(0)
		at := func(i uint16) trace.Time {
			if len(col) == 0 {
				return trace.Time(i)
			}
			return col[min(int(i), len(col)-1)].Time
		}
		t0, t1 := at(lo)+trace.Time(nudge%3)-1, at(hi)+trace.Time(nudge/3%3)-1
		batch, err := core.FromReader(bytes.NewReader(c.Stream(t)))
		if err != nil {
			t.Fatal(err)
		}
		core.CheckHomeWindow(t, "cold", batch, 0, col, t0, t1)
		core.CheckHomeWindow(t, "whole axis", batch, 0, col, math.MinInt64, math.MaxInt64)
		core.CheckHomeWindow(t, "warm", batch, 0, col, t0, t1)
		core.CheckTaskHomes(t, "rows", batch)
		lv, live := c.Live(t)
		defer lv.Close()
		core.CheckHomeWindow(t, "live", live, 0, col, t0, t1)
		core.CheckTaskHomes(t, "live", live)
		checkReaders(t, batch, live, t0, t1)
	})
}

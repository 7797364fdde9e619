package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/openstream/aftermath/internal/trace"
)

// scanTasksIn is the walk the task window index replaces: every
// executed task Interval.Overlaps admits, by index.
func scanTasksIn(tr *Trace, t0, t1 trace.Time) []int {
	var out []int
	win := Interval{Start: t0, End: t1}
	for i := range tr.Tasks {
		if t := &tr.Tasks[i]; t.ExecCPU >= 0 && win.Overlaps(t.ExecStart, t.ExecEnd) {
			out = append(out, i)
		}
	}
	return out
}

// visitedTasksIn collects what EachTaskIn visits, sorted by index. The
// tasks are identified by address, so a visit of anything but an element
// of tr.Tasks fails the test.
func visitedTasksIn(t *testing.T, tr *Trace, t0, t1 trace.Time) []int {
	t.Helper()
	var out []int
	tr.EachTaskIn(t0, t1, func(task *TaskInfo) {
		i, ok := slices.BinarySearchFunc(tr.Tasks, task.ID, func(e TaskInfo, id trace.TaskID) int {
			return cmp.Compare(e.ID, id)
		})
		if !ok || task != &tr.Tasks[i] {
			t.Fatalf("visited task %d, which is not an element of tr.Tasks", task.ID)
		}
		out = append(out, i)
	})
	slices.Sort(out)
	return out
}

// checkTaskWindows compares index and scan over the trace's own
// instants and their neighbours, the extremes of the time axis, and
// random, empty and inverted windows drawn from all of those.
func checkTaskWindows(t *testing.T, ctx string, tr *Trace, rng *rand.Rand, queries int) {
	t.Helper()
	instants := []trace.Time{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for i := range tr.Tasks {
		if i%max(len(tr.Tasks)/200, 1) != 0 {
			continue
		}
		task := &tr.Tasks[i]
		for _, at := range []trace.Time{task.ExecStart, task.ExecEnd} {
			instants = append(instants, at)
			if at > math.MinInt64 {
				instants = append(instants, at-1)
			}
			if at < math.MaxInt64 {
				instants = append(instants, at+1)
			}
		}
	}
	check := func(t0, t1 trace.Time) {
		t.Helper()
		got, want := visitedTasksIn(t, tr, t0, t1), scanTasksIn(tr, t0, t1)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: window [%d, %d): index visits %d tasks %v, the scan admits %d %v",
				ctx, t0, t1, len(got), head(got), len(want), head(want))
		}
	}
	for _, a := range instants[:min(len(instants), 24)] {
		for _, b := range instants[:min(len(instants), 24)] {
			check(a, b)
		}
	}
	for q := 0; q < queries; q++ {
		a, b := instants[rng.Intn(len(instants))], instants[rng.Intn(len(instants))]
		switch q % 4 {
		case 0: // as drawn: half of them inverted
		case 1:
			a, b = min(a, b), max(a, b)
		case 2:
			b = a // empty
		case 3: // a sliver after a
			if a < math.MaxInt64-64 {
				b = a + 1 + rng.Int63n(64)
			}
		}
		check(a, b)
	}
}

func head(s []int) []int { return s[:min(len(s), 8)] }

// synthTasks builds a task table of n tasks, IDs 1..n in order, with
// starts drawn by start and lengths by length (which may be zero or
// negative); roughly one in eight never executed, and carries a
// placement that would overlap everything if anyone looked at it.
func synthTasks(rng *rand.Rand, n int, start func() int64, length func() int64) *Trace {
	tr := &Trace{Tasks: make([]TaskInfo, n)}
	for i := range tr.Tasks {
		task := &tr.Tasks[i]
		task.ID = trace.TaskID(i + 1)
		if rng.Intn(8) == 0 {
			task.ExecCPU, task.ExecStart, task.ExecEnd = -1, math.MinInt64, math.MaxInt64
			continue
		}
		task.ExecCPU = int32(rng.Intn(4))
		task.ExecStart = start()
		// Saturate, so a length past the end of the axis stays a
		// forward placement.
		l := length()
		switch end := task.ExecStart + l; {
		case l > 0 && end < task.ExecStart:
			task.ExecEnd = math.MaxInt64
		case l < 0 && end > task.ExecStart:
			task.ExecEnd = math.MinInt64
		default:
			task.ExecEnd = end
		}
	}
	return tr
}

// TestTaskWindowsMatchScan: for any task table — unexecuted tasks,
// zero-length and backward placements, every start equal, starts at
// both ends of the time axis — and any window, empty and inverted ones
// included, EachTaskIn visits exactly the set of tasks the walk over
// Tasks admits with Interval.Overlaps, each once.
func TestTaskWindowsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lengths := func() int64 {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return -rng.Int63n(500)
		case 2:
			return rng.Int63n(200_000) // a long task pins the running maximum
		}
		return rng.Int63n(300)
	}
	cases := []struct {
		name  string
		start func() int64
	}{
		{"uniform", func() int64 { return rng.Int63n(1_000_000) }},
		{"narrow", func() int64 { return 77 + rng.Int63n(300) }}, // fewer cycles than buckets
		{"all-equal", func() int64 { return 123_456 }},
		{"clustered", func() int64 { return int64(rng.Intn(3))*1e12 + rng.Int63n(1000) }},
		{"half-axis", func() int64 {
			return []int64{-math.MaxInt64 / 2, math.MaxInt64 / 2}[rng.Intn(2)] + rng.Int63n(2001) - 1000
		}},
		{"whole-axis", func() int64 {
			return []int64{math.MinInt64, 0, math.MaxInt64 - 3000}[rng.Intn(3)] + rng.Int63n(3000)
		}},
	}
	for _, tc := range cases {
		for _, n := range []int{0, 1, 5000} {
			tr := synthTasks(rng, n, tc.start, lengths)
			checkTaskWindows(t, fmt.Sprintf("%s/%d", tc.name, n), tr, rng, 400)
		}
	}
	// Only unexecuted tasks: nothing to index, nothing to visit.
	none := synthTasks(rng, 50, func() int64 { return 5 }, lengths)
	for i := range none.Tasks {
		none.Tasks[i].ExecCPU = -1
	}
	checkTaskWindows(t, "unexecuted", none, rng, 20)
}

// TestTaskWindowsLiveMatchScan: every snapshot of a live trace builds
// its own index over the tasks it holds, and answers as a batch load of
// the same prefix does.
func TestTaskWindowsLiveMatchScan(t *testing.T) {
	data := liveTestBytes(t)
	rng := rand.New(rand.NewSource(37))
	g := &limitedByteReader{data: data}
	sr := trace.NewStreamReader(g)
	lv := NewLive()
	step := len(data)/9 + 1
	for g.limit < len(data) {
		g.limit = min(g.limit+step, len(data))
		if _, err := lv.Feed(sr); err != nil {
			t.Fatal(err)
		}
		snap, _ := lv.Snapshot()
		off := sr.Consumed()
		if off == 0 {
			continue
		}
		cold, err := FromReader(bytes.NewReader(data[:off]))
		if err != nil {
			t.Fatalf("cold load of %d-byte prefix: %v", off, err)
		}
		ctx := fmt.Sprintf("prefix %d", off)
		checkTaskWindows(t, ctx, snap, rng, 200)
		for q := 0; q < 100; q++ {
			t0 := snap.Span.Start + rng.Int63n(snap.Span.Duration()+1)
			t1 := t0 + rng.Int63n(snap.Span.Duration()/4+1)
			if got, want := visitedTasksIn(t, snap, t0, t1), visitedTasksIn(t, cold, t0, t1); !slices.Equal(got, want) {
				t.Fatalf("%s: window [%d, %d): snapshot visits %v, batch load %v", ctx, t0, t1, head(got), head(want))
			}
		}
	}
}

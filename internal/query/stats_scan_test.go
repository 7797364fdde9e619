package query

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/trace"
)

// scanAverageParallelism and scanStateTimes are the average parallelism
// and stats.StateTimes as they were computed while each walked every
// CPU's StatesIn: the event loops the prefix sums replaced, kept as the
// reference.
func scanAverageParallelism(tr *core.Trace, t0, t1 trace.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	var busy trace.Time
	for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
		for _, ev := range tr.StatesIn(cpu, t0, t1) {
			if ev.State != trace.StateTaskExec {
				continue
			}
			s, e := ev.Start, ev.End
			if s < t0 {
				s = t0
			}
			if e > t1 {
				e = t1
			}
			if e > s {
				busy += e - s
			}
		}
	}
	return float64(busy) / float64(t1-t0)
}

func scanStateTimes(tr *core.Trace, t0, t1 trace.Time) []trace.Time {
	out := make([]trace.Time, trace.NumWorkerStates)
	for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
		for _, ev := range tr.StatesIn(cpu, t0, t1) {
			s, e := ev.Start, ev.End
			if s < t0 {
				s = t0
			}
			if e > t1 {
				e = t1
			}
			if e > s && int(ev.State) < len(out) {
				out[ev.State] += e - s
			}
		}
	}
	return out
}

// scanStatsOver is StatsOf over a hand-built filter and window as it was
// composed from whole-table walks: filter.Tasks for the count, the
// durations of the tasks it returns for the bins, and the two state
// walks above.
func scanStatsOver(tr *core.Trace, f *filter.TaskFilter, t0, t1 trace.Time) StatsResult {
	tasks := filter.Tasks(tr, f)
	resp := StatsResult{
		Start: t0, End: t1,
		Tasks:          len(tasks),
		AvgParallelism: scanAverageParallelism(tr, t0, t1),
		StateCycles:    map[string]int64{},
		LocalFraction:  stats.LocalityFraction(tr, stats.ReadsAndWrites, t0, t1),
	}
	times := scanStateTimes(tr, t0, t1)
	for st, v := range times {
		if v > 0 {
			resp.StateCycles[trace.WorkerState(st).String()] = v
		}
	}
	var durs []float64
	for _, t := range tasks {
		if t.ExecCPU >= 0 {
			durs = append(durs, float64(t.Duration()))
		}
	}
	h := stats.NewHistogram(durs, 20, 0, 0)
	resp.DurationHist = h.Counts
	resp.HistMin, resp.HistMax = h.Min, h.Max
	return resp
}

// overlappingCPUTrace hand-builds a trace whose last CPU carries
// overlapping state intervals — the dominance index refuses it and
// StateCover scans — with a task per execution interval.
func overlappingCPUTrace(rng *rand.Rand) *core.Trace {
	const nCPU, n = 3, 400
	tr := &core.Trace{CPUs: make([]core.CPUData, nCPU)}
	var hi int64
	for c := 0; c < nCPU; c++ {
		at := int64(1000 + rng.Intn(50))
		for i := 0; i < n; i++ {
			at += int64(rng.Intn(4))
			d := int64(rng.Intn(30))
			ev := trace.StateEvent{CPU: int32(c), State: trace.WorkerState(rng.Intn(trace.NumWorkerStates)), Start: at, End: at + d}
			if ev.State == trace.StateTaskExec {
				ev.Task = trace.TaskID(len(tr.Tasks) + 1)
				tr.Tasks = append(tr.Tasks, core.TaskInfo{
					ID: ev.Task, Type: trace.TypeID(1 + rng.Intn(2)), ExecCPU: int32(c), ExecStart: ev.Start, ExecEnd: ev.End,
				})
			}
			tr.CPUs[c].States.Rows = append(tr.CPUs[c].States.Rows, ev)
			at += d
		}
		hi = max(hi, at)
	}
	last := tr.CPUs[nCPU-1].States.Rows
	last[0].End = last[n/2].End + 5
	tr.Types = []trace.TaskType{{ID: 1, Name: "even"}, {ID: 2, Name: "odd"}}
	tr.Span = core.Interval{Start: 1000, End: hi + 1}
	return tr
}

// walkWindows are the windows of the harness's walk script from the
// full span (zoom in by two around a seeded centre, out by two, pan by
// half), then empty, inverted and overhanging ones.
func walkWindows(rng *rand.Rand, span core.Interval) [][2]trace.Time {
	out := [][2]trace.Time{{span.Start, span.End}}
	t0, t1 := span.Start, span.End
	for _, move := range "iiiiiipppiiiipppooooppiiiippoo" {
		width := t1 - t0
		switch move {
		case 'i':
			t0 += rng.Int63n(width/2 + 1)
			t1 = t0 + width/2
		case 'o':
			t0, t1 = t0-width/2, t1+width/2
		case 'p':
			d := width / 2 * int64(1-2*rng.Intn(2))
			t0, t1 = t0+d, t1+d
		}
		t0 = max(t0, span.Start)
		t1 = max(min(t1, span.End), t0)
		out = append(out, [2]trace.Time{t0, t1})
	}
	mid := span.Start + span.Duration()/2
	return append(out,
		[2]trace.Time{mid, mid},
		[2]trace.Time{mid + 100, mid},
		[2]trace.Time{span.Start - 1000, mid},
		[2]trace.Time{mid, span.End + 1000},
		[2]trace.Time{span.End + 10, span.End + 20},
	)
}

// TestStatsMatchesScan: the statistics panel answered from the task
// window index and the states' prefix sums equals, field for field and
// byte for byte, the panel composed from walks over every task and
// every state event in the window — over the harness walk's windows,
// for queries with and without a type, duration or home-node filter
// against the TaskFilter each one means, built by hand, on a simulated
// trace, on one with a CPU the dominance index cannot hold, and on a
// live snapshot that reads most of its events back from spilled
// segments.
func TestStatsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	seidel := atmtest.SeidelTrace(t, 6, 4, openstream.SchedRandom)
	cases := []struct {
		name  string
		tr    *core.Trace
		types []string
	}{
		{"seidel", seidel, []string{"seidel_block"}},
		{"overlapping-cpu", overlappingCPUTrace(rng), []string{"odd"}},
		{"spilled", atmtest.SeidelSpilledTrace(t, 6, 4, openstream.SchedRandom, 12), []string{"seidel_block"}},
	}
	for _, tc := range cases {
		med := trace.Time(stats.Median(filter.Durations(tc.tr, nil)))
		types := filter.ByTypeNames(tc.tr, tc.types...).Types
		filters := []struct {
			name string
			q    *Query
			f    filter.TaskFilter
		}{
			{"unfiltered", New(), filter.TaskFilter{}},
			{"types", New().Types(tc.types...), filter.TaskFilter{Types: types}},
			{"durations", New().Durations(med, 0), filter.TaskFilter{MinDuration: med}},
			{"both", New().Types(tc.types...).Durations(1, med), filter.TaskFilter{Types: types, MinDuration: 1, MaxDuration: med}},
			{"rnodes", New().ReadNodes(0), filter.TaskFilter{ReadNodes: []int32{0}}},
			{"wnodes", New().WriteNodes(1, 0), filter.TaskFilter{WriteNodes: []int32{0, 1}}},
		}
		tasks := 0
		for _, w := range walkWindows(rng, tc.tr.Span) {
			for _, c := range filters {
				got := StatsOf(tc.tr, c.q.Clone().Window(w[0], w[1]))
				want := scanStatsOver(tc.tr, c.f.WithWindow(w[0], w[1]), w[0], w[1])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s window [%d, %d):\n got %+v\nwant %+v", tc.name, c.name, w[0], w[1], got, want)
				}
				gj, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if wj, _ := json.Marshal(want); !bytes.Equal(gj, wj) {
					t.Fatalf("%s/%s window [%d, %d): JSON differs:\n got %s\nwant %s", tc.name, c.name, w[0], w[1], gj, wj)
				}
				tasks += got.Tasks
			}
			// StateTimes on its own: all states, zero ones and inverted
			// windows included.
			if got, want := stats.StateTimes(tc.tr, w[0], w[1]), scanStateTimes(tc.tr, w[0], w[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s window [%d, %d): StateTimes = %v, the event walk sums %v", tc.name, w[0], w[1], got, want)
			}
		}
		if tasks == 0 {
			t.Errorf("%s: no window held a task; the equalities above are vacuous", tc.name)
		}
	}
}

package metrics

import (
	"math"
	"testing"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/trace"
)

func TestWorkersInStateBounds(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 6, 3, openstream.SchedRandom)
	s := WorkersInState(tr, trace.StateIdle, 50)
	if s.Len() != 50 {
		t.Fatalf("series length = %d, want 50", s.Len())
	}
	ncpu := float64(tr.NumCPUs())
	for i, v := range s.Values {
		if v < 0 || v > ncpu {
			t.Fatalf("interval %d: %v workers outside [0,%v]", i, v, ncpu)
		}
	}
	// The wavefront start must produce substantial idleness at some
	// point.
	_, max := s.MinMax()
	if max < 1 {
		t.Errorf("max idle workers = %v, expected >= 1", max)
	}
}

// The sum over all states in an interval must equal the number of
// workers active (excluding gaps).
func TestWorkersInStatePartition(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 2, openstream.SchedRandom)
	const n = 20
	total := make([]float64, n)
	for st := 0; st < trace.NumWorkerStates; st++ {
		s := WorkersInState(tr, trace.WorkerState(st), n)
		for i, v := range s.Values {
			total[i] += v
		}
	}
	ncpu := float64(tr.NumCPUs())
	for i, v := range total {
		if v > ncpu+1e-9 {
			t.Fatalf("interval %d: state sum %v exceeds CPU count %v", i, v, ncpu)
		}
	}
}

func TestAverageTaskDuration(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedRandom)
	s := AverageTaskDuration(tr, 40, nil)
	if s.Len() != 40 {
		t.Fatalf("series length = %d", s.Len())
	}
	// Initialization tasks are much longer than compute tasks (page
	// faults): the early intervals must show a higher average than
	// the steady state.
	early := s.Values[1]
	var late float64
	for _, v := range s.Values[s.Len()/2:] {
		late = math.Max(late, v)
	}
	if early <= late {
		t.Errorf("early avg duration %v not above steady-state max %v", early, late)
	}
	// Filtered to block tasks only, the early peak must disappear.
	blocks := filter.ByTypeNames(tr, apps.SeidelBlockType)
	sb := AverageTaskDuration(tr, 40, blocks)
	_, maxAll := s.MinMax()
	_, maxBlocks := sb.MinMax()
	if maxBlocks >= maxAll {
		t.Errorf("block-only max %v should be below overall max %v", maxBlocks, maxAll)
	}
}

func TestAggregateCounterMonotone(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 2, openstream.SchedRandom)
	c, ok := tr.CounterByName(trace.CounterOSSystemTime)
	if !ok {
		t.Fatal("system time counter missing")
	}
	s := AggregateCounter(tr, c, 30)
	if s.Len() != 31 {
		t.Fatalf("series length = %d, want 31", s.Len())
	}
	for i := 1; i < s.Len(); i++ {
		if s.Values[i] < s.Values[i-1] {
			t.Fatalf("aggregate of monotone counter decreased at %d", i)
		}
	}
	if s.Values[s.Len()-1] <= 0 {
		t.Error("system time never increased")
	}
}

func TestDerivative(t *testing.T) {
	s := Series{
		Name:   "x",
		Times:  []trace.Time{0, 10, 20, 30},
		Values: []float64{0, 5, 5, 20},
	}
	d := Derivative(s)
	if d.Len() != 3 {
		t.Fatalf("derivative length = %d", d.Len())
	}
	want := []float64{0.5, 0, 1.5}
	for i, v := range d.Values {
		if math.Abs(v-want[i]) > 1e-12 {
			t.Errorf("d[%d] = %v, want %v", i, v, want[i])
		}
	}
	if Derivative(Series{}).Len() != 0 {
		t.Error("empty derivative must be empty")
	}
}

func TestCounterDeltaPerTask(t *testing.T) {
	tr := atmtest.KMeansTrace(t, 8, 1000, 3, false)
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		t.Fatal("branch counter missing")
	}
	dist := filter.ByTypeNames(tr, apps.KMeansDistanceType)
	deltas := CounterDeltaPerTask(tr, c, dist)
	if len(deltas) == 0 {
		t.Fatal("no deltas attributed")
	}
	for _, d := range deltas {
		if d.Delta < 0 {
			t.Fatalf("negative delta for task %d", d.Task.ID)
		}
		if d.Rate < 0 {
			t.Fatalf("negative rate")
		}
	}
	// Distance tasks mispredict: most deltas must be positive.
	var positive int
	for _, d := range deltas {
		if d.Delta > 0 {
			positive++
		}
	}
	if positive*2 < len(deltas) {
		t.Errorf("only %d of %d distance tasks show mispredictions", positive, len(deltas))
	}
}

func TestSeriesMinMax(t *testing.T) {
	s := Series{Values: []float64{3, -1, 7, 2}}
	min, max := s.MinMax()
	if min != -1 || max != 7 {
		t.Errorf("minmax = %v,%v", min, max)
	}
	min, max = (Series{}).MinMax()
	if min != 0 || max != 0 {
		t.Errorf("empty minmax = %v,%v", min, max)
	}
}

// TestAverageTaskDurationExtremeTimestamps is the MaxInt64/2
// regression test for the avg-duration interval mapping: with
// offset*n > 2^63, the old offset*n/span arithmetic wrapped negative
// and the task silently fell out of every interval. The task below
// executes entirely inside interval 48 of 64; its duration must show
// up there and nowhere else.
func TestAverageTaskDurationExtremeTimestamps(t *testing.T) {
	base := trace.Time(math.MaxInt64 / 2)
	span := trace.Time(1) << 58
	const n = 64
	iv := span / n
	t0 := base + 48*iv + iv/4
	t1 := base + 49*iv - iv/4
	tr := &core.Trace{
		Tasks: []core.TaskInfo{{ID: 1, ExecCPU: 0, ExecStart: t0, ExecEnd: t1}},
		Span:  core.Interval{Start: base, End: base + span},
	}
	s := AverageTaskDuration(tr, n, nil)
	if s.Len() != n {
		t.Fatalf("series length = %d, want %d", s.Len(), n)
	}
	want := float64(t1 - t0)
	for i, v := range s.Values {
		switch {
		case i == 48 && v != want:
			t.Errorf("interval 48: avg = %v, want %v", v, want)
		case i != 48 && v != 0:
			t.Errorf("interval %d: avg = %v, want 0 (interval mapping overflowed)", i, v)
		}
	}
}

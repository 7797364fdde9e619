// Package metrics implements Aftermath's derived counters (paper
// Section II-A, interface group 5, and Section III): metrics computed
// on-line from high-level events or from combinations of existing
// counters, overlaid on the timeline.
//
// Interval metrics follow the paper's algorithm (Section III-A): the
// execution is divided into a user-defined number of intervals; per
// interval and worker the relevant quantity is computed, then
// aggregated across workers and normalized by the interval duration.
package metrics

import (
	"sort"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/tmath"
	"github.com/openstream/aftermath/internal/trace"
)

// Series is a derived metric sampled over time. For interval metrics,
// Times[i] is the start of interval i and Values[i] the metric over
// [Times[i], Times[i+1]) (the final point of boundary series is the
// span end).
type Series struct {
	Name   string
	Times  []trace.Time
	Values []float64
}

// Len returns the number of points.
func (s Series) Len() int { return len(s.Times) }

// MinMax returns the extrema of the series values.
func (s Series) MinMax() (min, max float64) {
	if len(s.Values) == 0 {
		return 0, 0
	}
	min, max = s.Values[0], s.Values[0]
	for _, v := range s.Values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// boundaries returns n+1 interval boundaries covering the trace span.
// The 128-bit multiply keeps the boundaries exact for spans where
// span*n exceeds 2^63 (large cycle-count timestamps).
func boundaries(tr *core.Trace, n int) []trace.Time {
	return cut(tr.Span.Start, tr.Span.Duration(), max(n, 1))
}

// cut returns the n+1 bounds of n equal windows from start over span.
func cut(start, span trace.Time, n int) []trace.Time {
	ts := make([]trace.Time, n+1)
	for i := range ts {
		ts[i] = start + tmath.MulDiv(span, int64(i), int64(n))
	}
	return ts
}

// WorkersInState computes the average number of workers simultaneously
// in the given state for each of n intervals — the derived counter of
// Section III-A used for Figure 3 (number of idle workers): per
// interval, the time each worker spent in the state is summed over all
// workers and divided by the interval duration. A worker's windows
// cost one left-to-right pass over its intervals in the state.
func WorkersInState(tr *core.Trace, state trace.WorkerState, n int) Series {
	return workersInState(tr, state, n, par.Workers())
}

func workersInState(tr *core.Trace, state trace.WorkerState, n, workers int) Series {
	bs := boundaries(tr, n)
	s := Series{
		Name:   "workers_in_" + state.String(),
		Times:  bs[:len(bs)-1],
		Values: make([]float64, len(bs)-1),
	}
	// The per-CPU interval queries are independent; fan them out and
	// accumulate integer in-state times per CPU (core.DomCPU.StateCovers:
	// one pass over the state's intervals from the cover pyramids, the
	// equal clipped-cover event sum on a CPU that has none), each CPU
	// into its share of one scratch array. The float merge then runs
	// serially in CPU order, so the result is bit-identical to a
	// sequential pass.
	nCPU, n := tr.NumCPUs(), len(bs)-1
	dom := tr.DomIndex()
	inState := make([]trace.Time, nCPU*n)
	par.Do(workers, nCPU, func(c int) {
		dom.CPU(tr, int32(c)).StateCovers(state, bs, inState[c*n:(c+1)*n])
	})
	for cpu := 0; cpu < nCPU; cpu++ {
		for i, in := range inState[cpu*n : (cpu+1)*n] {
			t0, t1 := bs[i], bs[i+1]
			if t1 <= t0 {
				continue
			}
			s.Values[i] += float64(in) / float64(t1-t0)
		}
	}
	return s
}

// InStateFractions returns, for each CPU, the fraction of each of n
// equal windows of [t0, t1) that the CPU spent in the given state:
// result[cpu][w] in [0, 1]. It is the per-CPU decomposition of the
// WorkersInState accounting (summing result columns over CPUs yields
// that series), used by the load-imbalance anomaly detector. A CPU's
// windows are one pass over its intervals in the state
// (core.DomCPU.StateCovers); the CPUs fan out over the worker pool, and
// each CPU's row is its own share of one array, so the result is
// independent of the worker count.
func InStateFractions(tr *core.Trace, state trace.WorkerState, n int, t0, t1 trace.Time) [][]float64 {
	return inStateFractions(tr, state, n, t0, t1, par.Workers())
}

func inStateFractions(tr *core.Trace, state trace.WorkerState, n int, t0, t1 trace.Time, workers int) [][]float64 {
	if n < 1 {
		n = 1
	}
	nCPU := tr.NumCPUs()
	out := make([][]float64, nCPU)
	if t1 <= t0 {
		for c := range out {
			out[c] = make([]float64, n)
		}
		return out
	}
	bs := cut(t0, t1-t0, n)
	dom := tr.DomIndex()
	covers, fracs := make([]trace.Time, nCPU*n), make([]float64, nCPU*n)
	par.Do(workers, nCPU, func(c int) {
		in, row := covers[c*n:(c+1)*n], fracs[c*n:(c+1)*n:(c+1)*n]
		dom.CPU(tr, int32(c)).StateCovers(state, bs, in)
		for w, cover := range in {
			if w0, w1 := bs[w], bs[w+1]; w1 > w0 {
				row[w] = float64(cover) / float64(w1-w0)
			}
		}
		out[c] = row
	})
	return out
}

// AverageTaskDuration computes, per interval, the mean execution
// duration of the (filtered) tasks running during the interval — the
// derived counter of Figure 8. A task runs during the intervals its
// execution overlaps, an instantaneous one during the interval holding
// it. Durations add in task order, so the series is the same on every
// machine to the last bit.
func AverageTaskDuration(tr *core.Trace, n int, f *filter.TaskFilter) Series {
	bs := boundaries(tr, n)
	n = len(bs) - 1
	s := Series{Name: "avg_task_duration", Times: bs[:n], Values: make([]float64, n)}
	counts := make([]int, n)
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		if t.ExecCPU < 0 || !f.Match(tr, t) {
			continue
		}
		end := max(t.ExecEnd, tmath.SatAdd(t.ExecStart, 1))
		for iv := sort.Search(n, func(i int) bool { return bs[i+1] > t.ExecStart }); iv < n && bs[iv] < end; iv++ {
			counts[iv]++
			s.Values[iv] += float64(t.Duration())
		}
	}
	for i, c := range counts {
		if c > 0 {
			s.Values[i] /= float64(c)
		}
	}
	return s
}

// AggregateCounter sums a counter's value across all CPUs at n+1
// boundary points — the aggregating derived counter used to turn
// per-worker getrusage statistics into global ones (Section III-B).
// A CPU's values at the boundaries are one forward walk over its
// samples.
func AggregateCounter(tr *core.Trace, c *core.Counter, n int) Series {
	bs := boundaries(tr, n)
	s := Series{Name: "sum_" + c.Desc.Name, Times: bs, Values: make([]float64, len(bs))}
	vals := make([]int64, len(bs))
	for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
		for i := c.ValuesAt(cpu, bs, vals); i < len(bs); i++ {
			s.Values[i] += float64(vals[i])
		}
	}
	return s
}

// Derivative computes the discrete derivative (difference quotient) of
// a cumulative series — used in Figures 10 and 18 for the increase of
// system time, resident size and the branch misprediction rate.
func Derivative(s Series) Series {
	if s.Len() < 2 {
		return Series{Name: "d_" + s.Name}
	}
	d := Series{
		Name:   "d_" + s.Name,
		Times:  make([]trace.Time, s.Len()-1),
		Values: make([]float64, s.Len()-1),
	}
	for i := 0; i+1 < s.Len(); i++ {
		d.Times[i] = s.Times[i]
		dt := float64(s.Times[i+1] - s.Times[i])
		if dt > 0 {
			d.Values[i] = (s.Values[i+1] - s.Values[i]) / dt
		}
	}
	return d
}

// TaskDelta is the increase of a monotonic counter over one task's
// execution, with the rate normalized by the task duration.
type TaskDelta struct {
	Task *core.TaskInfo
	// Delta is the counter increase between the samples taken
	// immediately before and after the task's execution.
	Delta int64
	// Rate is Delta per cycle of task duration.
	Rate float64
}

// CounterDeltaPerTask attributes a monotonic counter to tasks: for
// each matching task, the increase of the counter on the task's CPU
// over the execution interval (Section V: "Aftermath is able to
// determine the increase of a monotonically increasing counter for
// each task").
func CounterDeltaPerTask(tr *core.Trace, c *core.Counter, f *filter.TaskFilter) []TaskDelta {
	var out []TaskDelta
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		if t.ExecCPU < 0 || !f.Match(tr, t) {
			continue
		}
		row := tr.RowOf(t.ExecCPU)
		before, ok1 := c.ValueAt(row, t.ExecStart)
		after, ok2 := c.ValueAt(row, t.ExecEnd)
		if !ok1 || !ok2 {
			continue
		}
		d := TaskDelta{Task: t, Delta: after - before}
		if dur := t.Duration(); dur > 0 {
			d.Rate = float64(d.Delta) / float64(dur)
		}
		out = append(out, d)
	}
	return out
}

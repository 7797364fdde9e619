package metrics

import (
	"math"
	"math/rand"
	"testing"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/trace"
)

// synthTrace hand-builds disjoint random state intervals per CPU;
// overlapped marks one CPU with overlapping intervals (unindexable:
// the metric must fall back to the event scan and still agree with
// the reference).
func synthTrace(rng *rand.Rand, nCPU, n int, base int64, overlapped bool) *core.Trace {
	tr := &core.Trace{CPUs: make([]core.CPUData, nCPU)}
	lo, hi := int64(0), int64(0)
	for c := 0; c < nCPU; c++ {
		t := base + int64(rng.Intn(40))
		var states []trace.StateEvent
		for i := 0; i < n; i++ {
			t += int64(rng.Intn(3))
			d := int64(rng.Intn(25))
			states = append(states, trace.StateEvent{
				CPU:   int32(c),
				State: trace.WorkerState(rng.Intn(trace.NumWorkerStates)),
				Start: t, End: t + d,
			})
			t += d
		}
		if overlapped && c == 0 && len(states) > 4 {
			states[1].End = states[3].End + 7
		}
		tr.CPUs[c].States.Rows = states
		if c == 0 || states[0].Start < lo {
			lo = states[0].Start
		}
		if e := states[len(states)-1].End; c == 0 || e > hi {
			hi = e
		}
	}
	tr.Span = core.Interval{Start: lo, End: hi}
	return tr
}

// refWorkersInState recomputes WorkersInState by scanning events —
// the reference the pyramid-served implementation must match bit for
// bit (including the float accumulation order).
func refWorkersInState(tr *core.Trace, state trace.WorkerState, bs []trace.Time) []float64 {
	vals := make([]float64, len(bs)-1)
	for cpu := 0; cpu < tr.NumCPUs(); cpu++ {
		for i := 0; i < len(bs)-1; i++ {
			t0, t1 := bs[i], bs[i+1]
			if t1 <= t0 {
				continue
			}
			var in trace.Time
			for _, ev := range tr.StatesIn(int32(cpu), t0, t1) {
				if ev.State != state {
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
					in += e - s
				}
			}
			vals[i] += float64(in) / float64(t1-t0)
		}
	}
	return vals
}

// TestWorkersInStateMatchesScan: the pyramid-served series must equal
// an event-scan recomputation exactly, for every state, on indexable,
// unindexable and extreme-coordinate traces, at several worker
// counts.
func TestWorkersInStateMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct {
		name string
		tr   *core.Trace
	}{
		{"plain", synthTrace(rng, 6, 600, 0, false)},
		{"overlapped-cpu", synthTrace(rng, 4, 300, 50, true)},
		{"extreme-base", synthTrace(rng, 4, 400, math.MaxInt64/2, false)},
	}
	for _, tc := range cases {
		for st := trace.StateIdle; int(st) < trace.NumWorkerStates; st++ {
			for _, n := range []int{1, 7, 100} {
				bs := make([]trace.Time, 0, n+1)
				span := tc.tr.Span.Duration()
				for i := 0; i <= n; i++ {
					// Reference boundaries via big-int-free floor math on
					// small n (the exactness of boundaries() itself is
					// covered by tmath's tests).
					bs = append(bs, tc.tr.Span.Start+span/int64(n)*int64(i)+span%int64(n)*int64(i)/int64(n))
				}
				want := refWorkersInState(tc.tr, st, bs)
				for _, workers := range []int{1, 4} {
					got := workersInState(tc.tr, st, n, workers)
					if len(got.Values) != len(want) {
						t.Fatalf("%s/%v: len %d != %d", tc.name, st, len(got.Values), len(want))
					}
					for i := range want {
						if got.Values[i] != want[i] {
							t.Fatalf("%s/%v n=%d workers=%d: interval %d = %v, want %v",
								tc.name, st, n, workers, i, got.Values[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestInStateFractionsMatchesScan mirrors the check for the per-CPU
// window fractions used by the load-imbalance detector.
func TestInStateFractionsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, base := range []int64{0, math.MaxInt64 / 2} {
		tr := synthTrace(rng, 5, 400, base, false)
		t0 := tr.Span.Start + tr.Span.Duration()/5
		t1 := tr.Span.End - tr.Span.Duration()/7
		const n = 16
		span := t1 - t0
		for _, workers := range []int{1, 4} {
			got := inStateFractions(tr, trace.StateTaskExec, n, t0, t1, workers)
			for cpu := 0; cpu < tr.NumCPUs(); cpu++ {
				for w := 0; w < n; w++ {
					w0 := t0 + span/n*int64(w) + span%n*int64(w)/n
					w1 := t0 + span/n*int64(w+1) + span%n*int64(w+1)/n
					if w1 <= w0 {
						continue
					}
					var in trace.Time
					for _, ev := range tr.StatesIn(int32(cpu), w0, w1) {
						if ev.State != trace.StateTaskExec {
							continue
						}
						s, e := ev.Start, ev.End
						if s < w0 {
							s = w0
						}
						if e > w1 {
							e = w1
						}
						if e > s {
							in += e - s
						}
					}
					want := float64(in) / float64(w1-w0)
					if got[cpu][w] != want {
						t.Fatalf("base=%d workers=%d cpu=%d w=%d: %v != %v", base, workers, cpu, w, got[cpu][w], want)
					}
				}
			}
		}
	}
}

package metrics

import (
	"math"
	"math/rand"
	"testing"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/trace"
)

// synthTrace hand-builds disjoint random state intervals per CPU.
func synthTrace(rng *rand.Rand, nCPU, n int, base int64) *core.Trace {
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

// TestInStateFractionsMatchesScan: the per-CPU window fractions the
// load-imbalance detector reads equal an event-scan recomputation
// exactly, on one and on four workers, also at MaxInt64/2. (/anomalies
// is not judged by the oracle, so this reference stays.)
func TestInStateFractionsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, base := range []int64{0, math.MaxInt64 / 2} {
		tr := synthTrace(rng, 5, 400, base)
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

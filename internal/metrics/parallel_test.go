package metrics

import (
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/trace"
)

// TestWorkersInStateParallelMatch: the parallel fan-out accumulates
// integer in-state times and merges them in CPU order, so the series
// must be bit-identical to the sequential result.
func TestWorkersInStateParallelMatch(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 8, 4, openstream.SchedRandom)
	for _, state := range []trace.WorkerState{trace.StateIdle, trace.StateTaskExec} {
		want := workersInState(tr, state, 137, 1)
		for _, workers := range []int{2, 4, 8} {
			got := workersInState(tr, state, 137, workers)
			if len(got.Values) != len(want.Values) {
				t.Fatalf("state %v workers=%d: length %d, want %d", state, workers, len(got.Values), len(want.Values))
			}
			for i := range want.Values {
				if got.Values[i] != want.Values[i] {
					t.Fatalf("state %v workers=%d: value[%d] = %v, want %v (must be bit-identical)",
						state, workers, i, got.Values[i], want.Values[i])
				}
			}
		}
	}
}

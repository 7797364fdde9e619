package query_test

import (
	"bytes"
	"math"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest/oracle"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/trace"
)

// TestWideSpanStats: over a window more than 2^63-1 cycles wide — the
// span of a trace whose first CPU runs near MinInt64 and the others
// near MaxInt64, or a window from MinInt64 to MaxInt64 — the average
// parallelism is the execution cycles over the window's true width,
// never a division by the wrapped, negative t1-t0.
func TestWideSpanStats(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		window bool
	}{
		{6, false},
		{4, true},
	} {
		data, _ := oracle.Gen(c.seed)
		tr, err := core.FromReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		q := query.New()
		if c.window {
			q.Window(math.MinInt64, math.MaxInt64)
		}
		res := query.StatsOf(tr, q)
		if res.End-res.Start >= 0 {
			t.Fatalf("seed %d: window [%d, %d) is not wider than 2^63-1 cycles; the case is vacuous", c.seed, res.Start, res.End)
		}
		exec := res.StateCycles[trace.StateTaskExec.String()]
		if exec == 0 {
			t.Fatalf("seed %d: no execution cycles in the window; the case is vacuous", c.seed)
		}
		want := float64(exec) / float64(uint64(res.End-res.Start))
		if res.AvgParallelism < 0 || res.AvgParallelism != want {
			t.Errorf("seed %d: avg_parallelism over [%d, %d) = %v, want %d cycles over the true width = %v",
				c.seed, res.Start, res.End, res.AvgParallelism, exec, want)
		}
	}
}

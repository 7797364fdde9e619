package render

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/mragg"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/trace"
)

// statesInView counts the state events of every CPU overlapping
// [start, end).
func statesInView(tr *core.Trace, start, end trace.Time) (n int) {
	for row := range tr.NumCPUs() {
		n += len(tr.StatesIn(int32(row), start, end))
	}
	return n
}

// TestRowWalkWork holds a tile's work (Stats.Members, Stats.Queries) to
// what the row walk promises: a row costs the states in view, or a few
// reads and one range query a column where columns hold more than the
// walk scans. A dense trace's full-span tile, with hundreds of states
// a column, asks the pyramid at most once a column and reads at most
// 2·arity+2 states a column; the Seidel app's full-span tile, whose
// columns hold a few states, asks it never and reads each state in
// view about once — no more than one extra a column, where a state
// straddles two; and a types= filtered tile, which the pyramid cannot
// serve, reads no more than the states in view.
func TestRowWalkWork(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for cpu := int32(0); cpu < 2; cpu++ {
		at := int64(0)
		for range 30000 {
			d := 1 + rng.Int63n(20)
			if err := w.WriteState(trace.StateEvent{CPU: cpu, State: trace.WorkerState(rng.Intn(trace.NumWorkerStates)), Start: at, End: at + d}); err != nil {
				t.Fatal(err)
			}
			at += d + rng.Int63n(3)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	dense, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := Timeline(dense, TimelineConfig{Width: 60, Height: 20})
	if err != nil {
		t.Fatal(err)
	}
	if per := statesInView(dense, dense.Span.Start, dense.Span.End) / st.PixelColumns; per <= 2*mragg.DefaultArity {
		t.Fatalf("%d states a column; the dense case needs more than %d", per, 2*mragg.DefaultArity)
	}
	t.Logf("dense: %+v", st)
	if st.Queries == 0 || st.Queries > st.PixelColumns || st.Members > (2*mragg.DefaultArity+2)*st.PixelColumns {
		t.Errorf("dense full-span tile: %d range queries and %d states read for %d columns", st.Queries, st.Members, st.PixelColumns)
	}

	seidel := atmtest.SeidelTrace(t, 16, 8, openstream.SchedNUMA)
	_, st, err = Timeline(seidel, TimelineConfig{Width: 900, Height: 380, Labels: true})
	if err != nil {
		t.Fatal(err)
	}
	inView := statesInView(seidel, seidel.Span.Start, seidel.Span.End)
	t.Logf("Seidel: %+v, %d states in view", st, inView)
	if st.Queries != 0 || st.Members > inView+st.PixelColumns {
		t.Errorf("Seidel full-span tile: %d range queries and %d states read; %d states in view, %d columns", st.Queries, st.Members, inView, st.PixelColumns)
	}

	big := atmtest.SeidelTrace(t, 32, 16, openstream.SchedNUMA)
	span := big.Span.Duration()
	start := big.Span.Start + span/3
	cfg := TimelineConfig{Width: 900, Height: 380, Labels: true, Mode: ModeType, Start: start, End: start + span/64,
		Filter: filter.ByTypeNames(big, "seidel_block")}
	_, st, err = Timeline(big, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("filtered: %+v, %d states in view", st, statesInView(big, cfg.Start, cfg.End))
	if inView := statesInView(big, cfg.Start, cfg.End); st.Members > inView || st.Queries != 0 {
		t.Errorf("filtered 1/64 tile: %d range queries and %d states read; %d states in view", st.Queries, st.Members, inView)
	}
}

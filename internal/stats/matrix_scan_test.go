package stats

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/trace"
)

// scanCommMatrix is commMatrixOf as it was before core.HomeBytes: every
// access of the window resolved through the region table and added to
// its (accessor, home) cell. Kept as the reference for the matrix built
// from per-CPU rows.
func scanCommMatrix(tr *core.Trace, kinds CommKinds, t0, t1 trace.Time) *CommMatrix {
	n := tr.NumNodes()
	m := &CommMatrix{N: n, Bytes: make([]int64, n*n)}
	for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
		accessor := tr.NodeOfCPU(cpu)
		if int(accessor) >= n {
			continue
		}
		for _, ev := range tr.CommIn(cpu, t0, t1) {
			if !kinds.matches(ev.Kind) {
				continue
			}
			home := tr.NodeOfAddr(ev.Addr)
			if home < 0 || int(home) >= n {
				continue
			}
			m.Bytes[int(accessor)*n+int(home)] += int64(ev.Size)
		}
	}
	return m
}

// matches reports whether the selection admits an access kind.
func (k CommKinds) matches(ck trace.CommKind) bool {
	switch ck {
	case trace.CommRead:
		return k&Reads != 0
	case trace.CommWrite:
		return k&Writes != 0
	}
	return false
}

// TestCommMatrixMatchesScan: one run batch-loaded, saved and mapped
// back, fed through a live trace and through a spilling one gives one
// matrix — the scan's — for reads, writes, both and neither, on the
// whole span and on random, empty and inverted windows; so does a
// hand-built trace with a CPU on a node the topology lacks and regions
// homed outside it.
func TestCommMatrixMatchesScan(t *testing.T) {
	batch := atmtest.SeidelTrace(t, 8, 4, openstream.SchedRandom)
	path := filepath.Join(t.TempDir(), "seidel.atms")
	if err := core.SaveStore(batch, path); err != nil {
		t.Fatal(err)
	}
	mapped, err := core.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	odd := &core.Trace{
		Topology: trace.Topology{NumNodes: 2, NodeOfCPU: []int32{1, 5, 0}, Distance: make([]int32, 4)},
		Regions: []trace.MemRegion{
			{ID: 1, Addr: 0x1000, Size: 0x1000, Node: 0}, {ID: 2, Addr: 0x2000, Size: 0x1000, Node: 1},
			{ID: 3, Addr: 0x3000, Size: 0x1000, Node: 2}, {ID: 4, Addr: 0x4000, Size: 0x1000, Node: -1},
		},
		CPUs: make([]core.CPUData, 3),
	}
	for cpu := range odd.CPUs {
		for i := 0; i < 40; i++ {
			odd.CPUs[cpu].Comm.Rows = append(odd.CPUs[cpu].Comm.Rows, trace.CommEvent{
				Kind: trace.CommKind(i % trace.NumCommKinds), CPU: int32(cpu), SrcCPU: -1, Time: trace.Time(10 * i),
				Addr: uint64(i%6) << 12, Size: uint64(1 + i),
			})
		}
	}
	odd.Span = core.Interval{Start: 0, End: 400}

	rng := rand.New(rand.NewSource(28))
	for _, arm := range []struct {
		name string
		tr   *core.Trace
	}{
		{"batch", batch},
		{"store", mapped},
		{"live", atmtest.SeidelLiveTrace(t, 8, 4, openstream.SchedRandom, 5)},
		{"live spilled", atmtest.SeidelSpilledTrace(t, 8, 4, openstream.SchedRandom, 5)},
		{"hand-built", odd},
	} {
		tr := arm.tr
		span := tr.Span.Duration()
		windows := [][2]trace.Time{
			{tr.Span.Start, tr.Span.End + 1}, {math.MinInt64, math.MaxInt64},
			{tr.Span.Start + span/2, tr.Span.Start + span/2}, {tr.Span.End, tr.Span.Start},
		}
		for i := 0; i < 40; i++ {
			a := tr.Span.Start + rng.Int63n(span)
			windows = append(windows, [2]trace.Time{a, a + rng.Int63n(span)})
		}
		for _, w := range windows {
			for _, kinds := range []CommKinds{0, Reads, Writes, ReadsAndWrites} {
				got, want := CommMatrixOf(tr, kinds, w[0], w[1]), scanCommMatrix(tr, kinds, w[0], w[1])
				if got.N != want.N || !slices.Equal(got.Bytes, want.Bytes) {
					t.Fatalf("%s, kinds %d, [%d, %d): matrix %v, the scan wants %v", arm.name, kinds, w[0], w[1], got.Bytes, want.Bytes)
				}
			}
		}
		if arm.tr != odd && CommMatrixOf(tr, ReadsAndWrites, tr.Span.Start, tr.Span.End+1).Total() == 0 {
			t.Errorf("%s: no traffic in the fixture", arm.name)
		}
	}
}

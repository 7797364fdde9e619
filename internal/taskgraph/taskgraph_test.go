package taskgraph

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/topology"
	"github.com/openstream/aftermath/internal/trace"
)

func TestReconstructChain(t *testing.T) {
	// A linear chain must reconstruct as a path with depths 0..n-1.
	b := openstream.NewBuilder()
	typ := b.Type("link")
	const n = 10
	var prev openstream.RegionRef = -1
	for i := 0; i < n; i++ {
		out := b.NewRegion(4096)
		spec := openstream.TaskSpec{
			Type: typ, Compute: 1000,
			Writes:  []openstream.Access{{Region: out, Bytes: 4096}},
			Creator: openstream.Root,
		}
		if prev >= 0 {
			spec.Reads = []openstream.Access{{Region: prev, Bytes: 4096}}
		}
		prev = out
		b.Task(spec)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := atmtest.RunToTrace(t, p, openstream.DefaultConfig(topology.Small(1, 2)))
	g := Reconstruct(tr)
	if g.NumEdges() != n-1 {
		t.Errorf("edges = %d, want %d", g.NumEdges(), n-1)
	}
	par := g.ParallelismByDepth()
	if len(par) != n {
		t.Fatalf("depth levels = %d, want %d", len(par), n)
	}
	for d, c := range par {
		if c != 1 {
			t.Errorf("depth %d has %d tasks, want 1", d, c)
		}
	}
	if g.CriticalPathLength() != n {
		t.Errorf("critical path = %d, want %d", g.CriticalPathLength(), n)
	}
}

// TestReconstructSpanEndingAtMaxInt64 is the span-end wrap regression:
// Reconstruct read [Span.Start, Span.End+1), which wraps to an empty
// window when the span ends at MaxInt64 and lost every edge. Task 1
// writes region a that task 2 reads; task 2 writes region b at its
// completion, MaxInt64, where task 3 reads it: both edges must be
// found, the second from events at MaxInt64 itself.
func TestReconstructSpanEndingAtMaxInt64(t *testing.T) {
	const end = math.MaxInt64
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTaskType(trace.TaskType{ID: 1, Name: "work"}))
	for id := trace.TaskID(1); id <= 3; id++ {
		must(w.WriteTask(trace.Task{ID: id, Type: 1}))
	}
	must(w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x1000, Size: 64}))
	must(w.WriteRegion(trace.MemRegion{ID: 2, Addr: 0x2000, Size: 64}))
	access := func(kind trace.CommKind, cpu int32, at trace.Time, task trace.TaskID, addr uint64) {
		must(w.WriteComm(trace.CommEvent{Kind: kind, CPU: cpu, SrcCPU: -1, Time: at, Task: task, Addr: addr, Size: 64}))
	}
	must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Start: 0, End: 500, Task: 1}))
	access(trace.CommWrite, 0, 500, 1, 0x1000)
	must(w.WriteState(trace.StateEvent{CPU: 1, State: trace.StateTaskExec, Start: 600, End: end, Task: 2}))
	access(trace.CommRead, 1, 600, 2, 0x1000)
	access(trace.CommWrite, 1, end, 2, 0x2000)
	must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Start: 700, End: end, Task: 3}))
	access(trace.CommRead, 0, end, 3, 0x2000)
	must(w.Flush())
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Span.End != end {
		t.Fatalf("precondition: span ends at %d, want MaxInt64", tr.Span.End)
	}
	g := Reconstruct(tr)
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (1→2 and, at MaxInt64, 2→3)", g.NumEdges())
	}
	for i, want := range []int{0, 1, 2} {
		if d := g.Depths()[i]; int(d) != want {
			t.Errorf("task %d depth %d, want %d", tr.Tasks[i].ID, d, want)
		}
	}
}

// Versions of the same backing must not create false dependences: the
// reconstruction orders accesses by time, so a reader depends on the
// latest write before it, not on later rewrites.
func TestReconstructVersionedBacking(t *testing.T) {
	b := openstream.NewBuilder()
	typ := b.Type("w")
	rd := b.Type("r")
	bk := b.Backing(4096)
	v0 := b.Version(bk)
	v1 := b.Version(bk)
	w0 := b.Task(openstream.TaskSpec{
		Type: typ, Compute: 1000,
		Writes: []openstream.Access{{Region: v0, Bytes: 4096}}, Creator: openstream.Root,
	})
	r0 := b.Task(openstream.TaskSpec{
		Type: rd, Compute: 1000,
		Reads: []openstream.Access{{Region: v0, Bytes: 4096}}, Creator: openstream.Root,
	})
	// w1 overwrites the backing, reading the old version (so it runs
	// after r0's producer and, in trace time, after w0).
	b.Task(openstream.TaskSpec{
		Type: typ, Compute: 1000,
		Reads:  []openstream.Access{{Region: v0, Bytes: 4096}},
		Writes: []openstream.Access{{Region: v1, Bytes: 4096}}, Creator: openstream.Root,
	})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := atmtest.RunToTrace(t, p, openstream.DefaultConfig(topology.Small(1, 1)))
	g := Reconstruct(tr)
	// In a single-CPU run everything serializes in program order, so
	// r0 must depend on w0 (not on w1, which runs after r0 read).
	w0idx, r0idx := int32(w0), int32(r0)
	found := false
	for _, s := range g.Succ[w0idx] {
		if s == r0idx {
			found = true
		}
	}
	if !found {
		t.Error("missing dependence w0 -> r0")
	}
	for _, pr := range g.Pred[r0idx] {
		if pr != w0idx {
			t.Errorf("r0 has unexpected predecessor %d", pr)
		}
	}
}

// The seidel task graph must show the paper's four-phase parallelism
// profile (Figure 5): many init tasks at depth 0, a drop to a single
// task, a ramp to a wavefront maximum, then decline.
func TestSeidelParallelismProfile(t *testing.T) {
	const blocks, iters = 8, 6
	tr := atmtest.SeidelTrace(t, blocks, iters, openstream.SchedRandom)
	g := Reconstruct(tr)
	par := g.ParallelismByDepth()
	if par[0] != blocks*blocks {
		t.Errorf("depth 0 = %d tasks, want %d init tasks", par[0], blocks*blocks)
	}
	if par[1] != 1 {
		t.Errorf("depth 1 = %d tasks, want the single b00 (paper phase 2)", par[1])
	}
	// The wavefront maximum exceeds 1 and is reached after depth 1.
	max, argmax := 0, 0
	for d := 1; d < len(par); d++ {
		if par[d] > max {
			max, argmax = par[d], d
		}
	}
	if max < blocks {
		t.Errorf("wavefront max = %d, want >= %d", max, blocks)
	}
	if argmax < 2 {
		t.Errorf("wavefront max at depth %d, want a ramp", argmax)
	}
	// Decline at the end.
	if par[len(par)-1] >= max {
		t.Error("no declining phase at the end")
	}
	// Depth axis: blocked Gauss-Seidel has depth(i,j,t) = i+j+2t-1,
	// so the deepest compute task sits at 2*(blocks-1) + 2*iters - 1;
	// with the init level at depth 0 the level count follows.
	wantLevels := 2*(blocks-1) + 2*iters
	if got := g.CriticalPathLength(); got != wantLevels {
		t.Errorf("critical path = %d levels, want %d", got, wantLevels)
	}
}

func TestTotalTasksInProfile(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedRandom)
	g := Reconstruct(tr)
	var sum int
	for _, c := range g.ParallelismByDepth() {
		sum += c
	}
	if sum != len(tr.Tasks) {
		t.Errorf("profile sums to %d of %d tasks", sum, len(tr.Tasks))
	}
}

func TestWriteDOT(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 3, 2, openstream.SchedRandom)
	g := Reconstruct(tr)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, DOTOptions{Label: "seidel"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "digraph \"seidel\"") {
		t.Errorf("missing digraph header: %.60s", out)
	}
	if !strings.Contains(out, apps.SeidelInitType) || !strings.Contains(out, apps.SeidelBlockType) {
		t.Error("missing type labels")
	}
	if !strings.Contains(out, "->") {
		t.Error("missing edges")
	}
	// Bounded export stays bounded.
	var small bytes.Buffer
	if err := g.WriteDOT(&small, DOTOptions{MaxTasks: 5}); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(small.String(), "[label="); lines != 5 {
		t.Errorf("bounded export has %d nodes, want 5", lines)
	}
	if small.Len() >= buf.Len() {
		t.Error("bounded export not smaller")
	}
}

// The k-means task graph must show the iteration structure: distance
// tasks' depth resets never happen — depth strictly increases through
// reduce/update/propagate chains (Figure 11's layered structure).
func TestKMeansGraphStructure(t *testing.T) {
	tr := atmtest.KMeansTrace(t, 8, 500, 3, false)
	g := Reconstruct(tr)
	depths := g.Depths()
	byType := make(map[string][]int32)
	for i := range tr.Tasks {
		name := tr.TypeName(tr.Tasks[i].Type)
		byType[name] = append(byType[name], depths[i])
	}
	if len(byType[apps.KMeansDistanceType]) == 0 || len(byType[apps.KMeansUpdateType]) == 0 {
		t.Fatalf("missing task types: %v", byType)
	}
	maxDepth := func(name string) int32 {
		var m int32 = -1
		for _, d := range byType[name] {
			if d > m {
				m = d
			}
		}
		return m
	}
	if maxDepth(apps.KMeansUpdateType) <= maxDepth(apps.KMeansInitType) {
		t.Error("update tasks must lie deeper than init tasks")
	}
	if maxDepth(apps.KMeansDistanceType) <= maxDepth(apps.KMeansPropagateType)-1 {
		t.Error("last distance tasks must follow propagation")
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/topology"
	"github.com/openstream/aftermath/internal/trace"
)

// seidelStream simulates a scaled seidel run and returns the raw
// trace bytes — a realistic stream with every record family.
func seidelStream(tb testing.TB, blocks, iters int) []byte {
	tb.Helper()
	p, err := apps.BuildSeidel(apps.ScaledSeidelConfig(blocks, iters))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if _, err := openstream.Run(p, openstream.DefaultConfig(topology.Small(2, 4)), w); err != nil {
		tb.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// equalTraces compares every externally observable part of two loaded
// traces.
func equalTraces(t *testing.T, want, got *Trace, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Topology, got.Topology) {
		t.Fatalf("%s: topology differs", label)
	}
	if !reflect.DeepEqual(want.CPUs, got.CPUs) {
		if len(want.CPUs) != len(got.CPUs) {
			t.Fatalf("%s: CPUs = %d, want %d", label, len(got.CPUs), len(want.CPUs))
		}
		for i := range want.CPUs {
			if !reflect.DeepEqual(want.CPUs[i], got.CPUs[i]) {
				t.Fatalf("%s: CPU %d event arrays differ (states %d/%d, discrete %d/%d, comm %d/%d)",
					label, i,
					len(got.CPUs[i].States), len(want.CPUs[i].States),
					len(got.CPUs[i].Discrete), len(want.CPUs[i].Discrete),
					len(got.CPUs[i].Comm), len(want.CPUs[i].Comm))
			}
		}
	}
	if !reflect.DeepEqual(want.Types, got.Types) {
		t.Fatalf("%s: types differ", label)
	}
	if !reflect.DeepEqual(want.Tasks, got.Tasks) {
		t.Fatalf("%s: tasks differ", label)
	}
	if len(want.Counters) != len(got.Counters) {
		t.Fatalf("%s: counters = %d, want %d", label, len(got.Counters), len(want.Counters))
	}
	for i := range want.Counters {
		if want.Counters[i].Desc != got.Counters[i].Desc {
			t.Fatalf("%s: counter %d desc = %+v, want %+v", label, i, got.Counters[i].Desc, want.Counters[i].Desc)
		}
		if !reflect.DeepEqual(want.Counters[i].PerCPU, got.Counters[i].PerCPU) {
			t.Fatalf("%s: counter %d samples differ", label, i)
		}
	}
	if !reflect.DeepEqual(want.Regions, got.Regions) {
		t.Fatalf("%s: regions differ", label)
	}
	if want.Span != got.Span {
		t.Fatalf("%s: span = %+v, want %+v", label, got.Span, want.Span)
	}
	if !reflect.DeepEqual(want.typeByID, got.typeByID) ||
		!reflect.DeepEqual(want.counterByID, got.counterByID) ||
		!reflect.DeepEqual(want.counterByName, got.counterByName) {
		t.Fatalf("%s: lookup maps differ", label)
	}
	// The task-ID map is eager in a batch load and built on first use in
	// a live snapshot: compare what it answers, not the private map.
	assertTaskByID(t, label+", want", want)
	assertTaskByID(t, label+", got", got)
}

// TestLoadParallelMatchesSequential proves the parallel ingest
// pipeline builds exactly the trace the sequential loader builds, and
// that the sequential loader agrees with the independent live path
// (stream decoder into core.Live, drained to EOF).
func TestLoadParallelMatchesSequential(t *testing.T) {
	data := seidelStream(t, 6, 4)
	want, err := fromReaderSeq(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FromDecoder(trace.NewStreamReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, ref, want, "seidel/sequential vs FromDecoder")
	for _, workers := range []int{2, 3, 4, 8} {
		got, err := fromReader(bytes.NewReader(data), workers)
		if err != nil {
			t.Fatalf("fromReader(workers=%d): %v", workers, err)
		}
		equalTraces(t, want, got, "seidel/workers="+itoa(workers))
	}
}

// TestLoadParallelEdgeCases loads handcrafted streams exercising the
// tolerance paths: no topology record, out-of-order producers,
// sample-only counters, and tasks synthesized from execution states.
func TestLoadParallelEdgeCases(t *testing.T) {
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The Writer enforces per-CPU order, so build an out-of-order
	// stream by splicing two valid streams: the second stream's
	// records rewind time on CPU 2 and counter 9. Also exercised: no
	// topology record, a task (77) without a task record, and a
	// counter (9) with samples but no description.
	var first, second, empty bytes.Buffer
	w := trace.NewWriter(&first)
	must(w.WriteState(trace.StateEvent{CPU: 2, State: trace.StateTaskExec, Start: 500, End: 600, Task: 77}))
	must(w.WriteSample(trace.CounterSample{CPU: 5, Counter: 9, Time: 700, Value: 3}))
	must(w.Flush())
	w = trace.NewWriter(&second)
	must(w.WriteState(trace.StateEvent{CPU: 2, State: trace.StateIdle, Start: 0, End: 500}))
	must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateIdle, Start: 10, End: 610}))
	must(w.WriteSample(trace.CounterSample{CPU: 5, Counter: 9, Time: 20, Value: 1}))
	must(w.Flush())
	must(trace.NewWriter(&empty).Flush())
	data := append(first.Bytes(), second.Bytes()[empty.Len():]...)

	want, err := fromReaderSeq(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if want.NumCPUs() != 6 {
		t.Fatalf("NumCPUs = %d, want 6 (sample on CPU 5)", want.NumCPUs())
	}
	if _, ok := want.TaskByID(77); !ok {
		t.Fatal("task 77 not synthesized")
	}
	if want.Span != (Interval{Start: 0, End: 700}) {
		t.Fatalf("span = %+v", want.Span)
	}
	for _, workers := range []int{2, 8} {
		got, err := fromReader(bytes.NewReader(data), workers)
		if err != nil {
			t.Fatalf("fromReader(workers=%d): %v", workers, err)
		}
		equalTraces(t, want, got, "edge/workers="+itoa(workers))
	}
}

// TestLoadNegativeCPU: both load paths must reject a corrupt record
// with a negative CPU id with an error, not a panic.
func TestLoadNegativeCPU(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := w.WriteState(trace.StateEvent{CPU: -1, State: trace.StateIdle, Start: 0, End: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := fromReaderSeq(bytes.NewReader(data)); err == nil {
		t.Error("sequential load accepted negative CPU")
	}
	if _, err := fromReader(bytes.NewReader(data), 4); err == nil {
		t.Error("parallel load accepted negative CPU")
	}
}

// negativeNodeTrace hand-encodes what a validating Writer refuses to
// write: a topology whose first CPU sits on node 2^32-1 (-1 once it is
// an int32), then a region and an access to it from that CPU — the
// trace that indexed the communication matrix at [-1].
func negativeNodeTrace(t *testing.T) []byte {
	t.Helper()
	topo := []byte{1, 'm', 2, 2}                   // name, 2 nodes, 2 CPUs
	topo = binary.AppendUvarint(topo, 1<<32-1)     // CPU 0 on node -1
	topo = append(topo, 0 /* CPU 1 */, 0, 1, 1, 0) // distances
	var rest bytes.Buffer
	w := trace.NewWriter(&rest)
	if err := w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x1000, Size: 4096, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteComm(trace.CommEvent{Kind: trace.CommRead, CPU: 0, SrcCPU: -1, Time: 5, Task: 1, Addr: 0x1000, Size: 64}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	const header = 5 // magic and version
	out := append([]byte(nil), rest.Bytes()[:header]...)
	out = append(out, 1 /* topology record */, byte(len(topo)))
	out = append(out, topo...)
	return append(out, rest.Bytes()[header:]...)
}

// TestTopologyValidateAtEveryEntrance: a topology record with a node
// id consumers cannot index by is refused by every loader, by name,
// before anything is built on it.
func TestTopologyValidateAtEveryEntrance(t *testing.T) {
	data := negativeNodeTrace(t)
	for name, load := range map[string]func() (*Trace, error){
		"fromReaderSeq": func() (*Trace, error) { return fromReaderSeq(bytes.NewReader(data)) },
		"fromReader/4":  func() (*Trace, error) { return fromReader(bytes.NewReader(data), 4) },
		"FromReader":    func() (*Trace, error) { return FromReader(bytes.NewReader(data)) },
		"FromDecoder":   func() (*Trace, error) { return FromDecoder(trace.NewStreamReader(bytes.NewReader(data))) },
	} {
		if _, err := load(); err == nil || !strings.Contains(err.Error(), "NUMA node -1") {
			t.Errorf("%s: %v, want the topology refused for its node id", name, err)
		}
	}
}

// TestCounterByNameIndexed checks the name index against the linear
// scan semantics (first counter with the name wins).
func TestCounterByNameIndexed(t *testing.T) {
	tr := buildTestTrace(t)
	c, ok := tr.CounterByName("ctr")
	if !ok || c.Desc.ID != 1 {
		t.Fatalf("CounterByName(ctr) = %v, %v", c, ok)
	}
	if _, ok := tr.CounterByName("missing"); ok {
		t.Fatal("found nonexistent counter")
	}
	// Hand-built traces (no load-time index) fall back to scanning.
	manual := &Trace{Counters: []*Counter{{Desc: trace.CounterDesc{ID: 4, Name: "x"}}}}
	if c, ok := manual.CounterByName("x"); !ok || c.Desc.ID != 4 {
		t.Fatal("scan fallback broken")
	}
}

// TestTaskCommShared checks the pre-sized/shared-slice TaskComm
// contract.
func TestTaskCommShared(t *testing.T) {
	tr := buildTestTrace(t)
	task, ok := tr.TaskByID(10)
	if !ok {
		t.Fatal("task 10 missing")
	}
	evs := tr.TaskComm(task)
	if len(evs) != 2 {
		t.Fatalf("TaskComm = %d events, want 2", len(evs))
	}
	// Task 11 executes but has no communication: the result must be
	// the shared empty slice, not a fresh allocation.
	t11, _ := tr.TaskByID(11)
	if got := tr.TaskComm(t11); len(got) != 0 || got == nil {
		t.Fatalf("TaskComm(no comm) = %v, want shared empty slice", got)
	}
}

// TestCounterIndexConcurrent hammers the shared per-trace counter
// index from many goroutines; run under -race this proves the
// build-once guarantee.
func TestCounterIndexConcurrent(t *testing.T) {
	tr := buildTestTrace(t)
	c, ok := tr.CounterByName("ctr")
	if !ok {
		t.Fatal("counter missing")
	}
	var wg sync.WaitGroup
	trees := make([]interface{}, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ci := tr.CounterIndex()
			trees[i] = ci.Tree(c, 0)
			ci.RateTree(c, 0)
		}(i)
	}
	wg.Wait()
	for i := 1; i < 16; i++ {
		if trees[i] != trees[0] {
			t.Fatal("concurrent callers saw different trees")
		}
	}
	if tr.BuildCounterIndex(4) != tr.CounterIndex() {
		t.Fatal("BuildCounterIndex returned a different index")
	}
}

// BenchmarkFromReaderWorkers measures the ingest pipeline at explicit
// worker counts, independent of GOMAXPROCS, over a larger seidel
// trace. workers=1 is the sequential reference.
func BenchmarkFromReaderWorkers(b *testing.B) {
	data := seidelStream(b, 16, 8)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := fromReader(bytes.NewReader(data), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	if v < 10 {
		return string(rune('0' + v))
	}
	return string(rune('0'+v/10)) + string(rune('0'+v%10))
}

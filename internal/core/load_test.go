package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

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

// sameSlice is reflect.DeepEqual for a slice of plain records — equal
// elements, and nil only together — without the reflection, which a
// table of a million CPUs makes the whole cost of a comparison.
func sameSlice[T comparable](a, b []T) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// equalTraces compares every externally observable part of two loaded
// traces.
func equalTraces(t *testing.T, want, got *Trace, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Topology, got.Topology) {
		t.Fatalf("%s: topology differs", label)
	}
	if len(want.CPUs) != len(got.CPUs) {
		t.Fatalf("%s: CPUs = %d, want %d", label, len(got.CPUs), len(want.CPUs))
	}
	for i := range want.CPUs {
		w, g := &want.CPUs[i], &got.CPUs[i]
		if !sameSlice(w.States.Rows, g.States.Rows) || !sameSlice(w.Discrete.Rows, g.Discrete.Rows) || !sameSlice(w.Comm.Rows, g.Comm.Rows) {
			t.Fatalf("%s: CPU %d event arrays differ (states %d/%d, discrete %d/%d, comm %d/%d)",
				label, i,
				len(g.States.Rows), len(w.States.Rows), len(g.Discrete.Rows), len(w.Discrete.Rows), len(g.Comm.Rows), len(w.Comm.Rows))
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

// loadWorkers are the worker counts the batch loader is held to its
// reference at: one (ReadBatched's inline arm, par.Do's inline loops),
// and counts below, at and above the number of batches and cores.
var loadWorkers = []int{1, 2, 3, 4, 8}

// streamRef loads a stream the other way core builds a Trace: the
// pollable stream decoder drained through the live applier. It is the
// independent reference the batch loader is compared against.
func streamRef(data []byte) (*Trace, error) {
	return FromDecoder(trace.NewStreamReader(bytes.NewReader(data)))
}

// TestLoadParallelMatchesSequential proves the batch loader builds, at
// every worker count, exactly the trace the independent live path builds
// (stream decoder into core.Live, drained to EOF).
func TestLoadParallelMatchesSequential(t *testing.T) {
	data := seidelStream(t, 6, 4)
	want, err := streamRef(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range loadWorkers {
		got, err := fromReader(bytes.NewReader(data), workers)
		if err != nil {
			t.Fatalf("fromReader(workers=%d): %v", workers, err)
		}
		equalTraces(t, want, got, "seidel/workers="+itoa(workers))
		assertExactColumns(t, got, "seidel/workers="+itoa(workers))
	}
}

// assertExactColumns checks what the scatter promises beyond equality:
// every per-CPU array of the batch load is exactly as long as its
// allocation, and nil where the stream held no record for it.
func assertExactColumns(t *testing.T, got *Trace, label string) {
	t.Helper()
	check := func(what string, cpu, length, capacity int, isNil bool) {
		if capacity != length || isNil != (length == 0) {
			t.Errorf("%s: CPU %d %s: len %d cap %d nil %v", label, cpu, what, length, capacity, isNil)
		}
	}
	for i := range got.CPUs {
		g := &got.CPUs[i]
		check("states", i, len(g.States.Rows), cap(g.States.Rows), g.States.Rows == nil)
		check("discrete", i, len(g.Discrete.Rows), cap(g.Discrete.Rows), g.Discrete.Rows == nil)
		check("comm", i, len(g.Comm.Rows), cap(g.Comm.Rows), g.Comm.Rows == nil)
	}
	for _, c := range got.Counters {
		check("counter "+c.Desc.Name, -1, len(c.PerCPU), cap(c.PerCPU), c.PerCPU == nil)
		for cpu, per := range c.PerCPU {
			check("samples of "+c.Desc.Name, cpu, len(per.Rows), cap(per.Rows), per.Rows == nil)
		}
	}
}

// TestLoadParallelEdgeCases loads handcrafted streams exercising the
// tolerance paths and the corners of the scatter: no topology record,
// out-of-order producers, sample-only counters, tasks synthesized from
// execution states, streams without a per-CPU record, columns that span
// many batches, and a stream that fails in its last batch.
func TestLoadParallelEdgeCases(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	stream := func(write func(w *trace.Writer)) []byte {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		write(w)
		must(w.Flush())
		return buf.Bytes()
	}
	header := len(stream(func(*trace.Writer) {}))
	idle := func(w *trace.Writer, cpu int32, i int) {
		must(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: int64(i) * 10, End: int64(i)*10 + 10}))
	}
	// Enough records of one CPU to span more than three decode batches.
	const long = 4*4096 + 17

	// The Writer enforces per-CPU order, so build an out-of-order
	// stream by splicing two valid streams: the second stream's
	// records rewind time on CPU 2 and counter 9. Also exercised: no
	// topology record, a task (77) without a task record, and a
	// counter (9) with samples but no description.
	first := stream(func(w *trace.Writer) {
		must(w.WriteState(trace.StateEvent{CPU: 2, State: trace.StateTaskExec, Start: 500, End: 600, Task: 77}))
		must(w.WriteSample(trace.CounterSample{CPU: 5, Counter: 9, Time: 700, Value: 3}))
	})
	second := stream(func(w *trace.Writer) {
		must(w.WriteState(trace.StateEvent{CPU: 2, State: trace.StateIdle, Start: 0, End: 500}))
		must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateIdle, Start: 10, End: 610}))
		must(w.WriteSample(trace.CounterSample{CPU: 5, Counter: 9, Time: 20, Value: 1}))
	})
	spliced := append(first, second[header:]...)
	want, err := streamRef(spliced)
	must(err)
	if want.NumCPUs() != 3 || want.RowOf(5) != 2 {
		t.Fatalf("NumCPUs = %d, want 3 (CPUs 0 and 2, and the sample on CPU 5)", want.NumCPUs())
	}
	if _, ok := want.TaskByID(77); !ok {
		t.Fatal("task 77 not synthesized")
	}
	if want.Span != (Interval{Start: 0, End: 700}) {
		t.Fatalf("span = %+v", want.Span)
	}

	long2 := stream(func(w *trace.Writer) {
		for i := 0; i < long; i++ {
			idle(w, 0, i)
			idle(w, 3, i)
			must(w.WriteSample(trace.CounterSample{CPU: 3, Counter: 1, Time: int64(i), Value: int64(i)}))
		}
	})
	cases := []struct {
		name    string
		data    []byte
		wantErr bool
	}{
		{"out of order", spliced, false},
		{"no per-CPU record", stream(func(w *trace.Writer) {
			must(w.WriteTaskType(trace.TaskType{ID: 1, Name: "t"}))
			must(w.WriteTask(trace.Task{ID: 4, Type: 1, Created: 3, CreatorCPU: -1}))
			must(w.WriteCounterDesc(trace.CounterDesc{ID: 2, Name: "quiet"}))
			must(w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x2000, Size: 64}))
		}), false},
		{"samples above every state", stream(func(w *trace.Writer) {
			idle(w, 1, 0)
			must(w.WriteSample(trace.CounterSample{CPU: 6, Counter: 1, Time: 5, Value: 1}))
			must(w.WriteSample(trace.CounterSample{CPU: 4, Counter: 2, Time: 6, Value: 2}))
		}), false},
		{"counters described late or never sampled", stream(func(w *trace.Writer) {
			must(w.WriteSample(trace.CounterSample{CPU: 0, Counter: 8, Time: 1, Value: 1}))
			must(w.WriteCounterDesc(trace.CounterDesc{ID: 5, Name: "never sampled", Monotonic: true}))
			for i := 0; i < long; i++ { // the description arrives batches later
				idle(w, 1, i)
			}
			must(w.WriteCounterDesc(trace.CounterDesc{ID: 8, Name: "described late"}))
			must(w.WriteSample(trace.CounterSample{CPU: 2, Counter: 8, Time: 2, Value: 2}))
		}), false},
		{"columns spanning many batches", long2, false},
		// A state whose payload ends inside its first varint, after
		// batches that decoded cleanly.
		{"decode error in the last batch", append(append([]byte(nil), long2...), 4, 1, 0x80), true},
	}
	for _, tc := range cases {
		want, err := streamRef(tc.data)
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: FromDecoder: %v", tc.name, err)
		}
		for _, workers := range loadWorkers {
			label := tc.name + "/workers=" + itoa(workers)
			got, err := fromReader(bytes.NewReader(tc.data), workers)
			if tc.wantErr {
				if err == nil || got != nil {
					t.Errorf("%s: trace %v, error %v; want the decode error and no trace", label, got != nil, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			equalTraces(t, want, got, label)
			assertExactColumns(t, got, label)
		}
	}
}

// domEntries returns how many CPUs a trace's dominance index has built
// pyramids for, without asking it anything.
func domEntries(tr *Trace) int {
	n, di := 0, tr.DomIndex()
	for i := range di.cpus {
		if di.cpus[i].all != nil {
			n++
		}
	}
	return n
}

// TestLoadSparseCPUIDs: CPU ids are whatever the producer wrote, so a
// stream may use CPUs as far apart as the decoder admits. What a load
// keeps per batch must be sized by the batch's records, and what it
// builds per CPU by the CPUs it holds, not by the largest id: the batch
// loader, inline and on workers, builds the same trace as the live
// path, one row per CPU, and no load indexes a CPU that has no states.
func TestLoadSparseCPUIDs(t *testing.T) {
	const far = trace.MaxCPUID
	// measure returns what open built and the bytes it allocated doing so.
	measure := func(t *testing.T, label string, open func() (*Trace, error)) (*Trace, uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := open()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return tr, after.TotalAlloc - before.TotalAlloc
	}
	// load measures a load of a stream in which states CPUs have states:
	// its dominance index must hold those and no other before any query.
	load := func(t *testing.T, label string, states int, open func() (*Trace, error)) (*Trace, uint64) {
		t.Helper()
		tr, alloc := measure(t, label, open)
		if n := domEntries(tr); n != states {
			t.Errorf("%s: dominance index holds %d CPUs before any query, want the %d with states", label, n, states)
		}
		return tr, alloc
	}
	batch := func(data []byte, workers int) func() (*Trace, error) {
		return func() (*Trace, error) { return fromReader(bytes.NewReader(data), workers) }
	}

	// Fifteen bytes of trace: one row, a load costs what the decode
	// pipeline does, and the row answers.
	t.Run("one record at MaxCPUID", func(t *testing.T) {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		ev := trace.StateEvent{CPU: far, State: trace.StateIdle, Start: 0, End: 10}
		if err := w.WriteState(ev); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		var want *Trace
		for _, l := range []struct {
			label string
			open  func() (*Trace, error)
		}{
			{"FromDecoder", func() (*Trace, error) { return streamRef(data) }},
			{"workers=1", batch(data, 1)},
			{"workers=4", batch(data, 4)},
		} {
			tr, alloc := load(t, l.label, 1, l.open)
			if alloc > 1<<20 {
				t.Errorf("%s allocated %d bytes for a %d byte stream: over 1 MB", l.label, alloc, len(data))
			}
			if tr.NumCPUs() != 1 || tr.CPUs[0].ID != far {
				t.Errorf("%s: %d rows, want the one of CPU %d", l.label, tr.NumCPUs(), far)
			}
			if want == nil {
				want = tr
			} else {
				equalTraces(t, want, tr, l.label)
			}
			got, ok, indexed := tr.DomIndex().CPU(tr, tr.RowOf(far)).DominantState(0, 10)
			if !ok || !indexed || got != ev {
				t.Errorf("%s: dominant state on the far CPU = %+v, %v, %v", l.label, got, ok, indexed)
			}
			if _, ok, indexed := tr.DomIndex().CPU(tr, tr.RowOf(7)).DominantState(0, 10); ok || !indexed {
				t.Errorf("%s: a CPU the trace does not hold answered %v, indexed %v", l.label, ok, indexed)
			}
		}
	})

	// Two CPUs at the ends of the id range over 40 batches and more: the
	// batch load allocates no more than twice what the live load does.
	t.Run("two CPUs far apart", func(t *testing.T) {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for i := 0; i < 40*4096; i++ {
			cpu, tm := int32(i%2)*far, int64(i)*10
			err := w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: tm, End: tm + 10})
			if err == nil && cpu == far && i%8 == 1 {
				err = w.WriteSample(trace.CounterSample{CPU: cpu, Counter: 3, Time: tm, Value: int64(i)})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		want, live := load(t, "FromDecoder", 2, func() (*Trace, error) { return streamRef(data) })
		for _, workers := range []int{1, 4} {
			label := "workers=" + itoa(workers)
			got, alloc := load(t, label, 2, batch(data, workers))
			equalTraces(t, want, got, label)
			assertExactColumns(t, got, label)
			if alloc > 2*live {
				t.Errorf("%s allocated %d bytes, the live load %d: more than twice", label, alloc, live)
			}
		}

		// The per-CPU tables hide a small per-batch table in that
		// comparison, so weigh the scatter alone: it may allocate the arrays
		// themselves and the tables of totals per stream (32 bytes a CPU,
		// and 8 for the one counter's samples), not one per batch.
		tr := newTrace()
		var batches []*trace.RecordBatch
		err := trace.ReadBatched(bytes.NewReader(data), 4, func(b *trace.RecordBatch) error {
			for _, id := range b.CounterIDs {
				tr.counterFor(id)
			}
			batches = append(batches, b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		events, samples := want.EventCounts()
		rows := uint64(want.NumCPUs())
		if rows != 2 {
			t.Fatalf("%d rows, want 2", rows)
		}
		arrays := uint64(events)*uint64(unsafe.Sizeof(trace.StateEvent{})) + uint64(samples)*uint64(unsafe.Sizeof(trace.CounterSample{})) +
			rows*uint64(unsafe.Sizeof(CPUData{})+unsafe.Sizeof(Column[trace.CounterSample]{}))
		_, scattered := measure(t, "scatter", func() (*Trace, error) { tr.scatter(batches, 4); return tr, nil })
		if limit := arrays + rows*(32+8) + 1<<20; scattered > limit {
			t.Errorf("scatter of %d batches allocated %d bytes for %d bytes of arrays (limit %d)", len(batches), scattered, arrays, limit)
		}
	})
}

// TestLoadAllocationPin keeps the parallel load's allocations where
// writing each event once, and indexing the states without copying
// them, put them. Growing every batch slice and every per-CPU column by
// append, the load of this fixture on four workers allocated 4 503 568
// bytes; writing each event once, 2 152 000, of which the dominance
// index's copies of every interval were 236 000; it now allocates
// 1 918 000, and fails here 10 % above that.
func TestLoadAllocationPin(t *testing.T) {
	const ceiling = 2_110_000
	data := seidelStream(t, 12, 6)
	load := func() {
		if _, err := fromReader(bytes.NewReader(data), 4); err != nil {
			t.Fatal(err)
		}
	}
	load() // warm the runtime's own one-off allocations
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	load()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("fromReader allocated %d bytes on a %d byte stream: more than the %d it may", got, len(data), ceiling)
	}
}

// TestLoadAllocationCount pins how many times a batch load of a fixed
// 16×8 Seidel trace allocates, inline and on two workers. When task
// records found their entry through a map, samples their pair through
// another, and the inline reader grew its batches by append, the load
// allocated 1 099 times inline and 602 times on two workers; it now
// allocates 533 and 559. The race detector's instrumentation allocates
// more, so the pin holds only without it.
func TestLoadAllocationCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	data := seidelStream(t, 16, 8)
	for _, c := range []struct{ workers, ceiling int }{{1, 560}, {2, 580}} {
		load := func() {
			if _, err := fromReader(bytes.NewReader(data), c.workers); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, load)
		t.Logf("%d workers: %.0f allocations a load", c.workers, allocs)
		if allocs > float64(c.ceiling) {
			t.Errorf("a load on %d workers allocates %.0f times, want at most %d", c.workers, allocs, c.ceiling)
		}
	}
}

// TestLoadNegativeCPU: the batch loader, inline and on workers, and the
// live path must reject a corrupt record with a negative CPU id with an
// error, not a panic.
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
	for _, workers := range []int{1, 4} {
		if _, err := fromReader(bytes.NewReader(data), workers); err == nil {
			t.Errorf("batch load on %d workers accepted negative CPU", workers)
		}
	}
	if _, err := streamRef(data); err == nil {
		t.Error("live load accepted negative CPU")
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
		"fromReader/4": func() (*Trace, error) { return fromReader(bytes.NewReader(data), 4) },
		"FromReader":   func() (*Trace, error) { return FromReader(bytes.NewReader(data)) },
		"FromDecoder":  func() (*Trace, error) { return streamRef(data) },
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

// TestTaskCommShared: a task's accesses are a view into the trace's
// column, its own events among them, and asking for them allocates
// nothing, also for a task that executed without communicating.
func TestTaskCommShared(t *testing.T) {
	tr := buildTestTrace(t)
	task, ok := tr.TaskByID(10)
	if !ok {
		t.Fatal("task 10 missing")
	}
	if evs := taskEvents(tr, task); len(evs) != 2 {
		t.Fatalf("task 10 has %d own events, want 2", len(evs))
	}
	t11, _ := tr.TaskByID(11)
	if got := taskEvents(tr, t11); len(got) != 0 {
		t.Fatalf("task 11 has own events %v, want none", got)
	}
	for _, tk := range []*TaskInfo{task, t11} {
		if n := testing.AllocsPerRun(10, func() { tr.TaskAccesses(tk) }); n != 0 {
			t.Errorf("TaskAccesses(task %d) allocated %v times", tk.ID, n)
		}
	}
}

// TestCounterIndexConcurrent hammers one counter's trees on one row
// from many goroutines; run under -race this proves the build-once
// guarantee.
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

func itoa(v int) string {
	if v < 10 {
		return string(rune('0' + v))
	}
	return string(rune('0'+v/10)) + string(rune('0'+v%10))
}

// TestBatchLoadDropsTaskMap: a native trace's task table is dense, so
// the batch loader finds every task record's entry by its slot and keeps
// no task-ID map, and TaskByID answers every task from its slot without
// building one; an unknown ID is still not found.
func TestBatchLoadDropsTaskMap(t *testing.T) {
	tr, err := FromReader(bytes.NewReader(seidelStream(t, 4, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.taskOff != nil {
		t.Fatalf("the load kept a task-ID map of %d entries", len(tr.taskOff))
	}
	first := tr.Tasks[0].ID
	for i := range tr.Tasks {
		if tr.Tasks[i].ID != first+trace.TaskID(i) {
			t.Fatalf("precondition: task %d has ID %d, the table is not dense from %d", i, tr.Tasks[i].ID, first)
		}
		if got, ok := tr.TaskByID(tr.Tasks[i].ID); !ok || got != &tr.Tasks[i] {
			t.Fatalf("TaskByID(%d) = (%p, %v), want entry %d", tr.Tasks[i].ID, got, ok, i)
		}
	}
	for _, id := range []trace.TaskID{first - 1, first + trace.TaskID(len(tr.Tasks)), math.MaxUint64} {
		if got, ok := tr.TaskByID(id); ok {
			t.Errorf("TaskByID(%d) of an unknown ID = %+v", id, *got)
		}
	}
	if tr.taskOff != nil {
		t.Fatalf("TaskByID built a task-ID map of %d entries on a dense table", len(tr.taskOff))
	}
}

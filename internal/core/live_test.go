package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/openstream/aftermath/internal/trace"
)

// liveTestBytes writes a compact trace exercising every record kind,
// including a task whose record arrives after its execution state and
// a counter described after its first samples.
func liveTestBytes(t *testing.T) []byte { return liveTestStream(t, 200) }

// liveTestStream is liveTestBytes over the given number of tasks, one
// execution and one idle state, an access and a sample each, dealt to
// four CPUs in turn.
func liveTestStream(t *testing.T, tasks int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(trace.Topology{Name: "live-m", NumNodes: 2, NodeOfCPU: []int32{0, 0, 1, 1}, Distance: []int32{0, 1, 1, 0}}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Addr: 0x40, Name: "stencil"}))
	must(w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x1000, Size: 4096, Node: 0}))
	must(w.WriteRegion(trace.MemRegion{ID: 2, Addr: 0x8000, Size: 4096, Node: 1}))
	for i := 0; i < tasks; i++ {
		cpu := int32(i % 4)
		t0 := int64(100 * i)
		id := trace.TaskID(i + 1)
		// Every third task's record trails its execution events, so
		// checkpoints can fall between execution and registration.
		if i%3 != 0 {
			must(w.WriteTask(trace.Task{ID: id, Type: 1, Created: t0, CreatorCPU: cpu}))
		}
		must(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateTaskExec, Start: t0, End: t0 + 80, Task: id}))
		must(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: t0 + 80, End: t0 + 100}))
		must(w.WriteComm(trace.CommEvent{Kind: trace.CommRead, CPU: cpu, SrcCPU: -1, Time: t0, Task: id, Addr: 0x1000, Size: 64}))
		must(w.WriteSample(trace.CounterSample{CPU: cpu, Counter: 9, Time: t0, Value: int64(i) * 7}))
		if i%3 == 0 {
			must(w.WriteTask(trace.Task{ID: id, Type: 1, Created: t0, CreatorCPU: cpu}))
		}
	}
	must(w.WriteCounterDesc(trace.CounterDesc{ID: 9, Name: "cycles", Monotonic: true}))
	must(w.Flush())
	return buf.Bytes()
}

// compareTrace asserts that every exported part of two traces is
// deeply equal.
func compareTrace(t *testing.T, ctx string, got, want *Trace) {
	t.Helper()
	if !reflect.DeepEqual(got.Topology, want.Topology) {
		t.Errorf("%s: topology differs", ctx)
	}
	if got.Span != want.Span {
		t.Errorf("%s: span = %+v, want %+v", ctx, got.Span, want.Span)
	}
	if !reflect.DeepEqual(got.CPUs, want.CPUs) {
		t.Errorf("%s: per-CPU event arrays differ", ctx)
	}
	if !reflect.DeepEqual(got.Types, want.Types) {
		t.Errorf("%s: type tables differ", ctx)
	}
	if !reflect.DeepEqual(got.Tasks, want.Tasks) {
		t.Errorf("%s: task tables differ", ctx)
	}
	if !reflect.DeepEqual(got.Regions, want.Regions) {
		t.Errorf("%s: region tables differ", ctx)
	}
	if len(got.Counters) != len(want.Counters) {
		t.Fatalf("%s: %d counters, want %d", ctx, len(got.Counters), len(want.Counters))
	}
	for i := range got.Counters {
		if got.Counters[i].Desc != want.Counters[i].Desc {
			t.Errorf("%s: counter %d desc differs", ctx, i)
		}
		if !reflect.DeepEqual(got.Counters[i].PerCPU, want.Counters[i].PerCPU) {
			t.Errorf("%s: counter %d samples differ", ctx, i)
		}
	}
}

// TestLiveSnapshotEqualsLoad: at every record-aligned checkpoint, the
// published snapshot equals a cold load of the same stream prefix,
// and its counter index (seeded via mmtree append mode) answers
// queries identically to a freshly built one.
func TestLiveSnapshotEqualsLoad(t *testing.T) {
	data := liveTestBytes(t)
	g := &limitedByteReader{data: data}
	sr := trace.NewStreamReader(g)
	lv := NewLive()
	step := len(data)/7 + 1
	for g.limit < len(data) {
		g.limit += step
		if g.limit > len(data) {
			g.limit = len(data)
		}
		if _, err := lv.Feed(sr); err != nil {
			t.Fatal(err)
		}
		snap, _ := lv.Snapshot()
		off := sr.Consumed()
		if off == 0 {
			continue
		}
		cold, err := FromReader(bytes.NewReader(data[:off]))
		if err != nil {
			t.Fatalf("cold load of %d-byte prefix: %v", off, err)
		}
		compareTrace(t, "prefix", snap, cold)
		// The seeded index must agree with the lazily built one.
		if len(snap.Counters) > 0 {
			c, cc := snap.Counters[0], cold.Counters[0]
			for cpu := range c.PerCPU {
				gt := snap.CounterIndex().Tree(c, int32(cpu))
				wt := cold.CounterIndex().Tree(cc, int32(cpu))
				if gt.Len() != wt.Len() {
					t.Fatalf("seeded tree Len %d, want %d", gt.Len(), wt.Len())
				}
				gmn, gmx, gok := gt.MinMax(snap.Span.Start, snap.Span.End)
				wmn, wmx, wok := wt.MinMax(cold.Span.Start, cold.Span.End)
				if gmn != wmn || gmx != wmx || gok != wok {
					t.Fatalf("seeded tree MinMax differs on cpu %d", cpu)
				}
				grt := snap.CounterIndex().RateTree(c, int32(cpu))
				wrt := cold.CounterIndex().RateTree(cc, int32(cpu))
				if grt.Len() != wrt.Len() {
					t.Fatalf("seeded rate tree Len %d, want %d", grt.Len(), wrt.Len())
				}
			}
		}
	}
	if err := sr.Done(); err != nil {
		t.Fatal(err)
	}
}

// readerStream writes a seeded trace for TestLiveOldSnapshotReaders:
// four CPUs of back-to-back states in random worker states, and two
// counters sampled on each with random values, interleaved in time.
func readerStream(t *testing.T, rng *rand.Rand, states int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	var err error
	for _, id := range []trace.CounterID{1, 2} {
		if err == nil {
			err = w.WriteCounterDesc(trace.CounterDesc{ID: id, Name: fmt.Sprintf("c%d", id)})
		}
	}
	var clock [4]int64
	for i := 0; i < states && err == nil; i++ {
		for cpu := int32(0); cpu < 4 && err == nil; cpu++ {
			t0 := clock[cpu]
			clock[cpu] += 1 + rng.Int63n(40)
			err = w.WriteState(trace.StateEvent{CPU: cpu, State: trace.WorkerState(rng.Intn(trace.NumWorkerStates)), Start: t0, End: clock[cpu]})
			for id := trace.CounterID(1); i%3 == 0 && id <= 2 && err == nil; id++ {
				err = w.WriteSample(trace.CounterSample{CPU: cpu, Counter: id, Time: t0, Value: rng.Int63n(1 << 20)})
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLiveOldSnapshotReaders: readers keep querying every published
// snapshot while the writer extends the chains those snapshots' indexes
// are generations of — pyramid levels, rates and refs grown in place,
// past the lengths the older generations read. Every answer (dominant
// state, per-state cover, value and rate MinMax on random windows)
// must equal the same query on a batch load of the bytes the snapshot
// had consumed, and, under the race detector, no reader may see a
// write.
func TestLiveOldSnapshotReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	data := readerStream(t, rng, 5000)
	type epoch struct{ snap, ref *Trace }
	var (
		mu     sync.Mutex
		epochs []epoch
		done   atomic.Bool
		wg     sync.WaitGroup
	)
	// query asks one snapshot and its batch load the same questions about
	// one random window of one CPU (one past the last included).
	query := func(rng *rand.Rand, e epoch) bool {
		span := e.ref.Span.Duration()
		t0 := e.ref.Span.Start - 5 + rng.Int63n(span+10)
		t1 := t0 + rng.Int63n(span/4+2)
		cpu := int32(rng.Intn(e.ref.NumCPUs() + 1))
		got, want := e.snap.DomIndex().CPU(e.snap, cpu), e.ref.DomIndex().CPU(e.ref, cpu)
		gev, gok, _ := got.DominantState(t0, t1)
		if wev, wok, _ := want.DominantState(t0, t1); gev != wev || gok != wok {
			t.Errorf("cpu %d: DominantState(%d, %d) = %+v, %v; the batch load says %+v, %v", cpu, t0, t1, gev, gok, wev, wok)
			return false
		}
		for k := 0; k < trace.NumWorkerStates; k++ {
			st := trace.WorkerState(k)
			if g, w := got.StateCover(st, t0, t1), want.StateCover(st, t0, t1); g != w {
				t.Errorf("cpu %d: StateCover(%v, %d, %d) = %d; the batch load says %d", cpu, st, t0, t1, g, w)
				return false
			}
		}
		for i, c := range e.snap.Counters {
			rc := e.ref.Counters[i]
			for _, rate := range []bool{false, true} {
				gt, wt := e.snap.CounterIndex().Tree(c, cpu), e.ref.CounterIndex().Tree(rc, cpu)
				if rate {
					gt, wt = e.snap.CounterIndex().RateTree(c, cpu), e.ref.CounterIndex().RateTree(rc, cpu)
				}
				gmn, gmx, gok := gt.MinMax(t0, t1)
				if wmn, wmx, wok := wt.MinMax(t0, t1); gmn != wmn || gmx != wmx || gok != wok {
					t.Errorf("counter %d cpu %d (rate %v): MinMax(%d, %d) = %d, %d, %v; the batch load says %d, %d, %v",
						c.Desc.ID, cpu, rate, t0, t1, gmn, gmx, gok, wmn, wmx, wok)
					return false
				}
			}
		}
		return true
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for last := false; !last; {
				last = done.Load()
				mu.Lock()
				seen := epochs
				mu.Unlock()
				for q := 0; q < 20 && len(seen) > 0; q++ {
					if !query(rng, seen[rng.Intn(len(seen))]) {
						return
					}
				}
			}
		}(rand.New(rand.NewSource(int64(r))))
	}

	g := &limitedByteReader{data: data}
	sr := trace.NewStreamReader(g)
	lv := NewLive()
	for k := 1; k <= 30; k++ {
		g.limit = len(data) * k / 30
		if _, err := lv.Feed(sr); err != nil {
			t.Fatal(err)
		}
		snap, _ := lv.Snapshot()
		ref, err := FromReader(bytes.NewReader(data[:sr.Consumed()]))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		epochs = append(epochs, epoch{snap, ref})
		mu.Unlock()
	}
	done.Store(true)
	wg.Wait()
	for _, e := range epochs {
		for q := 0; q < 20 && query(rng, e); q++ {
		}
	}
}

// TestLiveEpochAdvances: epochs increment only when records actually
// arrive, and each snapshot stays frozen once published.
func TestLiveEpochAdvances(t *testing.T) {
	data := liveTestBytes(t)
	g := &limitedByteReader{data: data}
	sr := trace.NewStreamReader(g)
	lv := NewLive()
	if _, epoch := lv.Snapshot(); epoch != 0 {
		t.Fatalf("initial epoch = %d, want 0", epoch)
	}
	if n, err := lv.Feed(sr); n != 0 || err != nil {
		t.Fatalf("Feed on empty stream = (%d, %v)", n, err)
	}
	if _, epoch := lv.Snapshot(); epoch != 0 {
		t.Fatalf("epoch advanced without data")
	}
	g.limit = len(data) / 2
	if _, err := lv.Feed(sr); err != nil {
		t.Fatal(err)
	}
	first, epoch1 := lv.Snapshot()
	if epoch1 != 1 {
		t.Fatalf("epoch after first feed = %d, want 1", epoch1)
	}
	tasksBefore := len(first.Tasks)
	spanBefore := first.Span
	g.limit = len(data)
	if _, err := lv.Feed(sr); err != nil {
		t.Fatal(err)
	}
	_, epoch2 := lv.Snapshot()
	if epoch2 != 2 {
		t.Fatalf("epoch after second feed = %d, want 2", epoch2)
	}
	if len(first.Tasks) != tasksBefore || first.Span != spanBefore {
		t.Fatal("published snapshot mutated by a later append")
	}
}

// TestLiveOutOfOrderProducer: a producer that violates per-CPU order
// is repaired per snapshot exactly like a batch load repairs it.
func TestLiveOutOfOrderProducer(t *testing.T) {
	mk := func() *trace.RecordBatch {
		b := &trace.RecordBatch{}
		for i := 0; i < 50; i++ {
			// Descending starts on CPU 0; samples descending on CPU 1.
			t0 := int64(1000 - 10*i)
			b.States = append(b.States, trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Start: t0, End: t0 + 5, Task: trace.TaskID(i + 1)})
			b.Samples = append(b.Samples, trace.CounterSample{CPU: 1, Counter: 2, Time: t0, Value: int64(i)})
		}
		b.CounterIDs = []trace.CounterID{2}
		return b
	}
	lv := NewLive()
	if err := lv.Append(mk()); err != nil {
		t.Fatal(err)
	}
	snap, _ := lv.Publish()

	// The Writer enforces ordering, so a byte-level reference load is
	// not constructible here; check the repaired invariants directly.
	states := snap.CPUs[0].States.Rows
	for i := 1; i < len(states); i++ {
		if states[i].Start < states[i-1].Start {
			t.Fatal("snapshot states not sorted after out-of-order append")
		}
	}
	samples := snap.Counters[0].PerCPU[1].Rows
	for i := 1; i < len(samples); i++ {
		if samples[i].Time < samples[i-1].Time {
			t.Fatal("snapshot samples not sorted after out-of-order append")
		}
	}
	// Execution placement must reflect the sorted order (last writer
	// wins per task; every task has one exec here).
	for _, task := range snap.Tasks {
		if task.ExecCPU != 0 {
			t.Fatalf("task %d placed on cpu %d", task.ID, task.ExecCPU)
		}
	}
	if snap.Span.Start != 510 || snap.Span.End != 1005 {
		t.Fatalf("span = %+v, want [510,1005]", snap.Span)
	}
}

// TestAppendRejectsWholeBatch: a batch with an implausible CPU id in
// any family is rejected before anything of it is applied — no events,
// no task, type or counter registrations — so a later Publish (Feed
// publishes whatever a failing poll appended) cannot expose half of it.
func TestAppendRejectsWholeBatch(t *testing.T) {
	lv := NewLive()
	good := &trace.RecordBatch{
		Tasks:  []trace.Task{{ID: 1, Type: 1}},
		States: []trace.StateEvent{{CPU: 0, State: trace.StateTaskExec, Start: 0, End: 10, Task: 1}},
	}
	if err := lv.Append(good); err != nil {
		t.Fatal(err)
	}
	before, _ := lv.Publish()
	wantEvents, wantSamples := before.EventCounts()

	for name, poison := range map[string]func(*trace.RecordBatch){
		"states":   func(b *trace.RecordBatch) { b.States = append(b.States, trace.StateEvent{CPU: -1}) },
		"discrete": func(b *trace.RecordBatch) { b.Discrete = []trace.DiscreteEvent{{CPU: trace.MaxCPUID + 1}} },
		"comms":    func(b *trace.RecordBatch) { b.Comms = []trace.CommEvent{{CPU: trace.MaxCPUID + 1}} },
		"samples": func(b *trace.RecordBatch) {
			b.Samples = []trace.CounterSample{{CPU: trace.MaxCPUID + 1, Counter: 9}}
		},
		"topology": func(b *trace.RecordBatch) {
			b.Topologies = []trace.Topology{{Name: "bad", NumNodes: 2, NodeOfCPU: []int32{-1, 0}, Distance: make([]int32, 4)}}
		},
	} {
		bad := &trace.RecordBatch{
			TaskTypes:  []trace.TaskType{{ID: 5, Name: "late"}},
			Tasks:      []trace.Task{{ID: 2, Type: 5}},
			CounterIDs: []trace.CounterID{9},
			States:     []trace.StateEvent{{CPU: 1, State: trace.StateIdle, Start: 10, End: 20}},
		}
		poison(bad)
		if err := lv.Append(bad); err == nil {
			t.Fatalf("%s: batch with an implausible CPU or node id accepted", name)
		}
		after, _ := lv.Publish()
		if ev, sm := after.EventCounts(); ev != wantEvents || sm != wantSamples {
			t.Errorf("%s: EventCounts (%d, %d) after a rejected batch, want (%d, %d)", name, ev, sm, wantEvents, wantSamples)
		}
		if len(after.Tasks) != len(before.Tasks) || len(after.Types) != len(before.Types) ||
			len(after.Counters) != len(before.Counters) || after.NumCPUs() != before.NumCPUs() ||
			!reflect.DeepEqual(after.Topology, before.Topology) {
			t.Errorf("%s: rejected batch left %d tasks, %d types, %d counters, %d CPUs, topology %+v; want %d, %d, %d, %d, %+v", name,
				len(after.Tasks), len(after.Types), len(after.Counters), after.NumCPUs(), after.Topology,
				len(before.Tasks), len(before.Types), len(before.Counters), before.NumCPUs(), before.Topology)
		}
	}
}

// limitedByteReader mirrors the trace package's test reader: data up
// to limit, io.EOF beyond.
type limitedByteReader struct {
	data  []byte
	limit int
	off   int
}

func (g *limitedByteReader) Read(p []byte) (int, error) {
	if g.off >= g.limit {
		return 0, io.EOF
	}
	n := copy(p, g.data[g.off:g.limit])
	g.off += n
	return n, nil
}

package core

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/openstream/aftermath/internal/trace"
)

// recordStream is a trace written one record at a time: ends[i] is the
// byte offset just past record i, so data[:ends[i]] is a whole stream.
type recordStream struct {
	data []byte
	ends []int
}

// streamBuilder writes a recordStream, flushing after every record.
type streamBuilder struct {
	t    *testing.T
	buf  bytes.Buffer
	w    *trace.Writer
	ends []int
}

func newStreamBuilder(t *testing.T) *streamBuilder {
	b := &streamBuilder{t: t}
	b.w = trace.NewWriter(&b.buf)
	return b
}

func (b *streamBuilder) add(err error) {
	b.t.Helper()
	if err == nil {
		err = b.w.Flush()
	}
	if err != nil {
		b.t.Fatal(err)
	}
	b.ends = append(b.ends, b.buf.Len())
}

func (b *streamBuilder) stream() recordStream {
	return recordStream{data: b.buf.Bytes(), ends: b.ends}
}

// publishEach feeds rs to a fresh Live, publishing after chunk() more
// records each time, and hands every snapshot to check with the byte
// length of the prefix it covers.
func publishEach(t *testing.T, rs recordStream, chunk func() int, check func(snap *Trace, prefix int)) {
	t.Helper()
	g := &limitedByteReader{data: rs.data}
	sr := trace.NewStreamReader(g)
	lv := NewLive()
	for at := 0; at < len(rs.ends); {
		at = min(at+max(chunk(), 1), len(rs.ends))
		g.limit = rs.ends[at-1]
		if _, err := lv.Feed(sr); err != nil {
			t.Fatal(err)
		}
		if got := sr.Consumed(); got != int64(g.limit) {
			t.Fatalf("consumed %d bytes of a %d-byte record-aligned prefix", got, g.limit)
		}
		snap, _ := lv.Snapshot()
		check(snap, g.limit)
	}
	if err := sr.Done(); err != nil {
		t.Fatal(err)
	}
}

// publishStream writes a seeded random stream holding what a simulated
// run never does: tasks executed several times on different CPUs in any
// order, tasks that run on several CPUs and are never declared, tasks
// declared long after they ran, task records repeated with other
// fields, regions registered twice at one address and regions arriving
// in and out of address order.
func publishStream(t *testing.T, rng *rand.Rand, records int) recordStream {
	const cpus = 6
	b := newStreamBuilder(t)
	var clock [cpus]trace.Time
	exec := func(cpu int32, id trace.TaskID) {
		t0 := clock[cpu]
		clock[cpu] = t0 + 10 + trace.Time(rng.Intn(50))
		b.add(b.w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateTaskExec, Start: t0, End: clock[cpu], Task: id}))
	}
	declare := func(id trace.TaskID) {
		b.add(b.w.WriteTask(trace.Task{ID: id, Type: trace.TypeID(1 + rng.Intn(3)), Created: trace.Time(rng.Intn(1000)), CreatorCPU: int32(rng.Intn(cpus))}))
	}

	// The cases by name, so no seed can miss them. Task 1: the lower
	// CPU runs it later in the stream and must lose. Task 2: runs
	// before it is declared. Tasks 200 and 201: never declared, first
	// seen on CPUs in the opposite order of their ids.
	declare(1)
	exec(4, 1)
	exec(1, 1)
	exec(3, 2)
	exec(5, 200)
	exec(2, 201)
	exec(0, 200)
	declare(2)
	b.add(b.w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x5000, Size: 0x1000, Node: 0}))
	b.add(b.w.WriteRegion(trace.MemRegion{ID: 2, Addr: 0x5000, Size: 0x1000, Node: 1}))

	nextRegion := trace.RegionID(3)
	ascending := uint64(0x100000)
	for len(b.ends) < records {
		cpu := int32(rng.Intn(cpus))
		switch k := rng.Intn(20); {
		case k < 8:
			// Tasks 1..40 get declared at some point or never; 200..205
			// never.
			id := trace.TaskID(1 + rng.Intn(40))
			if rng.Intn(6) == 0 {
				id = trace.TaskID(200 + rng.Intn(6))
			}
			exec(cpu, id)
		case k < 10:
			t0 := clock[cpu]
			clock[cpu] = t0 + 5
			b.add(b.w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: t0, End: clock[cpu]}))
		case k < 14:
			declare(trace.TaskID(1 + rng.Intn(40)))
		case k < 15:
			id := trace.TypeID(1 + rng.Intn(3))
			b.add(b.w.WriteTaskType(trace.TaskType{ID: id, Addr: uint64(rng.Intn(1 << 20)), Name: "type"}))
		case k < 18:
			// A small pool of addresses: duplicates, any order.
			addr := uint64(1+rng.Intn(24)) << 12
			b.add(b.w.WriteRegion(trace.MemRegion{ID: nextRegion, Addr: addr, Size: 0x1000, Node: int32(rng.Intn(2))}))
			nextRegion++
		default:
			// Past every address so far: the in-place extension.
			ascending += 0x1000
			b.add(b.w.WriteRegion(trace.MemRegion{ID: nextRegion, Addr: ascending, Size: 0x1000, Node: int32(rng.Intn(2))}))
			nextRegion++
		}
	}
	return b.stream()
}

// assertTaskByID checks that tr resolves every task it lists to that
// entry and resolves none of absent.
func assertTaskByID(t *testing.T, ctx string, tr *Trace, absent ...trace.TaskID) {
	t.Helper()
	for i := range tr.Tasks {
		if ti, ok := tr.TaskByID(tr.Tasks[i].ID); !ok || ti != &tr.Tasks[i] {
			t.Fatalf("%s: TaskByID(%d) = (%p, %v), want entry %d", ctx, tr.Tasks[i].ID, ti, ok, i)
		}
	}
	for _, id := range absent {
		if ti, ok := tr.TaskByID(id); ok {
			t.Fatalf("%s: TaskByID(%d) found %+v in a trace that has no such task", ctx, id, *ti)
		}
	}
}

// TestPublishIncrementalEqualsBatch: a publish merges the epoch's
// regions into a list it keeps sorted, applies the epoch's placements
// to a task table it keeps placed and leaves the ID map to its first
// reader; whatever the stream holds and wherever the publishes fall,
// every snapshot must be the batch load of the prefix it covers.
func TestPublishIncrementalEqualsBatch(t *testing.T) {
	for seed := int64(1); seed <= 9; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := publishStream(t, rng, 300)
		chunk := func() int { return 1 }
		if largest := []int{1, 4, 25, 120}[seed%4]; largest > 1 {
			chunk = func() int { return 1 + rng.Intn(largest) }
		}
		publishEach(t, rs, chunk, func(snap *Trace, prefix int) {
			cold, err := FromReader(bytes.NewReader(rs.data[:prefix]))
			if err != nil {
				t.Fatalf("seed %d: cold load of the %d-byte prefix: %v", seed, prefix, err)
			}
			compareTrace(t, "prefix", snap, cold)
			assertTaskByID(t, "snapshot", snap, 0, 99, 1<<40)
			assertTaskByID(t, "batch", cold, 0, 99, 1<<40)
			if t.Failed() {
				t.Fatalf("seed %d: snapshot of the %d-byte prefix differs from its batch load", seed, prefix)
			}
		})
	}

	// The hand-over: batches appended directly, so a state column can
	// take a late event mid-stream. The epochs before it, the one that
	// sorts the column and re-applies its placements, and those after
	// must all equal the map reference's placement of the executions of
	// the sorted columns the snapshot holds.
	rng := rand.New(rand.NewSource(42))
	lv := NewLive()
	var ref refTasks // the declared tasks
	var clock [4]trace.Time
	dirtyAt := 12
	for epoch := 0; epoch < 30; epoch++ {
		b := &trace.RecordBatch{}
		for i := 0; i < 20; i++ {
			cpu := int32(rng.Intn(4))
			id := trace.TaskID(1 + rng.Intn(30))
			if rng.Intn(3) == 0 {
				task := trace.Task{ID: id, Type: 1, Created: trace.Time(rng.Intn(100)), CreatorCPU: cpu}
				b.Tasks = append(b.Tasks, task)
				ref.apply(task)
			}
			// Task 77 runs on CPU 2 only: once in order, then — the late
			// event — once more back in time, which the sort puts first,
			// so the in-order run must win again.
			if i == 10 && (epoch == 3 || epoch == dirtyAt) {
				cpu, id = 2, 77
			}
			t0 := clock[cpu]
			clock[cpu] += 10
			if i == 10 && epoch == dirtyAt {
				t0 = 5
			}
			b.States = append(b.States, trace.StateEvent{CPU: cpu, State: trace.StateTaskExec, Start: t0, End: t0 + 10, Task: id})
		}
		if err := lv.Append(b); err != nil {
			t.Fatal(err)
		}
		snap, _ := lv.Publish()
		for cpu := range snap.CPUs {
			if !slices.IsSortedFunc(snap.CPUs[cpu].States.all(), func(a, b trace.StateEvent) int { return cmp.Compare(a.Start, b.Start) }) {
				t.Fatalf("epoch %d: CPU %d's state column is out of order", epoch, snap.CPUs[cpu].ID)
			}
		}
		execs := make([]cpuExecs, len(snap.CPUs))
		for cpu := range snap.CPUs {
			execs[cpu] = cpuExecs{snap.CPUs[cpu].ID, collectExecs(snap.CPUs[cpu].States.Rows)}
		}
		if want := ref.placed(execs); !reflect.DeepEqual(snap.Tasks, want) {
			t.Fatalf("epoch %d (dirty from %d): tasks differ from the executions of the snapshot's columns placed over the declared tasks", epoch, dirtyAt)
		}
		assertTaskByID(t, "hand-over", snap, 0, 99, 1<<40)
		if ti, ok := snap.TaskByID(77); epoch >= dirtyAt && (!ok || ti.ExecStart == 5) {
			t.Fatalf("epoch %d: task 77 = %+v, want the placement the repaired column ends on", epoch, ti)
		}
	}
}

// publishAllocs feeds data to a fresh Live in chunks equal byte shares
// and returns how many heap allocations each publish made, the decode
// and the append left out.
func publishAllocs(t *testing.T, data []byte, chunks int) []uint64 {
	t.Helper()
	g := &limitedByteReader{data: data}
	sr := trace.NewStreamReader(g)
	lv := NewLive()
	defer lv.Close()
	allocs := make([]uint64, 0, chunks)
	var before, after runtime.MemStats
	for k := 1; k <= chunks; k++ {
		g.limit = len(data) * k / chunks
		var batches []*trace.RecordBatch
		if _, err := sr.Poll(func(b *trace.RecordBatch) error { batches = append(batches, b); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := lv.Append(batches...); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		lv.Publish()
		runtime.ReadMemStats(&after)
		allocs = append(allocs, after.Mallocs-before.Mallocs)
	}
	return allocs
}

// TestPublishAllocs pins what a publish allocates on the Seidel fixture
// fed in 24 chunks (8 CPUs and 32 counter pairs; ≈ 440 events and
// ≈ 250 samples an epoch): a publish allocates for what the epoch
// completed, not for the history. When every touched chain got fresh
// pyramid levels and fresh per-epoch rate and ref slices, and the
// snapshot's indexes an entry per key, a publish here made 440 to 590
// allocations, more the longer the trace; grown in place, it makes 130
// to 280 (the snapshot's tables, a header per touched tree and set, the
// amortized reallocations), and fails here above 320. No term may grow
// with the trace: the last epoch's publish makes at most the third's
// plus 40.
func TestPublishAllocs(t *testing.T) {
	budget, slack := uint64(320), uint64(40)
	if raceEnabled {
		budget = 400
	}
	allocs := publishAllocs(t, seidelStream(t, 12, 6), 24)
	t.Logf("allocations per publish: %v", allocs)
	for e, n := range allocs {
		if n > budget {
			t.Errorf("epoch %d's publish made %d allocations, more than the %d it may", e+1, n, budget)
		}
	}
	if last, third := allocs[len(allocs)-1], allocs[2]; last > third+slack {
		t.Errorf("the last epoch's publish made %d allocations, the third's %d: a term grows with the trace", last, third)
	}
}

// TestRegionReRegisteredLatestWins: an address registered again (memory
// freed and allocated on another node) resolves to the later
// registration, for every table size, batch and live alike.
func TestRegionReRegisteredLatestWins(t *testing.T) {
	for size := 2; size <= 200; size++ {
		rng := rand.New(rand.NewSource(int64(size)))
		// size-1 distinct addresses in random order, then one of them
		// registered again on node 1 at a random later position.
		regs := make([]trace.MemRegion, 0, size)
		for i, p := range rng.Perm(size - 1) {
			regs = append(regs, trace.MemRegion{ID: trace.RegionID(i + 1), Addr: uint64(p+1) << 12, Size: 0x1000, Node: 0})
		}
		first := rng.Intn(len(regs))
		again := trace.MemRegion{ID: trace.RegionID(size), Addr: regs[first].Addr, Size: 0x1000, Node: 1}
		at := first + 1 + rng.Intn(len(regs)-first)
		regs = append(regs[:at], append([]trace.MemRegion{again}, regs[at:]...)...)

		b := newStreamBuilder(t)
		// Node 1 exists: NodeOfAddr places no region beyond the topology.
		b.add(b.w.WriteTopology(trace.Topology{Name: "two-node", NumNodes: 2, NodeOfCPU: []int32{0}, Distance: []int32{0, 1, 1, 0}}))
		for _, r := range regs {
			b.add(b.w.WriteRegion(r))
		}
		rs := b.stream()

		check := func(ctx string, tr *Trace) {
			t.Helper()
			if got, ok := tr.RegionAt(again.Addr + 8); !ok || got != again {
				t.Errorf("%s, %d regions: RegionAt finds %+v (%v), want the later registration %+v", ctx, size, got, ok, again)
			}
			if node := tr.NodeOfAddr(again.Addr); node != again.Node {
				t.Errorf("%s, %d regions: NodeOfAddr = %d, want %d", ctx, size, node, again.Node)
			}
		}
		cold, err := FromReader(bytes.NewReader(rs.data))
		if err != nil {
			t.Fatal(err)
		}
		check("batch", cold)
		var last *Trace
		publishEach(t, rs, func() int { return 1 + rng.Intn(size) }, func(snap *Trace, prefix int) {
			last = snap
		})
		check("live", last)
		if !reflect.DeepEqual(last.Regions, cold.Regions) {
			t.Errorf("%d regions: live region table differs from the batch load's", size)
		}
	}
}

// TestLiveSnapshotTablesFrozen: later publishes extend the region array
// a snapshot shares, place tasks it lists as unexecuted and declare
// tasks it synthesized; none of that may show in the snapshot, and a
// reader on it must not race the writer.
func TestLiveSnapshotTablesFrozen(t *testing.T) {
	lv := NewLive()
	region := func(i int) trace.MemRegion {
		return trace.MemRegion{ID: trace.RegionID(i + 1), Addr: uint64(i+1) << 12, Size: 0x1000, Node: int32(i % 2)}
	}
	publish := func(b *trace.RecordBatch) *Trace {
		t.Helper()
		if err := lv.Append(b); err != nil {
			t.Fatal(err)
		}
		tr, _ := lv.Publish()
		return tr
	}

	// Tasks 1..50 declared and unexecuted, tasks 101..150 executed on
	// CPU 1 and undeclared, and ascending regions until the builder's
	// array has room to spare — so the next ascending region is written
	// into the array snapshot k holds a prefix of.
	first := &trace.RecordBatch{}
	for i := 0; i < 50; i++ {
		first.Tasks = append(first.Tasks, trace.Task{ID: trace.TaskID(i + 1), Type: 1, CreatorCPU: 0})
		t0 := trace.Time(100 * i)
		first.States = append(first.States, trace.StateEvent{CPU: 1, State: trace.StateTaskExec, Start: t0, End: t0 + 50, Task: trace.TaskID(101 + i)})
	}
	first.Regions = []trace.MemRegion{region(0), region(1), region(2)}
	k := publish(first)
	regions := 3
	for cap(lv.regions) == len(lv.regions) {
		if regions > 64 {
			t.Fatal("in-order regions never extend the builder's array in place: every publish replaces it")
		}
		k = publish(&trace.RecordBatch{Regions: []trace.MemRegion{region(regions)}})
		regions++
	}
	wantTasks := append([]TaskInfo(nil), k.Tasks...)
	wantRegions := append([]trace.MemRegion(nil), k.Regions...)
	if len(k.Tasks) != 100 || k.Tasks[0].ExecCPU != -1 || k.Tasks[99].ID != 150 || k.Tasks[99].ExecCPU != 1 {
		t.Fatalf("snapshot k: %d tasks, first %+v, last %+v", len(k.Tasks), k.Tasks[0], k.Tasks[len(k.Tasks)-1])
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			want := wantRegions[i%len(wantRegions)]
			if got, ok := k.RegionAt(want.Addr); !ok || got != want {
				t.Errorf("reader: RegionAt(%#x) = %+v, %v", want.Addr, got, ok)
				return
			}
			if _, ok := k.RegionAt(uint64(len(wantRegions)+1) << 12); ok {
				t.Error("reader: snapshot k resolves an address registered after it")
				return
			}
			j := i % len(wantTasks)
			if ti, ok := k.TaskByID(wantTasks[j].ID); !ok || *ti != wantTasks[j] {
				t.Errorf("reader: TaskByID(%d) = %+v, %v, want %+v", wantTasks[j].ID, ti, ok, wantTasks[j])
				return
			}
			n := 0
			k.EachTaskIn(0, 1<<40, func(*TaskInfo) { n++ })
			if n != 50 {
				t.Errorf("reader: EachTaskIn visits %d executed tasks, want 50", n)
				return
			}
		}
	}()

	clock := trace.Time(100 * 50)
	for i := 0; i < 50; i++ {
		b := &trace.RecordBatch{}
		b.Regions = []trace.MemRegion{region(regions)}
		regions++
		b.States = []trace.StateEvent{{CPU: 0, State: trace.StateTaskExec, Start: clock, End: clock + 50, Task: trace.TaskID(i + 1)}}
		clock += 100
		b.Tasks = []trace.Task{{ID: trace.TaskID(101 + i), Type: 2, Created: 7, CreatorCPU: 1}}
		next := publish(b)
		if i == 0 && &next.Regions[0] != &k.Regions[0] {
			t.Error("the in-order region did not extend the array snapshot k shares: the test exercises nothing")
		}
		if placed, _ := next.TaskByID(trace.TaskID(i + 1)); placed == nil || placed.ExecCPU != 0 {
			t.Errorf("epoch +%d: task %d not placed on CPU 0: %+v", i+1, i+1, placed)
		}
	}
	stop.Store(true)
	wg.Wait()

	if !reflect.DeepEqual(k.Tasks, wantTasks) {
		t.Error("snapshot k's task table changed after it was published")
	}
	if !reflect.DeepEqual(k.Regions, wantRegions) {
		t.Error("snapshot k's region table changed after it was published")
	}
	if cap(k.Regions) != len(k.Regions) {
		t.Errorf("snapshot k's region table has cap %d over len %d: an append would write into the builder's array", cap(k.Regions), len(k.Regions))
	}
	last, _ := lv.Snapshot()
	if len(last.Tasks) != 100 || last.Tasks[50].ID != 101 || last.Tasks[50].Type != 2 || last.Tasks[50].ExecCPU != 1 {
		t.Errorf("final snapshot: %d tasks, entry 50 = %+v; want task 101 declared in place of its synthesized entry", len(last.Tasks), last.Tasks[50])
	}
}

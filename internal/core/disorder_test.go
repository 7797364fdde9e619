package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/openstream/aftermath/internal/trace"
)

// disorderBatches decodes bytes into record batches, two bytes a
// record: the first picks the family (its low three bits), whether the
// record is late (bit 3) and the CPU (the high bits); the second its
// length, distance back in time or task. Family 6 ends the batch and
// publishes after it, family 7 ends it without a publish. A late record
// lands up to 64 cycles before its CPU's clock, so the CPU's column
// takes it out of order once it holds anything later.
func disorderBatches(data []byte) (batches []*trace.RecordBatch, publish []bool) {
	const cpus = 3
	var clock [cpus]trace.Time
	b := &trace.RecordBatch{}
	cut := func(pub bool) {
		batches, publish = append(batches, b), append(publish, pub)
		b = &trace.RecordBatch{}
	}
	for ; len(data) >= 2; data = data[2:] {
		op, arg := data[0], data[1]
		cpu := int32(op>>4) % cpus
		at := clock[cpu]
		if op&8 != 0 {
			at -= 1 + trace.Time(arg%64)
		}
		switch op & 7 {
		case 0, 1:
			st := trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: at, End: at + trace.Time(arg%16)}
			if op&1 == 1 {
				st.State, st.Task = trace.StateTaskExec, trace.TaskID(1+arg%9)
			}
			clock[cpu] = max(clock[cpu], st.End)
			b.States = append(b.States, st)
		case 2:
			b.Discrete = append(b.Discrete, trace.DiscreteEvent{CPU: cpu, Kind: trace.EventKind(arg % 3), Time: at, Arg: uint64(arg)})
			clock[cpu] = max(clock[cpu], at+trace.Time(arg%4))
		case 3:
			b.Comms = append(b.Comms, trace.CommEvent{Kind: trace.CommRead, CPU: cpu, SrcCPU: -1, Time: at, Task: trace.TaskID(1 + arg%9), Addr: uint64(arg) << 6, Size: 8})
			clock[cpu] = max(clock[cpu], at+trace.Time(arg%4))
		case 4:
			b.Samples = append(b.Samples, trace.CounterSample{CPU: cpu, Counter: trace.CounterID(1 + arg%2), Time: at, Value: int64(arg)})
			clock[cpu] = max(clock[cpu], at+trace.Time(arg%4))
		case 5:
			b.Tasks = append(b.Tasks, trace.Task{ID: trace.TaskID(1 + arg%9), Type: 1, Created: trace.Time(arg), CreatorCPU: cpu})
		case 6, 7:
			cut(op&7 == 6)
		}
	}
	cut(true)
	return batches, publish
}

// oneRun returns the trace's columns each as one array, the value a
// trace that never spilled holds: what compareTrace compares.
func oneRun(tr *Trace) *Trace {
	flat := &Trace{Topology: tr.Topology, Span: tr.Span, Types: tr.Types, Tasks: tr.Tasks, Regions: tr.Regions}
	flat.CPUs = make([]CPUData, len(tr.CPUs))
	for i, c := range tr.CPUs {
		flat.CPUs[i] = CPUData{ID: c.ID, States: runOf(c.States), Discrete: runOf(c.Discrete), Comm: runOf(c.Comm)}
	}
	flat.Counters = make([]*Counter, len(tr.Counters))
	for i, c := range tr.Counters {
		fc := &Counter{Desc: c.Desc, PerCPU: make([]Column[Sample], len(c.PerCPU))}
		for r := range c.PerCPU {
			fc.PerCPU[r] = runOf(c.PerCPU[r])
		}
		flat.Counters[i] = fc
	}
	return flat
}

func runOf[T any](c Column[T]) Column[T] {
	if c.len() == 0 {
		return Column[T]{}
	}
	return Column[T]{Rows: c.all()}
}

// checkDisorder feeds the batches data decodes to a Live, publishing
// where they say, spilling under a budget of spillBytes (none if 0).
// Every snapshot's tasks must be the map reference's placement of that
// snapshot's own (sorted) columns over the declared tasks, and the last snapshot must
// equal one publish of every batch.
func checkDisorder(t *testing.T, data []byte, spillBytes int64) {
	batches, publishAt := disorderBatches(data)
	once := NewLive()
	if err := once.Append(batches...); err != nil {
		t.Fatal(err)
	}
	want, _ := once.Publish()

	lv := NewLive()
	if spillBytes > 0 {
		lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: spillBytes})
	}
	var declared refTasks
	for i, b := range batches {
		if err := lv.Append(b); err != nil {
			t.Fatal(err)
		}
		for _, task := range b.Tasks {
			declared.apply(task)
		}
		if !publishAt[i] {
			continue
		}
		snap, epoch := lv.Publish()
		lv.Close()
		execs := make([]cpuExecs, len(snap.CPUs))
		for r := range snap.CPUs {
			execs[r] = cpuExecs{snap.CPUs[r].ID, collectExecs(snap.CPUs[r].States.all())}
		}
		if placed := declared.placed(execs); !reflect.DeepEqual(snap.Tasks, placed) {
			t.Fatalf("spill budget %d, epoch %d: tasks differ from the executions of the snapshot's columns placed over the declared tasks:\n got %+v\nwant %+v", spillBytes, epoch, snap.Tasks, placed)
		}
	}
	last, _ := lv.Snapshot()
	compareTrace(t, "last snapshot against one publish", oneRun(last), oneRun(want))
	if t.Failed() {
		t.Fatalf("spill budget %d: %d batches published at %v", spillBytes, len(batches), publishAt)
	}
}

// TestLiveDisorder: late events on every family, published at any
// granularity, spilled or not, end in the trace one publish of the
// same batches makes, and every snapshot on the way places its tasks
// from its own columns.
func TestLiveDisorder(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2*(40+rng.Intn(400)))
		rng.Read(data)
		checkDisorder(t, data, 0)
		checkDisorder(t, data, 1)
	}
}

// FuzzLiveDisorder is TestLiveDisorder over any bytes and spill budget
// (0: none): a budget above one byte also freezes tails that span
// several publishes.
func FuzzLiveDisorder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 200)
		rng.Read(data)
		f.Add(uint16(seed%2), data)
		f.Add(uint16(seed*100), data)
	}
	f.Fuzz(func(t *testing.T, budget uint16, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		checkDisorder(t, data, int64(budget))
	})
}

// TestLateStateSpillsAgain: one late state event costs its column one
// sort, not its memory bound or a per-publish repair. Two Lives take
// the Seidel fixture in the same chunks, one also a late state on CPU 0
// at epoch late. From then on that column freezes into segments again,
// no publish keeps execution spans it applied, and each publish after
// the sorting one allocates what the clean twin's does, within slack;
// from the second on, no CPU holds more room for execution spans than
// the clean twin's (the sort's re-collection of the column's spans is
// not kept).
// A column that stayed out of order for good — copied, sorted and its
// CPU's placements re-applied at every publish — allocates well past
// it: on this fixture 80 KB and more a publish, growing with the run.
func TestLateStateSpillsAgain(t *testing.T) {
	const chunks, late = 32, 8
	const slack = 32 << 10
	data := seidelStream(t, 16, 8)

	type twin struct {
		lv *Live
		sr *trace.StreamReader
		g  *limitedByteReader
	}
	twins := [2]*twin{}
	for i := range twins {
		g := &limitedByteReader{data: data}
		twins[i] = &twin{lv: NewLive(), sr: trace.NewStreamReader(g), g: g}
		twins[i].lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
		defer twins[i].lv.Close()
	}
	var spilledAtLate int64
	var before, after runtime.MemStats
	for k := 1; k <= chunks; k++ {
		var alloc [2]uint64
		var room [2]map[int32]int
		for i, tw := range twins {
			tw.g.limit = len(data) * k / chunks
			var batches []*trace.RecordBatch
			if _, err := tw.sr.Poll(func(b *trace.RecordBatch) error { batches = append(batches, b); return nil }); err != nil {
				t.Fatal(err)
			}
			if i == 1 && k == late {
				batches = append(batches, &trace.RecordBatch{States: []trace.StateEvent{{CPU: 0, State: trace.StateIdle, Start: -10, End: -5}}})
			}
			if err := tw.lv.Append(batches...); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&before)
			tw.lv.Publish()
			// The publish's spill runs in the background; its
			// allocations count once it is done, not as they race the
			// reading below.
			tw.lv.Close()
			runtime.ReadMemStats(&after)
			alloc[i] = after.TotalAlloc - before.TotalAlloc
			tw.lv.mu.Lock()
			room[i] = map[int32]int{}
			for s := range tw.lv.cpus {
				c := &tw.lv.cpus[s]
				if n := len(c.execs); n != 0 {
					t.Errorf("epoch %d, twin %d: CPU %d keeps %d applied execution spans", k, i, c.id, n)
				}
				room[i][c.id] = cap(c.execs)
			}
			tw.lv.mu.Unlock()
		}
		for id, n := range room[1] {
			if k >= late+2 && n > room[0][id] {
				t.Errorf("epoch %d: CPU %d holds room for %d execution spans, the clean twin's for %d", k, id, n, room[0][id])
			}
		}
		if k > late && alloc[1] > alloc[0]+slack {
			t.Errorf("epoch %d: the publish allocated %d bytes, the clean twin's %d", k, alloc[1], alloc[0])
		}
		snap, _ := twins[1].lv.Snapshot()
		st, _ := snap.SpillStats()
		if k == late {
			spilledAtLate = st.SpilledBytes
		}
		if k == chunks {
			if parts := len(snap.CPUs[0].States.parts); parts == 0 || st.SpilledBytes <= spilledAtLate {
				t.Fatalf("after the late event CPU 0's states froze into %d parts, spilled bytes %d → %d", parts, spilledAtLate, st.SpilledBytes)
			}
		}
	}
}

package trace

import (
	"bytes"
	"cmp"
	"reflect"
	"testing"
)

// recordDump collects every decoded record in per-kind order.
type recordDump struct {
	topos    []Topology
	types    []TaskType
	tasks    []Task
	states   []StateEvent
	discrete []DiscreteEvent
	descs    []CounterDesc
	samples  []CounterSample
	comms    []CommEvent
	regions  []MemRegion
}

func dumpViaRead(t *testing.T, data []byte) *recordDump {
	t.Helper()
	var d recordDump
	err := Read(bytes.NewReader(data), Handler{
		Topology:    func(v Topology) error { d.topos = append(d.topos, v); return nil },
		TaskType:    func(v TaskType) error { d.types = append(d.types, v); return nil },
		Task:        func(v Task) error { d.tasks = append(d.tasks, v); return nil },
		State:       func(v StateEvent) error { d.states = append(d.states, v); return nil },
		Discrete:    func(v DiscreteEvent) error { d.discrete = append(d.discrete, v); return nil },
		CounterDesc: func(v CounterDesc) error { d.descs = append(d.descs, v); return nil },
		Sample:      func(v CounterSample) error { d.samples = append(d.samples, v); return nil },
		Comm:        func(v CommEvent) error { d.comms = append(d.comms, v); return nil },
		Region:      func(v MemRegion) error { d.regions = append(d.regions, v); return nil },
	})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return &d
}

func dumpViaBatches(t *testing.T, data []byte, workers int) *recordDump {
	t.Helper()
	var d recordDump
	err := ReadBatched(bytes.NewReader(data), workers, func(b *RecordBatch) error {
		d.topos = append(d.topos, b.Topologies...)
		d.types = append(d.types, b.TaskTypes...)
		d.tasks = append(d.tasks, b.Tasks...)
		d.states = append(d.states, b.States...)
		d.discrete = append(d.discrete, b.Discrete...)
		d.descs = append(d.descs, b.Descs...)
		d.samples = append(d.samples, b.Samples...)
		d.comms = append(d.comms, b.Comms...)
		d.regions = append(d.regions, b.Regions...)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadBatched(workers=%d): %v", workers, err)
	}
	return &d
}

// syntheticStream writes a trace large enough to span many batches,
// mixing every record kind.
func syntheticStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(Topology{
		Name: "synthetic", NumNodes: 2,
		NodeOfCPU: []int32{0, 0, 1, 1},
		Distance:  []int32{0, 1, 1, 0},
	}))
	must(w.WriteTaskType(TaskType{ID: 1, Addr: 0x40, Name: "work"}))
	must(w.WriteCounterDesc(CounterDesc{ID: 7, Name: "ctr", Monotonic: true}))
	must(w.WriteRegion(MemRegion{ID: 1, Addr: 0x1000, Size: 0x1000, Node: 1}))
	const events = 3 * batchRecords
	for i := 0; i < events; i++ {
		cpu := int32(i % 4)
		tm := int64(i/4) * 10
		must(w.WriteTask(Task{ID: TaskID(i + 1), Type: 1, Created: tm, CreatorCPU: cpu}))
		must(w.WriteState(StateEvent{CPU: cpu, State: StateTaskExec, Start: tm, End: tm + 9, Task: TaskID(i + 1)}))
		must(w.WriteSample(CounterSample{CPU: cpu, Counter: 7, Time: tm, Value: int64(i)}))
		must(w.WriteSample(CounterSample{CPU: cpu, Counter: CounterID(100 + i%3), Time: tm, Value: int64(i)}))
		must(w.WriteComm(CommEvent{Kind: CommRead, CPU: cpu, SrcCPU: -1, Time: tm, Task: TaskID(i + 1), Addr: 0x1000, Size: 64}))
		must(w.WriteDiscrete(DiscreteEvent{CPU: cpu, Kind: EventTaskCreated, Time: tm, Arg: uint64(i)}))
	}
	must(w.Flush())
	return buf.Bytes()
}

func equalDumps(t *testing.T, want, got *recordDump, label string) {
	t.Helper()
	check := func(name string, w, g int) {
		if w != g {
			t.Fatalf("%s: %s count = %d, want %d", label, name, g, w)
		}
	}
	check("topologies", len(want.topos), len(got.topos))
	check("types", len(want.types), len(got.types))
	check("tasks", len(want.tasks), len(got.tasks))
	check("states", len(want.states), len(got.states))
	check("discrete", len(want.discrete), len(got.discrete))
	check("descs", len(want.descs), len(got.descs))
	check("samples", len(want.samples), len(got.samples))
	check("comms", len(want.comms), len(got.comms))
	check("regions", len(want.regions), len(got.regions))
	for i := range want.states {
		if want.states[i] != got.states[i] {
			t.Fatalf("%s: state %d = %+v, want %+v", label, i, got.states[i], want.states[i])
		}
	}
	for i := range want.samples {
		if want.samples[i] != got.samples[i] {
			t.Fatalf("%s: sample %d = %+v, want %+v", label, i, got.samples[i], want.samples[i])
		}
	}
	for i := range want.comms {
		if want.comms[i] != got.comms[i] {
			t.Fatalf("%s: comm %d = %+v, want %+v", label, i, got.comms[i], want.comms[i])
		}
	}
	for i := range want.discrete {
		if want.discrete[i] != got.discrete[i] {
			t.Fatalf("%s: discrete %d mismatch", label, i)
		}
	}
	for i := range want.tasks {
		if want.tasks[i] != got.tasks[i] {
			t.Fatalf("%s: task %d mismatch", label, i)
		}
	}
}

func TestReadBatchedMatchesRead(t *testing.T) {
	data := syntheticStream(t)
	want := dumpViaRead(t, data)
	for _, workers := range []int{1, 2, 4, 7} {
		got := dumpViaBatches(t, data, workers)
		equalDumps(t, want, got, "workers="+string(rune('0'+workers)))
	}
}

func TestReadBatchedCounterIDOrder(t *testing.T) {
	data := syntheticStream(t)
	// Counter registration order must match the sequential
	// first-touch order: 7 (desc), then 100, 101, 102 (samples).
	var order []CounterID
	seen := map[CounterID]bool{}
	err := ReadBatched(bytes.NewReader(data), 4, func(b *RecordBatch) error {
		for _, id := range b.CounterIDs {
			if !seen[id] {
				seen[id] = true
				order = append(order, id)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []CounterID{7, 100, 101, 102}
	if len(order) != len(want) {
		t.Fatalf("counter order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("counter order = %v, want %v", order, want)
		}
	}
}

func TestReadBatchedTruncated(t *testing.T) {
	data := syntheticStream(t)
	for _, workers := range []int{1, 4} {
		err := ReadBatched(bytes.NewReader(data[:len(data)-3]), workers, func(b *RecordBatch) error { return nil })
		if err == nil {
			t.Fatalf("workers=%d: no error on truncated stream", workers)
		}
	}
}

func TestReadBatchedBadMagic(t *testing.T) {
	err := ReadBatched(bytes.NewReader([]byte("nope")), 4, func(b *RecordBatch) error { return nil })
	if err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// TestReadMatchesBatched feeds each record kind, at the edges of its
// field ranges, through the callback reader and the batched reader
// (inline and parallel decode) and compares what they deliver field
// by field; the last rows pin Read's skipping of record kinds without
// a callback, which never decodes their payload.
func TestReadMatchesBatched(t *testing.T) {
	const far = int64(1) << 60
	cases := []struct {
		name  string
		write func(w *Writer) error
		want  RecordBatch
	}{
		{"topology", func(w *Writer) error {
			return w.WriteTopology(Topology{Name: "m", NumNodes: 2, NodeOfCPU: []int32{0, 1, 1}, Distance: []int32{0, 3, 3, 0}})
		}, RecordBatch{Topologies: []Topology{{Name: "m", NumNodes: 2, NodeOfCPU: []int32{0, 1, 1}, Distance: []int32{0, 3, 3, 0}}}}},
		{"empty topology", func(w *Writer) error { return w.WriteTopology(Topology{}) },
			RecordBatch{Topologies: []Topology{{NodeOfCPU: []int32{}, Distance: []int32{}}}}},
		{"task type", func(w *Writer) error { return w.WriteTaskType(TaskType{ID: 1<<32 - 1, Addr: 1 << 63, Name: "blk"}) },
			RecordBatch{TaskTypes: []TaskType{{ID: 1<<32 - 1, Addr: 1 << 63, Name: "blk"}}}},
		{"unnamed task type", func(w *Writer) error { return w.WriteTaskType(TaskType{}) },
			RecordBatch{TaskTypes: []TaskType{{}}}},
		{"task", func(w *Writer) error { return w.WriteTask(Task{ID: 9, Type: 3, Created: -far, CreatorCPU: MaxCPUID}) },
			RecordBatch{Tasks: []Task{{ID: 9, Type: 3, Created: -far, CreatorCPU: MaxCPUID}}}},
		{"task without creator", func(w *Writer) error { return w.WriteTask(Task{ID: 1, CreatorCPU: -1}) },
			RecordBatch{Tasks: []Task{{ID: 1, CreatorCPU: -1}}}},
		{"state", func(w *Writer) error {
			return w.WriteState(StateEvent{CPU: MaxCPUID, State: StateTaskExec, Start: -far, End: far, Task: 1 << 50})
		}, RecordBatch{States: []StateEvent{{CPU: MaxCPUID, State: StateTaskExec, Start: -far, End: far, Task: 1 << 50}}}},
		{"empty state", func(w *Writer) error { return w.WriteState(StateEvent{State: WorkerState(255), Start: 5, End: 5}) },
			RecordBatch{States: []StateEvent{{State: WorkerState(255), Start: 5, End: 5}}}},
		{"discrete", func(w *Writer) error {
			return w.WriteDiscrete(DiscreteEvent{CPU: 7, Kind: EventSteal, Time: -1, Arg: 1<<64 - 1})
		}, RecordBatch{Discrete: []DiscreteEvent{{CPU: 7, Kind: EventSteal, Time: -1, Arg: 1<<64 - 1}}}},
		{"counter description", func(w *Writer) error { return w.WriteCounterDesc(CounterDesc{ID: 4, Name: "c", Monotonic: true}) },
			RecordBatch{Descs: []CounterDesc{{ID: 4, Name: "c", Monotonic: true}}}},
		{"non-monotonic counter", func(w *Writer) error { return w.WriteCounterDesc(CounterDesc{ID: 1<<32 - 1}) },
			RecordBatch{Descs: []CounterDesc{{ID: 1<<32 - 1}}}},
		{"sample", func(w *Writer) error {
			return w.WriteSample(CounterSample{CPU: 2, Counter: 4, Time: far, Value: -far})
		}, RecordBatch{Samples: []CounterSample{{CPU: 2, Counter: 4, Time: far, Value: -far}}}},
		{"comm", func(w *Writer) error {
			return w.WriteComm(CommEvent{Kind: CommWrite, CPU: 1, SrcCPU: MaxCPUID, Time: -far, Task: 8, Addr: 1 << 63, Size: 1<<64 - 1})
		}, RecordBatch{Comms: []CommEvent{{Kind: CommWrite, CPU: 1, SrcCPU: MaxCPUID, Time: -far, Task: 8, Addr: 1 << 63, Size: 1<<64 - 1}}}},
		{"comm without source", func(w *Writer) error { return w.WriteComm(CommEvent{Kind: CommRead, SrcCPU: -1}) },
			RecordBatch{Comms: []CommEvent{{Kind: CommRead, SrcCPU: -1}}}},
		{"region", func(w *Writer) error { return w.WriteRegion(MemRegion{ID: 3, Addr: 1 << 62, Size: 1 << 40, Node: -1}) },
			RecordBatch{Regions: []MemRegion{{ID: 3, Addr: 1 << 62, Size: 1 << 40, Node: -1}}}},
		{"unknown kind", func(w *Writer) error { return w.record(99, []byte{1, 2, 3}) }, RecordBatch{}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := tc.write(w); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var c collect
		if err := Read(bytes.NewReader(buf.Bytes()), c.handler()); err != nil {
			t.Fatalf("%s: Read: %v", tc.name, err)
		}
		viaRead := RecordBatch{Topologies: c.topo, TaskTypes: c.types, Tasks: c.tasks, States: c.states,
			Discrete: c.discrete, Descs: c.descs, Samples: c.samples, Comms: c.comm, Regions: c.regions}
		if !reflect.DeepEqual(viaRead, tc.want) {
			t.Errorf("%s: Read delivered\n %+v\nwant\n %+v", tc.name, viaRead, tc.want)
		}
		if wantUnknown := tc.name == "unknown kind"; (len(c.unknown) == 1) != wantUnknown {
			t.Errorf("%s: Unknown callback saw kinds %v", tc.name, c.unknown)
		}
		for _, workers := range []int{1, 4} {
			got, err := collectAll(buf.Bytes(), workers)
			if err != nil {
				t.Fatalf("%s: ReadBatched(workers=%d): %v", tc.name, workers, err)
			}
			got.CounterIDs = nil // bookkeeping Read has no counterpart for
			if !reflect.DeepEqual(*got, tc.want) {
				t.Errorf("%s: ReadBatched(workers=%d) delivered\n %+v\nwant\n %+v", tc.name, workers, *got, tc.want)
			}
		}
	}

	// A record kind without a callback is skipped before its payload is
	// looked at; with one, the same garbage payload is a decode error,
	// as it is for the batched reader, which decodes everything.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.record(recState, []byte{0x80}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTask(Task{ID: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var tasks []Task
	onlyTasks := Handler{Task: func(v Task) error { tasks = append(tasks, v); return nil }}
	if err := Read(bytes.NewReader(buf.Bytes()), onlyTasks); err != nil || len(tasks) != 1 || tasks[0].ID != 5 {
		t.Errorf("Read without a State callback: err %v, tasks %v; want the garbage state skipped", err, tasks)
	}
	onlyTasks.State = func(StateEvent) error { return nil }
	if err := Read(bytes.NewReader(buf.Bytes()), onlyTasks); err == nil {
		t.Error("Read with a State callback accepted a garbage state payload")
	}
	if _, err := collectAll(buf.Bytes(), 1); err == nil {
		t.Error("ReadBatched accepted a garbage state payload")
	}
}

// farCPUStream writes n rounds of records that alternate CPU 0 and
// MaxCPUID, with a counter sampled only on the far CPU: what a per-batch
// table indexed by CPU id would pay megabytes for.
func farCPUStream(tb testing.TB, n int) []byte { return twoCPUStream(tb, n, MaxCPUID) }

// twoCPUStream writes n rounds of a state, a discrete event and a
// communication event alternating between CPU 0 and CPU far, with a
// counter sampled only on far.
func twoCPUStream(tb testing.TB, n int, far int32) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < n; i++ {
		cpu, tm := int32(i%2)*far, int64(i)*10
		err := cmp.Or(
			w.WriteState(StateEvent{CPU: cpu, State: StateIdle, Start: tm, End: tm + 10}),
			w.WriteDiscrete(DiscreteEvent{CPU: cpu, Kind: EventSteal, Time: tm}),
			w.WriteComm(CommEvent{Kind: CommRead, CPU: cpu, SrcCPU: far - cpu, Time: tm, Size: 8}))
		if err == nil && cpu != 0 {
			err = w.WriteSample(CounterSample{CPU: cpu, Counter: 3, Time: tm, Value: int64(i)})
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchCountsMatchRecount: every batch ReadBatched emits carries
// counts equal to a recount of its own slices; decoded inline or on
// workers its slices are exactly as long as their arrays and nil for
// the kinds the run did not hold; and the counts stay as small as the
// batch whatever the CPU ids are.
func TestBatchCountsMatchRecount(t *testing.T) {
	far := farCPUStream(t, 3*batchRecords)
	for name, data := range map[string][]byte{
		"seed":      fuzzSeedTrace(t),
		"synthetic": syntheticStream(t),
		"far CPU":   far,
	} {
		want := dumpViaRead(t, data)
		for _, workers := range []int{1, 4} {
			var batches, states, samples int
			err := ReadBatched(bytes.NewReader(data), workers, func(b *RecordBatch) error {
				batches++
				states += len(b.States)
				samples += len(b.Samples)
				if n := len(b.States) + len(b.Discrete) + len(b.Comms); len(b.CPUCounts) > n || len(b.SampleCounts) > len(b.Samples) {
					t.Errorf("%s: %d CPU and %d pair entries on a batch of %d events and %d samples",
						name, len(b.CPUCounts), len(b.SampleCounts), n, len(b.Samples))
				}
				return checkBatchCounts(b)
			})
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", name, workers, err)
			}
			if states != len(want.states) || samples != len(want.samples) {
				t.Errorf("%s, workers=%d: %d states and %d samples counted, Read delivered %d and %d",
					name, workers, states, samples, len(want.states), len(want.samples))
			}
			if name != "seed" && batches < 3 {
				t.Errorf("%s, workers=%d: %d batches, want the stream to span several", name, workers, batches)
			}
		}
	}

	// A batch's bookkeeping is paid for in records, not in CPU ids: the
	// same records on CPUs 0 and 1 cost as much, give or take the varints.
	near := twoCPUStream(t, 3*batchRecords, 1)
	drain := func(data []byte) func() {
		return func() { ReadBatched(bytes.NewReader(data), 4, func(*RecordBatch) error { return nil }) }
	}
	if onNear, onFar := allocated(drain(near)), allocated(drain(far)); onFar > onNear+onNear/2 {
		t.Errorf("ReadBatched allocated %d bytes on records of CPUs 0 and %d, %d on the same records of CPUs 0 and 1", onFar, MaxCPUID, onNear)
	}
}

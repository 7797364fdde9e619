package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// collect gathers everything a Read produces.
type collect struct {
	topo     []Topology
	types    []TaskType
	tasks    []Task
	states   []StateEvent
	discrete []DiscreteEvent
	descs    []CounterDesc
	samples  []CounterSample
	comm     []CommEvent
	regions  []MemRegion
	unknown  []uint64
	// counterIDs lists the counters descriptions and samples name, in
	// first-touch stream order: the order a batch reader's CounterIDs,
	// concatenated and deduplicated over the stream, must give.
	counterIDs []CounterID
}

// touch lists a counter at its first description or sample.
func (c *collect) touch(id CounterID) {
	if !slices.Contains(c.counterIDs, id) {
		c.counterIDs = append(c.counterIDs, id)
	}
}

func (c *collect) handler() Handler {
	return Handler{
		Topology:    func(t Topology) error { c.topo = append(c.topo, t); return nil },
		TaskType:    func(t TaskType) error { c.types = append(c.types, t); return nil },
		Task:        func(t Task) error { c.tasks = append(c.tasks, t); return nil },
		State:       func(s StateEvent) error { c.states = append(c.states, s); return nil },
		Discrete:    func(d DiscreteEvent) error { c.discrete = append(c.discrete, d); return nil },
		CounterDesc: func(d CounterDesc) error { c.touch(d.ID); c.descs = append(c.descs, d); return nil },
		Sample:      func(s CounterSample) error { c.touch(s.Counter); c.samples = append(c.samples, s); return nil },
		Comm:        func(e CommEvent) error { c.comm = append(c.comm, e); return nil },
		Region:      func(r MemRegion) error { c.regions = append(c.regions, r); return nil },
		Unknown:     func(k uint64, _ []byte) error { c.unknown = append(c.unknown, k); return nil },
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)

	topo := Topology{
		Name:      "test-machine",
		NumNodes:  2,
		NodeOfCPU: []int32{0, 0, 1, 1},
		Distance:  []int32{0, 1, 1, 0},
	}
	tt := TaskType{ID: 7, Addr: 0x401000, Name: "seidel_block"}
	task := Task{ID: 42, Type: 7, Created: 1000, CreatorCPU: 2}
	st := StateEvent{CPU: 3, State: StateTaskExec, Start: 2000, End: 5000, Task: 42}
	de := DiscreteEvent{CPU: 3, Kind: EventSteal, Time: 1999, Arg: 42}
	cd := CounterDesc{ID: 1, Name: CounterBranchMisses, Monotonic: true}
	cs := CounterSample{CPU: 3, Counter: 1, Time: 2000, Value: 123456}
	ce := CommEvent{Kind: CommRead, CPU: 3, SrcCPU: -1, Time: 2001, Task: 42, Addr: 0xdead0000, Size: 65536}
	mr := MemRegion{ID: 5, Addr: 0xdead0000, Size: 1 << 20, Node: 1}

	for _, step := range []func() error{
		func() error { return w.WriteTopology(topo) },
		func() error { return w.WriteTaskType(tt) },
		func() error { return w.WriteTask(task) },
		func() error { return w.WriteState(st) },
		func() error { return w.WriteDiscrete(de) },
		func() error { return w.WriteCounterDesc(cd) },
		func() error { return w.WriteSample(cs) },
		func() error { return w.WriteComm(ce) },
		func() error { return w.WriteRegion(mr) },
		w.Flush,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}

	var c collect
	if err := Read(&buf, c.handler()); err != nil {
		t.Fatal(err)
	}
	if len(c.topo) != 1 || !reflect.DeepEqual(c.topo[0], topo) {
		t.Errorf("topology mismatch: %+v", c.topo)
	}
	if len(c.types) != 1 || c.types[0] != tt {
		t.Errorf("task type mismatch: %+v", c.types)
	}
	if len(c.tasks) != 1 || c.tasks[0] != task {
		t.Errorf("task mismatch: %+v", c.tasks)
	}
	if len(c.states) != 1 || c.states[0] != st {
		t.Errorf("state mismatch: %+v", c.states)
	}
	if len(c.discrete) != 1 || c.discrete[0] != de {
		t.Errorf("discrete mismatch: %+v", c.discrete)
	}
	if len(c.descs) != 1 || c.descs[0] != cd {
		t.Errorf("counter desc mismatch: %+v", c.descs)
	}
	if len(c.samples) != 1 || c.samples[0] != cs {
		t.Errorf("sample mismatch: %+v", c.samples)
	}
	if len(c.comm) != 1 || c.comm[0] != ce {
		t.Errorf("comm mismatch: %+v", c.comm)
	}
	if len(c.regions) != 1 || c.regions[0] != mr {
		t.Errorf("region mismatch: %+v", c.regions)
	}
}

func TestPerCPUOrderEnforced(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteState(StateEvent{CPU: 0, Start: 100, End: 200}); err != nil {
		t.Fatal(err)
	}
	// Same CPU, earlier start: must be rejected.
	if err := w.WriteState(StateEvent{CPU: 0, Start: 50, End: 60}); err == nil {
		t.Error("expected out-of-order error on same CPU")
	}
	// Different CPU, earlier start: interleaving across CPUs is free.
	if err := w.WriteState(StateEvent{CPU: 1, Start: 50, End: 60}); err != nil {
		t.Errorf("cross-CPU interleaving should be allowed: %v", err)
	}
	// Samples of different counters on the same CPU are ordered
	// independently.
	if err := w.WriteSample(CounterSample{CPU: 0, Counter: 1, Time: 500}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSample(CounterSample{CPU: 0, Counter: 2, Time: 100}); err != nil {
		t.Errorf("samples of a different counter should order independently: %v", err)
	}
	if err := w.WriteSample(CounterSample{CPU: 0, Counter: 1, Time: 400}); err == nil {
		t.Error("expected out-of-order error for same counter/CPU")
	}
}

func TestNegativeDurationRejected(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.WriteState(StateEvent{CPU: 0, Start: 100, End: 50}); err == nil {
		t.Error("expected error for end < start")
	}
}

func TestBadMagic(t *testing.T) {
	if err := Read(strings.NewReader("not a trace"), Handler{}); err != ErrBadMagic {
		t.Errorf("got %v, want ErrBadMagic", err)
	}
	if err := Read(strings.NewReader(""), Handler{}); err != ErrBadMagic {
		t.Errorf("empty stream: got %v, want ErrBadMagic", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteTask(Task{ID: 1, Type: 1, Created: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if err := Read(bytes.NewReader(b[:len(b)-1]), Handler{Task: func(Task) error { return nil }}); err != ErrTruncated {
		t.Errorf("got %v, want ErrTruncated", err)
	}
}

// TestUnknownRecordSkipped verifies forward compatibility: a record
// with an unknown kind tag is skipped (or routed to Unknown) and the
// following records still decode.
func TestUnknownRecordSkipped(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteTask(Task{ID: 1, Type: 2, Created: 3, CreatorCPU: 4}); err != nil {
		t.Fatal(err)
	}
	// Forge a record with kind 99 directly in the stream.
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	if err := w.record(99, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTask(Task{ID: 2, Type: 2, Created: 5, CreatorCPU: 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Without an Unknown handler the record is silently skipped.
	var c collect
	h := c.handler()
	h.Unknown = nil
	if err := Read(bytes.NewReader(buf.Bytes()), h); err != nil {
		t.Fatal(err)
	}
	if len(c.tasks) != 2 {
		t.Errorf("got %d tasks, want 2", len(c.tasks))
	}

	// With an Unknown handler the kind is reported.
	var c2 collect
	if err := Read(bytes.NewReader(buf.Bytes()), c2.handler()); err != nil {
		t.Fatal(err)
	}
	if len(c2.unknown) != 1 || c2.unknown[0] != 99 {
		t.Errorf("unknown kinds = %v, want [99]", c2.unknown)
	}
}

// TestOmittedKindsTolerated verifies the incremental approach of
// Section VI-A: a consumer interested only in states can read a trace
// that contains many kinds, and a trace without memory accesses still
// loads.
func TestOmittedKindsTolerated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteState(StateEvent{CPU: 0, State: StateTaskExec, Start: 0, End: 10, Task: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteComm(CommEvent{Kind: CommWrite, CPU: 0, SrcCPU: -1, Time: 9, Task: 1, Addr: 16, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var states int
	h := Handler{State: func(StateEvent) error { states++; return nil }}
	if err := Read(bytes.NewReader(buf.Bytes()), h); err != nil {
		t.Fatal(err)
	}
	if states != 1 {
		t.Errorf("got %d states, want 1", states)
	}
}

func TestFileRoundTripPlainAndGzip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.atm", "t.atm.gz"} {
		path := filepath.Join(dir, name)
		fw, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]StateEvent, 100)
		for i := range want {
			want[i] = StateEvent{
				CPU:   int32(i % 4),
				State: WorkerState(i % NumWorkerStates),
				Start: int64(i * 10),
				End:   int64(i*10 + 5),
				Task:  TaskID(i),
			}
			if err := fw.WriteState(want[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		var got []StateEvent
		err = ReadFile(path, Handler{State: func(s StateEvent) error {
			got = append(got, s)
			return nil
		}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip mismatch (%d events)", name, len(got))
		}
	}
}

// Property: every randomly generated event round trips exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(cpu uint16, state uint8, start int64, dur uint32, task uint64) bool {
		start = start % (1 << 40)
		if start < 0 {
			start = -start
		}
		ev := StateEvent{
			CPU:   int32(cpu), // valid ids: readers reject CPUs outside [0, MaxCPUID]
			State: WorkerState(state % uint8(NumWorkerStates)),
			Start: start,
			End:   start + int64(dur),
			Task:  TaskID(task),
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteState(ev); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		var got StateEvent
		err := Read(&buf, Handler{State: func(s StateEvent) error { got = s; return nil }})
		return err == nil && got == ev
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommRoundTripProperty(t *testing.T) {
	f := func(kind uint8, cpu uint16, src int16, tm int64, task, addr, size uint64) bool {
		if tm < 0 {
			tm = -tm
		}
		if src < -1 {
			src = -1 // -1 is the only valid negative (no source CPU)
		}
		ev := CommEvent{
			Kind:   CommKind(kind % uint8(NumCommKinds)),
			CPU:    int32(cpu),
			SrcCPU: int32(src),
			Time:   tm % (1 << 40),
			Task:   TaskID(task),
			Addr:   addr,
			Size:   size,
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteComm(ev); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		var got CommEvent
		err := Read(&buf, Handler{Comm: func(c CommEvent) error { got = c; return nil }})
		return err == nil && got == ev
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInterleavedStreams verifies that events from many CPUs can be
// interleaved arbitrarily while each CPU's stream stays ordered.
func TestInterleavedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	next := make([]int64, 8)
	var wrote int
	for i := 0; i < 1000; i++ {
		cpu := rng.Intn(8)
		start := next[cpu]
		end := start + int64(rng.Intn(100)+1)
		next[cpu] = end
		if err := w.WriteState(StateEvent{CPU: int32(cpu), Start: start, End: end}); err != nil {
			t.Fatal(err)
		}
		wrote++
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	last := make(map[int32]int64)
	var got int
	err := Read(&buf, Handler{State: func(s StateEvent) error {
		if prev, ok := last[s.CPU]; ok && s.Start < prev {
			t.Errorf("CPU %d out of order: %d after %d", s.CPU, s.Start, prev)
		}
		last[s.CPU] = s.Start
		got++
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got != wrote {
		t.Errorf("read %d events, wrote %d", got, wrote)
	}
}

func TestStateAndKindStrings(t *testing.T) {
	if StateIdle.String() != "idle" || StateTaskExec.String() != "task_exec" {
		t.Error("state names wrong")
	}
	if WorkerState(200).String() != "unknown" {
		t.Error("out-of-range state should be unknown")
	}
	if EventSteal.String() != "steal" || EventKind(200).String() != "unknown" {
		t.Error("event kind names wrong")
	}
	if CommRead.String() != "read" || CommKind(200).String() != "unknown" {
		t.Error("comm kind names wrong")
	}
}

func TestRegionContains(t *testing.T) {
	r := MemRegion{Addr: 100, Size: 50}
	for _, tc := range []struct {
		addr uint64
		want bool
	}{{99, false}, {100, true}, {149, true}, {150, false}} {
		if got := r.Contains(tc.addr); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.addr, got, tc.want)
		}
	}
}

// TestCompressionShrinks sanity-checks that gzip output is smaller for
// a repetitive trace (the reason the paper compresses traces).
func TestCompressionShrinks(t *testing.T) {
	dir := t.TempDir()
	write := func(path string) int64 {
		fw, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			if err := fw.WriteState(StateEvent{CPU: 0, State: StateTaskExec, Start: int64(i * 10), End: int64(i*10 + 9), Task: TaskID(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := statSize(path)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain := write(filepath.Join(dir, "p.atm"))
	gz := write(filepath.Join(dir, "p.atm.gz"))
	if gz >= plain {
		t.Errorf("gzip trace (%d bytes) not smaller than plain (%d bytes)", gz, plain)
	}
}

func TestVarintHeaderVersion(t *testing.T) {
	// A future version must be rejected.
	var buf bytes.Buffer
	buf.Write(magic[:])
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], formatVersion+1)
	buf.Write(tmp[:n])
	if err := Read(&buf, Handler{}); err == nil {
		t.Error("expected version error")
	}
}

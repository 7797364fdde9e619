package trace

import (
	"bytes"
	"testing"
)

// fuzzSeedTrace builds a small well-formed trace exercising every
// record kind, used as the structured fuzz seed.
func fuzzSeedTrace(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	steps := []func() error{
		func() error {
			return w.WriteTopology(Topology{
				Name: "fuzz", NumNodes: 2,
				NodeOfCPU: []int32{0, 1},
				Distance:  []int32{0, 1, 1, 0},
			})
		},
		func() error { return w.WriteTaskType(TaskType{ID: 1, Addr: 0x400, Name: "work"}) },
		func() error { return w.WriteTask(Task{ID: 1, Type: 1, Created: 5, CreatorCPU: 0}) },
		func() error {
			return w.WriteState(StateEvent{CPU: 0, State: StateTaskExec, Start: 10, End: 90, Task: 1})
		},
		func() error {
			return w.WriteDiscrete(DiscreteEvent{CPU: 1, Kind: EventSteal, Time: 15, Arg: 1})
		},
		func() error {
			return w.WriteCounterDesc(CounterDesc{ID: 7, Name: CounterCacheMisses, Monotonic: true})
		},
		func() error { return w.WriteSample(CounterSample{CPU: 0, Counter: 7, Time: 20, Value: 100}) },
		func() error {
			return w.WriteComm(CommEvent{Kind: CommRead, CPU: 0, SrcCPU: -1, Time: 12, Task: 1, Addr: 0x1000, Size: 64})
		},
		func() error { return w.WriteRegion(MemRegion{ID: 1, Addr: 0x1000, Size: 4096, Node: 1}) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// collectAll reads every record kind through both the sequential
// handler reader and the batched reader, returning the two batched
// record sets for cross-checking. Any panic is the fuzz failure.
func collectAll(data []byte, workers int) (*RecordBatch, error) {
	all := &RecordBatch{MaxCPU: -1}
	err := ReadBatched(bytes.NewReader(data), workers, func(b *RecordBatch) error {
		all.Topologies = append(all.Topologies, b.Topologies...)
		all.TaskTypes = append(all.TaskTypes, b.TaskTypes...)
		all.Tasks = append(all.Tasks, b.Tasks...)
		all.States = append(all.States, b.States...)
		all.Discrete = append(all.Discrete, b.Discrete...)
		all.Descs = append(all.Descs, b.Descs...)
		all.Samples = append(all.Samples, b.Samples...)
		all.Comms = append(all.Comms, b.Comms...)
		all.Regions = append(all.Regions, b.Regions...)
		if b.MaxCPU > all.MaxCPU {
			all.MaxCPU = b.MaxCPU
		}
		return nil
	})
	return all, err
}

// FuzzReadTrace: arbitrary bytes through every reader — Read, the
// batched reader (inline and parallel decode) and the StreamReader (fed
// whole, a byte per read, and in small chunks) — must return an error or
// decode cleanly: never panic, and never allocate in proportion to a
// corrupt length field rather than to the input. The readers accept or
// reject an input together, with the same class of error, and agree
// record by record on what they accept.
func FuzzReadTrace(f *testing.F) {
	valid := fuzzSeedTrace(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-record
	f.Add([]byte{})
	f.Add([]byte("ATMG"))                                       // header only, no version
	f.Add([]byte("ATMG\x01"))                                   // empty valid trace
	f.Add([]byte("not a trace at all"))                         // bad magic
	f.Add([]byte("ATMG\x01\x04\xff\xff\xff\xff\x0f"))           // state record, huge payload length
	f.Add([]byte("ATMG\x01\x01\x03foo"))                        // topology with garbage payload
	f.Add([]byte("ATMG\x01\x01\x06\x00\xff\xff\xff\xff\x0f"))   // topology claiming 2^32 nodes
	f.Add([]byte("ATMG\x01\x04\x05\x7f\x00\x00\x00\x00"))       // state on implausible CPU 127... truncated
	f.Add([]byte("ATMG\x01\x63\x02\x01\x02"))                   // unknown record kind 0x63, skipped
	f.Add(append(append([]byte{}, valid...), 0x04, 0x02, 0x01)) // valid trace + trailing truncated record

	f.Fuzz(func(t *testing.T, data []byte) {
		var rs []reading
		var err error
		n := allocated(func() { rs, err = readEveryWay(data) })
		if err == nil {
			err = agree(rs)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Six readers' buffers, and decoded records a small multiple of
		// the bytes they were decoded from.
		if limit := uint64(8<<20 + 1024*len(data)); n > limit {
			t.Fatalf("readers allocated %d bytes on a %d byte input (limit %d)", n, len(data), limit)
		}
	})
}

package trace

import (
	"bytes"
	"cmp"
	"fmt"
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

// manyCountersStream writes 40 counters sampled interleaved across CPUs
// 0, 7, 12345 and MaxCPUID, half of them described before their first
// sample and half after it, so a batch's pairs fall both in the pair
// index's table and past it, and its CounterIDs take their order from
// descriptions and samples alike.
func manyCountersStream(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	desc := func(id CounterID) error {
		return w.WriteCounterDesc(CounterDesc{ID: id, Name: fmt.Sprintf("c%d", id), Monotonic: id%3 == 0})
	}
	const counters = 40
	var err error
	for id := CounterID(0); id < counters; id += 2 {
		err = cmp.Or(err, desc(id*5))
	}
	for round := range 3 {
		for k, cpu := range []int32{0, 7, 12345, MaxCPUID} {
			for i := range CounterID(counters) {
				id := (i*7 + CounterID(k)) % counters * 5 // a different order on each CPU
				err = cmp.Or(err, w.WriteSample(CounterSample{CPU: cpu, Counter: id, Time: int64(round*100 + int(i)), Value: int64(i)}))
			}
		}
		if round == 0 {
			for id := CounterID(1); id < counters; id += 2 {
				err = cmp.Or(err, desc(id*5))
			}
		}
	}
	if err = cmp.Or(err, w.Flush()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// collectAll reads data through the batched reader and returns every
// record it delivered as one batch, after checking the counts each
// batch carried against the batch itself. Any panic is the fuzz failure.
func collectAll(data []byte, workers int) (*RecordBatch, error) {
	all := &RecordBatch{}
	err := ReadBatched(bytes.NewReader(data), workers, func(b *RecordBatch) error {
		if err := checkBatchCounts(b); err != nil {
			return fmt.Errorf("ReadBatched(workers=%d): %w", workers, err)
		}
		collectBatches(all, b)
		return nil
	})
	return all, err
}

// checkBatchCounts recounts a batch a batched or streaming reader
// emitted: CPUCounts and SampleCounts must hold exactly one entry per
// CPU and per (counter, CPU) pair the batch has records for, with the
// number of those records, and CounterIDs each counter the batch's
// descriptions and samples name, once. Every reader counts a run of
// records before it decodes them, so every record slice must also be
// exactly as long as its array, and nil when empty.
func checkBatchCounts(b *RecordBatch) error {
	cpus := map[int32]*CPUCount{}
	cpu := func(id int32) *CPUCount {
		if cpus[id] == nil {
			cpus[id] = &CPUCount{CPU: id}
		}
		return cpus[id]
	}
	for _, s := range b.States {
		cpu(s.CPU).States++
	}
	for _, ev := range b.Discrete {
		cpu(ev.CPU).Discrete++
	}
	for _, ev := range b.Comms {
		cpu(ev.CPU).Comms++
	}
	if len(b.CPUCounts) != len(cpus) {
		return fmt.Errorf("CPUCounts has %d entries for %d CPUs: %+v", len(b.CPUCounts), len(cpus), b.CPUCounts)
	}
	for _, c := range b.CPUCounts {
		if want := cpus[c.CPU]; want == nil || *want != c {
			return fmt.Errorf("CPUCounts entry %+v, recount %+v", c, want)
		}
	}
	pairs := map[SampleCount]int{}
	for _, s := range b.Samples {
		pairs[SampleCount{Counter: s.Counter, CPU: s.CPU}]++
	}
	if len(b.SampleCounts) != len(pairs) {
		return fmt.Errorf("SampleCounts has %d entries for %d pairs: %+v", len(b.SampleCounts), len(pairs), b.SampleCounts)
	}
	for _, c := range b.SampleCounts {
		if want := pairs[SampleCount{Counter: c.Counter, CPU: c.CPU}]; want != c.N {
			return fmt.Errorf("SampleCounts entry %+v, recount %d", c, want)
		}
	}
	named := map[CounterID]bool{}
	for _, d := range b.Descs {
		named[d.ID] = true
	}
	for _, s := range b.Samples {
		named[s.Counter] = true
	}
	listed := map[CounterID]bool{}
	for _, id := range b.CounterIDs {
		if listed[id] || !named[id] {
			return fmt.Errorf("CounterIDs %v lists %d twice or for no record", b.CounterIDs, id)
		}
		listed[id] = true
	}
	if len(listed) != len(named) {
		return fmt.Errorf("CounterIDs %v, but the records name %d counters", b.CounterIDs, len(named))
	}
	return cmp.Or(tight("Topologies", b.Topologies), tight("TaskTypes", b.TaskTypes), tight("Tasks", b.Tasks),
		tight("States", b.States), tight("Discrete", b.Discrete), tight("Descs", b.Descs),
		tight("Samples", b.Samples), tight("Comms", b.Comms), tight("Regions", b.Regions))
}

// tight reports a slice that is longer in memory than in records, or
// empty without being nil.
func tight[T any](name string, s []T) error {
	if cap(s) != len(s) || (s != nil && len(s) == 0) {
		return fmt.Errorf("%s: len %d, cap %d, nil %v", name, len(s), cap(s), s == nil)
	}
	return nil
}

// FuzzReadTrace: arbitrary bytes through every reader — Read, the
// batched reader (inline and parallel decode) and the StreamReader (fed
// whole, a byte per read, and in small chunks) — must return an error or
// decode cleanly: never panic, and never allocate in proportion to a
// corrupt length field rather than to the input. The readers accept or
// reject an input together, with the same class of error, and agree
// record by record on what they accept; every batch a batched or
// streaming reader emits carries counts and CounterIDs equal to a
// recount of it, its slices are exactly sized, and every reader's
// CounterIDs, joined over the stream, give Read's first-touch order.
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
	f.Add(farCPUStream(f, 40))                                  // records alternating CPU 0 and MaxCPUID
	f.Add(manyCountersStream(f))                                // 40 counters across near and far CPUs

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

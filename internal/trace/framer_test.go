package trace

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// reading is what one reader made of an input: the records it
// delivered, per kind in stream order, the counters in first-touch order
// (CounterIDs; Read's from the records it handed out), and how it ended.
type reading struct {
	name string
	recs RecordBatch
	err  error
}

// pollAll feeds data to a StreamReader the way a growing file would —
// chunk(i) more bytes before the i-th Poll, behind wrap — and returns
// what it delivered. After every Poll the bytes handed out so far must
// all be accounted for as consumed or buffered.
func pollAll(name string, data []byte, wrap func(io.Reader) io.Reader, chunk func(i int) int) (reading, error) {
	rd := reading{name: name}
	g := &limitedReader{data: data}
	sr := NewStreamReader(wrap(g))
	for i := 0; ; i++ {
		g.limit = min(g.limit+chunk(i), len(data))
		var miscounted error
		_, rd.err = sr.Poll(func(b *RecordBatch) error {
			miscounted = cmp.Or(miscounted, checkBatchCounts(b))
			collectBatches(&rd.recs, b)
			return nil
		})
		if miscounted != nil {
			return rd, fmt.Errorf("%s: %w", name, miscounted)
		}
		if rd.err != nil {
			break
		}
		if sr.Consumed()+int64(sr.Buffered()) != int64(g.off) {
			return rd, fmt.Errorf("%s: Consumed %d + Buffered %d after %d bytes fed", name, sr.Consumed(), sr.Buffered(), g.off)
		}
		if g.off == len(data) {
			rd.err = sr.Done()
			break
		}
	}
	return rd, nil
}

// readEveryWay runs data through the four drivers of the framer: Read,
// ReadBatched inline and parallel, and the StreamReader fed whole, a
// byte per read, and in prime-sized chunks with reads that return
// nothing in between.
func readEveryWay(data []byte) ([]reading, error) {
	var c collect
	err := Read(bytes.NewReader(data), c.handler())
	out := []reading{{"Read", RecordBatch{Topologies: c.topo, TaskTypes: c.types, Tasks: c.tasks, States: c.states,
		Discrete: c.discrete, Descs: c.descs, Samples: c.samples, Comms: c.comm, Regions: c.regions, CounterIDs: c.counterIDs}, err}}
	for _, workers := range []int{1, 4} {
		got, err := collectAll(data, workers)
		out = append(out, reading{fmt.Sprintf("ReadBatched/%d", workers), *got, err})
	}
	plain := func(r io.Reader) io.Reader { return r }
	all := func(int) int { return len(data) }
	for _, s := range []struct {
		name  string
		wrap  func(io.Reader) io.Reader
		chunk func(int) int
	}{
		{"StreamReader/whole", plain, all},
		{"StreamReader/one-byte", iotest.OneByteReader, all},
		{"StreamReader/primes", func(r io.Reader) io.Reader { return &zeroThenReader{inner: r.(*limitedReader)} },
			func(i int) int { return []int{1, 2, 3, 5, 7, 11, 13}[i%7] }},
	} {
		rd, err := pollAll(s.name, data, s.wrap, s.chunk)
		if err != nil {
			return nil, err
		}
		out = append(out, rd)
	}
	return out, nil
}

// errClass sorts reader errors into the classes callers tell apart.
func errClass(err error) string {
	switch {
	case err == nil:
		return "accepted"
	case errors.Is(err, ErrBadMagic):
		return "bad magic"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	}
	return "rejected"
}

// agree reports the first reader that ended differently from Read, or,
// when the input was accepted, delivered different records.
func agree(rs []reading) error {
	for _, r := range rs[1:] {
		if errClass(r.err) != errClass(rs[0].err) {
			return fmt.Errorf("%s: %v, but %s: %v", r.name, r.err, rs[0].name, rs[0].err)
		}
		if r.err == nil && !reflect.DeepEqual(r.recs, rs[0].recs) {
			return fmt.Errorf("%s delivered\n %+v\nbut %s\n %+v", r.name, r.recs, rs[0].name, rs[0].recs)
		}
	}
	return nil
}

// rawRecords returns the stream bytes of the records write produces,
// without the stream header, for appending to another trace.
func rawRecords(t *testing.T, write func(w *Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := write(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[len(magic)+1:]
}

// TestReadersAgreeOnEveryPrefix cuts a small trace with every record
// kind at every byte — inside the magic, the version, one- and two-byte
// kinds and sizes, and payloads — and requires the four readers to
// accept or reject each prefix together, with the same class of error,
// and to deliver the same records when they accept.
func TestReadersAgreeOnEveryPrefix(t *testing.T) {
	data := fuzzSeedTrace(t)
	data = append(data, rawRecords(t, func(w *Writer) error {
		if err := w.record(300, []byte{1, 2, 3}); err != nil { // two-byte kind
			return err
		}
		return w.WriteTaskType(TaskType{ID: 2, Name: strings.Repeat("n", 200)}) // two-byte size
	})...)
	whole := 0
	for cut := 0; cut <= len(data); cut++ {
		rs, err := readEveryWay(data[:cut])
		if err == nil {
			err = agree(rs)
		}
		if err != nil {
			t.Fatalf("prefix of %d bytes: %v", cut, err)
		}
		switch class := errClass(rs[0].err); {
		case cut <= len(magic):
			if class != "bad magic" {
				t.Fatalf("prefix of %d bytes (inside the header): %v", cut, rs[0].err)
			}
		case class == "accepted":
			whole++
		case class != "truncated":
			t.Fatalf("prefix of %d bytes: %v, want truncation", cut, rs[0].err)
		}
	}
	if want := 1 + 11; whole != want { // the bare header, then one more per record
		t.Fatalf("%d prefixes accepted, want %d", whole, want)
	}
}

// TestReadersAgreeOnLongRecord: a record longer than any buffer the
// framer starts with grows the buffer as its bytes arrive, in every
// driver, and the records around it are unharmed.
func TestReadersAgreeOnLongRecord(t *testing.T) {
	long := make([]byte, 3*payloadChunk+12345)
	for i := range long {
		long[i] = byte(i * 7)
	}
	data := fuzzSeedTrace(t)
	data = append(data, rawRecords(t, func(w *Writer) error {
		if err := w.record(77, long); err != nil {
			return err
		}
		return w.WriteTask(Task{ID: 99, Type: 1})
	})...)
	var tasks int
	var unknown []byte
	err := Read(iotest.HalfReader(bytes.NewReader(data)), Handler{
		Task:    func(Task) error { tasks++; return nil },
		Unknown: func(_ uint64, p []byte) error { unknown = append([]byte(nil), p...); return nil },
	})
	if err != nil || tasks != 2 || !bytes.Equal(unknown, long) {
		t.Fatalf("Read: err %v, %d tasks, long payload intact %v", err, tasks, bytes.Equal(unknown, long))
	}
	for _, workers := range []int{1, 4} {
		got, err := collectAll(data, workers)
		if err != nil || len(got.Tasks) != 2 || got.Tasks[1].ID != 99 {
			t.Fatalf("ReadBatched(workers=%d): err %v, tasks %v", workers, err, got.Tasks)
		}
	}
	// The live reader sees the long record arrive in pieces.
	g := &limitedReader{data: data}
	sr := NewStreamReader(g)
	var got RecordBatch
	for g.limit < len(data) {
		g.limit = min(g.limit+300_000, len(data))
		if _, err := sr.Poll(func(b *RecordBatch) error { collectBatches(&got, b); return nil }); err != nil {
			t.Fatal(err)
		}
		if have := sr.Consumed() + int64(sr.Buffered()); have != int64(g.limit) {
			t.Fatalf("Consumed+Buffered = %d after %d bytes", have, g.limit)
		}
	}
	if err := sr.Done(); err != nil || len(got.Tasks) != 2 {
		t.Fatalf("StreamReader: Done %v, tasks %v", err, got.Tasks)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadersAgreeLyingLengthIsCheap: a length field that lies is
// believed only as far as bytes arrive. Just under the limit it costs
// no reader more than its buffers; over the limit it is rejected by
// name before anything grows.
func TestReadersAgreeLyingLengthIsCheap(t *testing.T) {
	head := append(fuzzSeedTrace(t), recState)
	lying := append(binary.AppendUvarint(head, maxRecordSize), make([]byte, 100)...)
	over := binary.AppendUvarint(append([]byte(nil), head...), maxRecordSize+1)
	for _, tc := range []struct {
		name  string
		data  []byte
		class string
	}{{"lying", lying, "truncated"}, {"over the limit", over, "rejected"}} {
		var rs []reading
		var err error
		n := allocated(func() { rs, err = readEveryWay(tc.data) })
		if err == nil {
			err = agree(rs)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if errClass(rs[0].err) != tc.class {
			t.Errorf("%s: %v, want it %s", tc.name, rs[0].err, tc.class)
		}
		if n > 2*payloadChunk {
			t.Errorf("%s: six readers allocated %d bytes on a %d byte input", tc.name, n, len(tc.data))
		}
	}
	if err := Read(bytes.NewReader(over), Handler{}); err == nil || !strings.Contains(err.Error(), "exceeds the") {
		t.Errorf("over the limit: %v, want the size limit named", err)
	}
}

// TestTopologyValidate: the wire decoder and the Writer reject a
// topology whose node ids or distance matrix consumers cannot index by,
// naming the offending value.
func TestTopologyValidate(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		topo       Topology
	}{
		{"empty", "", Topology{}},
		{"two nodes", "", Topology{NumNodes: 2, NodeOfCPU: []int32{0, 1, 1}, Distance: []int32{0, 1, 1, 0}}},
		{"negative node count", "-1 NUMA nodes", Topology{NumNodes: -1}},
		{"negative node", "CPU 0 on NUMA node -1", Topology{NumNodes: 2, NodeOfCPU: []int32{-1, 0}, Distance: make([]int32, 4)}},
		{"node past the count", "CPU 1 on NUMA node 2", Topology{NumNodes: 2, NodeOfCPU: []int32{0, 2}, Distance: make([]int32, 4)}},
		{"CPUs but no nodes", "CPU 0 on NUMA node 0", Topology{NodeOfCPU: []int32{0}}},
		{"short distance matrix", "1 entries, want 16", Topology{NumNodes: 4, Distance: []int32{0}}},
	} {
		err := tc.topo.Validate()
		if (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
		if werr := NewWriter(&bytes.Buffer{}).WriteTopology(tc.topo); (werr == nil) != (err == nil) {
			t.Errorf("%s: WriteTopology = %v, Validate = %v", tc.name, werr, err)
		}
	}

	// On the wire a node id is a uvarint, so one past 2^31 decodes
	// negative: the decoder must refuse it, in every reader.
	payload := []byte{1, 'm', 2, 2}                      // name, 2 nodes, 2 CPUs
	payload = binary.AppendUvarint(payload, 1<<32-1)     // CPU 0 on node -1
	payload = append(payload, 0 /* CPU 1 */, 0, 1, 1, 0) // distances
	data := append([]byte("ATMG\x01"), rawRecords(t, func(w *Writer) error { return w.record(recTopology, payload) })...)
	rs, err := readEveryWay(data)
	if err == nil {
		err = agree(rs)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := rs[0].err; err == nil || !strings.Contains(err.Error(), "NUMA node -1") {
		t.Errorf("negative node id on the wire: %v, want it refused by name", err)
	}
}

package otlp

import (
	"bytes"
	"io"
	"os"
	"testing"

	"github.com/openstream/aftermath/internal/trace"
)

// FuzzImportSpans drives arbitrary bytes through the span decoder, in
// one shot and in 7-byte dribbles, asserting it never panics, that the
// two chunkings agree on what was imported, and that every emitted
// batch upholds the record invariants the rest of the pipeline assumes
// (sorted disjoint per-CPU states, tasks within the batch window).
func FuzzImportSpans(f *testing.F) {
	if fixture, err := os.ReadFile("testdata/spans.jsonl"); err == nil {
		f.Add(fixture)
		if i := bytes.IndexByte(fixture, '\n'); i > 0 {
			f.Add(fixture[:i+1])
			f.Add(fixture[:i/2]) // truncated document
		}
	}
	f.Add([]byte(stdoutDoc))
	f.Add([]byte(otlpDoc))
	f.Add([]byte(stdoutDoc + "\n" + stdoutDoc)) // duplicate span ids
	f.Add([]byte(`{"resourceSpans":[]}`))
	f.Add([]byte("{]"))
	f.Add([]byte("ATMG\x01 not json"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		whole := importAll(t, bytes.NewReader(data))
		chunked := importAll(t, &chunkReader{data: data, chunk: 7})

		if (whole == nil) != (chunked == nil) {
			t.Fatalf("chunking changed the error outcome: whole=%v chunked=%v", whole == nil, chunked == nil)
		}
		if whole != nil && (whole.Spans != chunked.Spans || whole.Dropped != chunked.Dropped) {
			t.Fatalf("chunking changed the import: %+v vs %+v", whole, chunked)
		}
	})
}

type chunkReader struct {
	data  []byte
	off   int
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := len(r.data) - r.off
	if n > r.chunk {
		n = r.chunk
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[r.off:r.off+n])
	r.off += n
	return n, nil
}

// importAll drains the decoder and returns the report on a clean end,
// nil if the stream was rejected at any stage.
func importAll(t *testing.T, r interface {
	Read([]byte) (int, error)
}) *Report {
	t.Helper()
	d := NewDecoder(r)
	lanes := 0
	for {
		n, err := d.Poll(func(b *trace.RecordBatch) error {
			checkBatch(t, b, &lanes)
			return nil
		})
		if err != nil {
			return nil
		}
		if n == 0 {
			break
		}
	}
	if err := d.Done(); err != nil {
		return nil
	}
	return d.Report()
}

// checkBatch asserts the structural invariants every consumer of the
// record stream relies on. lanes is the CPU count of the latest
// topology, which must cover every CPU a record names; a batch's
// topologies apply before its per-CPU records.
func checkBatch(t *testing.T, b *trace.RecordBatch, lanes *int) {
	t.Helper()
	for _, topo := range b.Topologies {
		*lanes = len(topo.NodeOfCPU)
	}
	perCPU := map[int32]trace.Time{}
	for _, s := range b.States {
		if s.CPU < 0 || int(s.CPU) >= *lanes {
			t.Fatalf("state on CPU %d outside the topology's %d CPUs", s.CPU, *lanes)
		}
		if s.End < s.Start {
			t.Fatalf("inverted state interval [%d,%d]", s.Start, s.End)
		}
		if last, ok := perCPU[s.CPU]; ok && s.Start < last {
			t.Fatalf("CPU %d states overlap: start %d before previous end %d", s.CPU, s.Start, last)
		}
		perCPU[s.CPU] = s.End
	}
	for _, d := range b.Discrete {
		if d.CPU < 0 || int(d.CPU) >= *lanes {
			t.Fatalf("discrete event on CPU %d outside the topology's %d CPUs", d.CPU, *lanes)
		}
	}
	for _, topo := range b.Topologies {
		for cpu, node := range topo.NodeOfCPU {
			if node < 0 || node >= topo.NumNodes {
				t.Fatalf("CPU %d on node %d outside %d nodes", cpu, node, topo.NumNodes)
			}
		}
	}
}

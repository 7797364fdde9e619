package ingest_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/atmtest/oracle"
	"github.com/openstream/aftermath/internal/ingest"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/trace"
	"github.com/openstream/aftermath/internal/ui"
)

// serveTrace writes a tiny native trace: two CPUs, 0 and second, on two
// nodes, a task per CPU that reads a region homed on regionNode and
// bumps a counter. With topology nil the trace carries no topology
// record.
func serveTrace(tb testing.TB, topology *trace.Topology, regionNode, second int32) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	if topology != nil {
		must(w.WriteTopology(*topology))
	}
	must(w.WriteTaskType(trace.TaskType{ID: 1, Addr: 0x40, Name: "work"}))
	must(w.WriteCounterDesc(trace.CounterDesc{ID: 3, Name: trace.CounterCacheMisses, Monotonic: true}))
	must(w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x1000, Size: 4096, Node: regionNode}))
	for i := 0; i < 8; i++ {
		cpu, t0, id := []int32{0, second}[i%2], int64(100*i), trace.TaskID(i+1)
		must(w.WriteTask(trace.Task{ID: id, Type: 1, Created: t0, CreatorCPU: cpu}))
		must(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateTaskExec, Start: t0, End: t0 + 80, Task: id}))
		must(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: t0 + 80, End: t0 + 100}))
		must(w.WriteComm(trace.CommEvent{Kind: trace.CommRead, CPU: cpu, SrcCPU: -1, Time: t0 + 1, Task: id, Addr: 0x1000, Size: 64}))
		must(w.WriteSample(trace.CounterSample{CPU: cpu, Counter: 3, Time: t0, Value: int64(10 * i)}))
	}
	must(w.Flush())
	return buf.Bytes()
}

// negativeNodeTrace is serveTrace behind a hand-encoded topology a
// Writer refuses to write: CPU 0 on node 2^32-1, which is -1 as an
// int32 — the record that indexed the communication matrix at [-1].
func negativeNodeTrace(tb testing.TB) []byte {
	topo := []byte{1, 'm', 2, 2}                   // name, 2 nodes, 2 CPUs
	topo = binary.AppendUvarint(topo, 1<<32-1)     // CPU 0 on node -1
	topo = append(topo, 0 /* CPU 1 */, 0, 1, 1, 0) // distances
	rest := serveTrace(tb, nil, 1, 1)
	const header = 5 // magic and version
	out := append([]byte(nil), rest[:header]...)
	out = append(out, 1 /* topology record */, byte(len(topo)))
	out = append(out, topo...)
	return append(out, rest[header:]...)
}

var (
	twoNodes = trace.Topology{Name: "m", NumNodes: 2, NodeOfCPU: []int32{0, 1}, Distance: []int32{0, 1, 1, 0}}
	fourCPUs = trace.Topology{Name: "m4", NumNodes: 2, NodeOfCPU: []int32{0, 0, 1, 1}, Distance: []int32{0, 1, 1, 0}}
)

// TestOpenReaderRejectsNegativeNode: the trace that crashed /matrix is
// refused at open, by name.
func TestOpenReaderRejectsNegativeNode(t *testing.T) {
	_, err := ingest.OpenReader(bytes.NewReader(negativeNodeTrace(t)))
	if err == nil || !strings.Contains(err.Error(), "NUMA node -1") {
		t.Fatalf("OpenReader = %v, want the topology refused for its node id", err)
	}
}

// FuzzOpenServe sends hostile trace bytes down the serving path:
// whatever ingest.OpenReader accepts, a viewer over it answers its
// data endpoints — every render mode included — without a panic or a
// 5xx, and every PNG among the answers decodes (out-of-range states
// and arbitrary type and node counts decide how many colours a tile
// has), and a 200 of /render, /stats, /matrix or /plot over a native
// trace is the oracle's answer. Inputs it rejects only have to be
// rejected with an error.
func FuzzOpenServe(f *testing.F) {
	f.Add(serveTrace(f, &twoNodes, 1, 1))
	f.Add(negativeNodeTrace(f))
	f.Add(serveTrace(f, &twoNodes, 7, 1))        // region homed on node 7 of 2
	f.Add(serveTrace(f, nil, 1, 1))              // no topology record
	f.Add(serveTrace(f, nil, 1, trace.MaxCPUID)) // CPUs 0 and MaxCPUID
	f.Add(serveTrace(f, &fourCPUs, 1, 1000))     // a 4-CPU topology, CPUs 1-3 without records, and CPU 1000
	urls := []string{"/stats", "/matrix", "/anomalies", "/plot?kind=idle", "/plot?kind=avgdur", "/plot?kind=" + trace.CounterCacheMisses,
		"/task?cpu=1000&at=5", fmt.Sprintf("/task?cpu=%d&at=5", trace.MaxCPUID)}
	for _, mode := range []string{"state", "heatmap", "typemap", "numa-read", "numa-write", "numa-heat"} {
		urls = append(urls, "/render?w=160&h=60&counter="+trace.CounterCacheMisses+"&mode="+mode)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ingest.OpenReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		srv := ui.NewServer(query.NewStatic(tr), "fuzz")
		defer srv.Close()
		var j atmtest.Judge
		if o, err := oracle.Read(data); err == nil {
			j = o
		}
		for _, u := range urls {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", u, nil))
			atmtest.CheckServed(t, u, rec, j)
		}
	})
}

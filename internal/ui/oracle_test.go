package ui

import (
	"bytes"
	"fmt"
	"maps"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/atmtest/oracle"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/trace"
)

// servers serves a native trace the four ways a viewer serves one:
// batch-loaded, fed live in several publishes, fed live spilling every
// publish, and saved as a store snapshot and mapped back.
func servers(t testing.TB, data []byte) map[string]*Server {
	batch, err := core.FromReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.atms")
	if err := core.SaveStore(batch, path); err != nil {
		t.Fatal(err)
	}
	mapped, err := core.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	out := map[string]*Server{}
	for way, tr := range map[string]*core.Trace{
		"batch": batch, "live": atmtest.LiveTrace(t, data, 4, false),
		"spilled": atmtest.LiveTrace(t, data, 4, true), "atms": mapped,
	} {
		srv := NewServer(query.NewStatic(tr), way)
		t.Cleanup(func() { srv.Close() })
		out[way] = srv
	}
	return out
}

// TestServedEqualsOracle: what the viewer serves for /render, /stats,
// /matrix and /plot over oracle.Gen's adversarial traces is the
// oracle's answer — pixel for pixel, byte for byte — whether the trace
// was batch-loaded, fed live, fed live spilling every publish or mapped
// back from a store snapshot. The malformed traces, which the oracle
// does not judge, are held to the first check alone: no 5xx, and every
// PNG decodes.
func TestServedEqualsOracle(t *testing.T) {
	judged := 0
	for seed := int64(1); seed <= 40; seed++ {
		data, targets := oracle.Gen(seed)
		o, err := oracle.Read(data)
		if err != nil {
			t.Fatal(err)
		}
		srvs := servers(t, data)
		for i, target := range targets {
			for way, srv := range srvs {
				t.Run(fmt.Sprintf("seed=%d/%d/%s", seed, i, way), func(t *testing.T) {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
					atmtest.CheckServed(t, target, rec, o)
					if rec.Code == 200 && o.Exact() {
						judged++
					}
				})
			}
		}
	}
	if judged < 2000 {
		t.Errorf("the oracle judged %d answers; the equalities above are close to vacuous", judged)
	}
}

// FuzzServedEqualsOracle: the fuzzer picks oracle.Gen's seed, the verb
// and the raw query; what the four ways of serving the generated trace
// answer is held to CheckServed with the oracle.
func FuzzServedEqualsOracle(f *testing.F) {
	for seed, raw := range []string{"", "mode=numa-heat&w=100&t0=0&t1=0", "counter=events&rate=0&level=2", "kind=avgdur&types=alpha&n=10", "t1=9223372036854775807&cell=4"} {
		f.Add(int64(seed), uint8(seed), raw)
	}
	f.Fuzz(func(t *testing.T, seed int64, verb uint8, raw string) {
		data, _ := oracle.Gen(seed)
		o, err := oracle.Read(data)
		if err != nil {
			t.Fatal(err)
		}
		p := []string{"/render", "/stats", "/matrix", "/plot"}[verb%4]
		for _, srv := range servers(t, data) {
			req := httptest.NewRequest("GET", p, nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			atmtest.CheckServed(t, p+"?"+raw, rec, o)
		}
	})
}

// farCPUTrace writes a trace whose CPUs with events are 3, 7, 12345 and
// trace.MaxCPUID, beside CPUs 0 and 1 of a two-node topology that have
// none, so no CPU with an event sits at the row its id names: id 3 is
// row 2, id 7 row 3. Every CPU runs eight tasks that read from and
// write to two regions, one on each node, and steal from the next CPU;
// a task's reads depend on writes made on the other CPUs, and every CPU
// samples one counter.
func farCPUTrace(t testing.TB) []byte {
	t.Helper()
	cpus := []int32{3, 7, 12345, trace.MaxCPUID}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(trace.Topology{Name: "far", NumNodes: 2, NodeOfCPU: []int32{0, 1}, Distance: []int32{10, 20, 20, 10}}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Addr: 0x400, Name: "produce"}))
	must(w.WriteTaskType(trace.TaskType{ID: 2, Addr: 0x800, Name: "consume"}))
	must(w.WriteCounterDesc(trace.CounterDesc{ID: 1, Name: "cycles", Monotonic: true}))
	regions := []trace.MemRegion{{ID: 1, Addr: 0x1000, Size: 0x1000, Node: 0}, {ID: 2, Addr: 0x4000, Size: 0x1000, Node: 1}}
	for _, r := range regions {
		must(w.WriteRegion(r))
	}
	for k, cpu := range cpus {
		next := cpus[(k+1)%len(cpus)]
		value := int64(0)
		for i := range 8 {
			id := trace.TaskID(1 + 8*k + i)
			t0, d := trace.Time(1000*i+100*k), trace.Time(300+150*((3*i+k)%4))
			must(w.WriteTask(trace.Task{ID: id, Type: trace.TypeID(1 + i%2), Created: t0 - 50, CreatorCPU: next}))
			must(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateTaskExec, Start: t0, End: t0 + d, Task: id}))
			must(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: t0 + d, End: t0 + 1000}))
			read, write := regions[(i+k)%2], regions[(i+k+1)%2]
			must(w.WriteComm(trace.CommEvent{Kind: trace.CommRead, CPU: cpu, SrcCPU: -1, Time: t0, Task: id,
				Addr: read.Addr + uint64(64*k), Size: uint64(64 * (1 + i%3))}))
			must(w.WriteComm(trace.CommEvent{Kind: trace.CommSteal, CPU: cpu, SrcCPU: next, Time: t0 + d/2, Task: id}))
			must(w.WriteComm(trace.CommEvent{Kind: trace.CommWrite, CPU: cpu, SrcCPU: -1, Time: t0 + d, Task: id,
				Addr: write.Addr + uint64(64*i), Size: uint64(32 * (1 + k))}))
			for j := range 8 {
				value += int64((k + 1) * (j%5 + 1) * 10)
				must(w.WriteSample(trace.CounterSample{CPU: cpu, Counter: 1, Time: t0 + trace.Time(125*j), Value: value}))
			}
		}
	}
	must(w.Flush())
	return buf.Bytes()
}

// dependences returns the task graph's edges as trace.Read delivers the
// records, by the rule taskgraph.Reconstruct documents: a read of a
// region depends on the latest write to it at or before the read, a
// write ordered before a read at one timestamp.
func dependences(t testing.TB, data []byte) map[[2]trace.TaskID]bool {
	t.Helper()
	var regions []trace.MemRegion
	var comms []trace.CommEvent
	err := trace.Read(bytes.NewReader(data), trace.Handler{
		Region: func(r trace.MemRegion) error { regions = append(regions, r); return nil },
		Comm:   func(ev trace.CommEvent) error { comms = append(comms, ev); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	regionOf := func(addr uint64) uint64 {
		for _, r := range regions {
			if r.Contains(addr) {
				return r.Addr
			}
		}
		return addr
	}
	edges := map[[2]trace.TaskID]bool{}
	for _, r := range comms {
		if r.Kind != trace.CommRead {
			continue
		}
		var last *trace.CommEvent
		for i := range comms {
			w := &comms[i]
			if w.Kind == trace.CommWrite && regionOf(w.Addr) == regionOf(r.Addr) && w.Time <= r.Time &&
				(last == nil || w.Time > last.Time) {
				last = w
			}
		}
		if last != nil && last.Task != r.Task {
			edges[[2]trace.TaskID{last.Task, r.Task}] = true
		}
	}
	return edges
}

// TestFarCPUReadersEqualOracle: on a trace whose CPUs are rows other
// than their ids, the readers that take a communication event's or a
// sample's CPU from its row answer what the records say — /matrix, the
// numa-read, numa-write and numa-heat tiles, the counter overlay and
// /stats as the oracle works them out from trace.Read's records, and
// /graph.dot's edges as dependences finds them there — on a batch load,
// a live feed, a spilling live feed and a store snapshot. A reader that
// took a row for an id, or an id for a row, would read another CPU's
// events, or none.
func TestFarCPUReadersEqualOracle(t *testing.T) {
	data := farCPUTrace(t)
	o, err := oracle.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Exact() {
		t.Fatal("precondition: the oracle does not judge the trace")
	}
	targets := []string{"/matrix", "/matrix?t0=2000&t1=5000", "/stats", "/stats?t0=2000&t1=5000",
		"/render?mode=state&w=300&h=120&counter=cycles&rate=0", "/render?mode=state&w=300&h=120&counter=cycles&rate=1&t0=2000&t1=5000"}
	for _, mode := range []string{"numa-read", "numa-write", "numa-heat"} {
		targets = append(targets, "/render?mode="+mode+"&w=300&h=120", "/render?mode="+mode+"&w=300&h=120&t0=2000&t1=5000")
	}
	// Task 1+8k..8+8k runs on the k-th CPU: every CPU holds both ends
	// of some dependence that crosses to another.
	want := dependences(t, data)
	var from, to [4]int
	for e := range want {
		if a, b := (e[0]-1)/8, (e[1]-1)/8; a != b {
			from[a]++
			to[b]++
		}
	}
	if slices.Contains(from[:], 0) || slices.Contains(to[:], 0) {
		t.Fatalf("precondition: dependences crossing from each CPU %v, to each %v", from, to)
	}
	for way, srv := range servers(t, data) {
		tr, _ := srv.src.Snapshot()
		if len(tr.CPUs) != 6 || tr.CPUs[2].ID != 3 || tr.CPUs[5].ID != trace.MaxCPUID {
			t.Fatalf("%s: precondition: rows %+v", way, tr.CPUs)
		}
		for _, target := range targets {
			t.Run(way+target, func(t *testing.T) {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
				if rec.Code != 200 {
					t.Fatalf("GET %s = %d: %s", target, rec.Code, rec.Body)
				}
				atmtest.CheckServed(t, target, rec, o)
			})
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/graph.dot?max=0", nil))
		got := map[[2]trace.TaskID]bool{}
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			var a, b trace.TaskID
			if n, _ := fmt.Sscanf(line, "  t%d -> t%d;", &a, &b); n == 2 {
				got[[2]trace.TaskID{a, b}] = true
			}
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s: /graph.dot holds %d edges, the records %d: %v, want %v", way, len(got), len(want), got, want)
		}
	}
}

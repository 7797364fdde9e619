package aftermath

import (
	"path/filepath"
	"runtime"
	"testing"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/trace"
)

// storeBenchBytes hand-writes a trace stream with n short state
// intervals and counter samples per CPU — sized precisely, unlike the
// simulator's workloads, so two corpora can differ by a known factor.
func storeBenchBytes(tb testing.TB, nCPU, perCPU int) []byte {
	tb.Helper()
	var buf traceBuffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	nodeOf := make([]int32, nCPU)
	must(w.WriteTopology(trace.Topology{Name: "bench", NumNodes: 1, NodeOfCPU: nodeOf, Distance: []int32{0}}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Addr: 0x40, Name: "work"}))
	must(w.WriteCounterDesc(trace.CounterDesc{ID: 2, Name: "cycles", Monotonic: true}))
	// Tasks are sparse relative to events: task metadata stays in RAM
	// for the trace's whole life (spilling covers the event and sample
	// columns), so an event-dense stream is the shape where retention
	// pays.
	id := trace.TaskID(1)
	for i := 0; i < perCPU; i++ {
		t0 := int64(10 * i)
		for c := 0; c < nCPU; c++ {
			if i%64 == 0 {
				must(w.WriteTask(trace.Task{ID: id, Type: 1, Created: t0, CreatorCPU: int32(c)}))
				id++
			}
			must(w.WriteState(trace.StateEvent{CPU: int32(c), State: trace.StateTaskExec, Start: t0, End: t0 + 8, Task: 0}))
			must(w.WriteSample(trace.CounterSample{CPU: int32(c), Counter: 2, Time: t0, Value: int64(i) * 100}))
		}
	}
	must(w.Flush())
	return buf.data
}

// TestStoreOpenSizeIndependent: opening a columnar snapshot maps the
// file and adopts its columns zero-copy, so what an Open allocates is
// the meta section's parse — O(CPUs + counters), not O(events). A
// snapshot of 50x the events must open with exactly as many
// allocations, and at most a page of bytes more.
func TestStoreOpenSizeIndependent(t *testing.T) {
	dir := t.TempDir()
	var allocs [2]float64
	var bytes [2]uint64
	for i, perCPU := range []int{400, 20000} {
		tr, err := OpenReader(byteReader(storeBenchBytes(t, 16, perCPU)))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "snap.atms")
		if err := SaveSnapshot(tr, path); err != nil {
			t.Fatal(err)
		}
		open := func() {
			tr, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.CPUs) != 16 {
				t.Fatalf("snapshot of %d events per CPU opened with %d CPUs, want 16", perCPU, len(tr.CPUs))
			}
			tr.Close()
		}
		// AllocsPerRun opens once to warm up, then runs times.
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs[i] = testing.AllocsPerRun(runs, open)
		runtime.ReadMemStats(&after)
		bytes[i] = (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		t.Logf("%d events per CPU: %.0f allocations, %d bytes an open", perCPU, allocs[i], bytes[i])
	}
	if allocs[1] != allocs[0] {
		t.Errorf("open allocates %.0f objects at 50x the events, %.0f at 1x: want equal", allocs[1], allocs[0])
	}
	if bytes[1] > bytes[0]+4<<10 {
		t.Errorf("open allocates %d bytes at 50x the events, %d at 1x: want at most 4 KiB more", bytes[1], bytes[0])
	}
}

// liveHeap returns the post-GC live heap, the stable measure of what
// the ingest side retains.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// followPeak feeds data to a live trace in eight polls under the
// retention policy pol (none when pol.Dir is empty) and returns the
// peak post-GC heap over the heap before the feed.
func followPeak(t *testing.T, data []byte, pol core.RetentionPolicy) int64 {
	t.Helper()
	base := int64(liveHeap())
	var peak int64
	lv := core.NewLive()
	if pol.Dir != "" {
		lv.SetRetention(pol)
	}
	g := &growingTrace{data: data}
	sr := trace.NewStreamReader(g)
	const polls = 8
	for g.limit < len(data) {
		g.limit = min(g.limit+len(data)/polls+1, len(data))
		if _, err := lv.Feed(sr); err != nil {
			t.Fatal(err)
		}
		// Measure with the feed's compaction finished.
		if err := lv.Close(); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, int64(liveHeap())-base)
	}
	snap, _ := lv.Snapshot()
	if events, _ := snap.EventCounts(); events == 0 {
		t.Fatal("follow ingested nothing")
	}
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	return peak
}

// TestFollowRetentionBoundsHeap: epoch spilling bounds what a long
// follow keeps on the heap. The spilling heap is not flat across feed
// lengths — the task table and the index summaries stay in RAM — so the
// test pins its level and its slope against the unbounded follow of the
// same streams: at 48k events per CPU it peaks at most a quarter as
// high, and from 12k to 48k it grows at most a quarter as much.
func TestFollowRetentionBoundsHeap(t *testing.T) {
	var unbounded, spilled [2]int64
	for i, perCPU := range []int{12000, 48000} {
		data := storeBenchBytes(t, 16, perCPU)
		unbounded[i] = followPeak(t, data, core.RetentionPolicy{})
		spilled[i] = followPeak(t, data, core.RetentionPolicy{
			Dir:        t.TempDir(),
			SpillBytes: 256 << 10,
			MaxBytes:   8 << 20,
		})
		t.Logf("%d events per CPU: peak heap %d bytes unbounded, %d spilling", perCPU, unbounded[i], spilled[i])
	}
	if 4*spilled[1] > unbounded[1] {
		t.Errorf("spilling follow peaks at %d bytes, unbounded at %d: want at most a quarter", spilled[1], unbounded[1])
	}
	if grew, unboundedGrew := spilled[1]-spilled[0], unbounded[1]-unbounded[0]; 4*grew > unboundedGrew {
		t.Errorf("spilling peak grew %d bytes from 12k to 48k events per CPU, unbounded %d: want at most a quarter", grew, unboundedGrew)
	}
}

package anomaly_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/trace"
)

// seededTrace is a synthetic 4-CPU, 2-node trace with exactly four
// planted anomalies, one per detector kind.
type seededTrace struct {
	tr *core.Trace
	// slowTask ran 20x the worker-task median duration (on CPU 1).
	slowTask trace.TaskID
	// remoteTask read all its data from the remote NUMA node (CPU 0).
	remoteTask trace.TaskID
	// idleCPU sat idle over idleWindow while the machine was busy.
	idleCPU    int32
	idleWindow core.Interval
	// spikeCPU's cache-miss rate spiked 100x over spikeWindow.
	spikeCPU    int32
	spikeWindow core.Interval
}

const (
	spanEnd    = 100_000
	localAddr  = 0x100_000 // region homed on node 0
	remoteAddr = 0x300_000 // region homed on node 1
	readBytes  = 8192
)

// buildSeededTrace writes the synthetic trace through the real binary
// writer and loads it through the real loader, so the detectors see
// exactly what they would see on a trace from disk.
func buildSeededTrace(t testing.TB) *seededTrace {
	t.Helper()
	st := &seededTrace{
		idleCPU:     3,
		idleWindow:  core.Interval{Start: 40_000, End: 60_000},
		spikeCPU:    2,
		spikeWindow: core.Interval{Start: 70_000, End: 76_000},
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	check(w.WriteTopology(trace.Topology{
		Name:      "seeded",
		NumNodes:  2,
		NodeOfCPU: []int32{0, 0, 1, 1},
		Distance:  []int32{0, 1, 1, 0},
	}))
	check(w.WriteTaskType(trace.TaskType{ID: 1, Addr: 0x400, Name: "worker"}))
	check(w.WriteRegion(trace.MemRegion{ID: 1, Addr: localAddr, Size: 1 << 20, Node: 0}))
	check(w.WriteRegion(trace.MemRegion{ID: 2, Addr: remoteAddr, Size: 1 << 20, Node: 1}))

	id := trace.TaskID(0)
	for cpu := int32(0); cpu < 4; cpu++ {
		local := uint64(localAddr)
		if cpu >= 2 {
			local = remoteAddr
		}
		slowDone, remoteDone := false, false
		for t0 := trace.Time(0); t0 < spanEnd; {
			if cpu == st.idleCPU && t0 >= st.idleWindow.Start && t0 < st.idleWindow.End {
				check(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: t0, End: st.idleWindow.End}))
				t0 = st.idleWindow.End
				continue
			}
			id++
			dur := trace.Time(900 + (int64(id)*37)%200)
			if cpu == 1 && t0 >= 10_000 && !slowDone {
				dur, slowDone = 20_000, true
				st.slowTask = id
			}
			if t0+dur > spanEnd {
				dur = spanEnd - t0
			}
			addr := local
			if cpu == 0 && t0 >= 50_000 && !remoteDone {
				addr, remoteDone = remoteAddr, true
				st.remoteTask = id
			}
			check(w.WriteTask(trace.Task{ID: id, Type: 1, Created: t0, CreatorCPU: cpu}))
			check(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateTaskExec, Start: t0, End: t0 + dur, Task: id}))
			check(w.WriteComm(trace.CommEvent{Kind: trace.CommRead, CPU: cpu, SrcCPU: -1, Time: t0, Task: id, Addr: addr, Size: readBytes}))
			t0 += dur
		}
	}

	check(w.WriteCounterDesc(trace.CounterDesc{ID: 1, Name: trace.CounterCacheMisses, Monotonic: true}))
	for cpu := int32(0); cpu < 4; cpu++ {
		v := int64(0)
		for ts := trace.Time(0); ts <= spanEnd; ts += 1000 {
			if ts > 0 {
				v += 10
				if cpu == st.spikeCPU && ts > st.spikeWindow.Start && ts <= st.spikeWindow.End {
					v += 990
				}
			}
			check(w.WriteSample(trace.CounterSample{CPU: cpu, Counter: 1, Time: ts, Value: v}))
		}
	}
	check(w.Flush())

	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st.tr = tr
	return st
}

// testConfig aligns the analysis windows with the seeded events
// (50 windows of 2000 cycles).
func testConfig(workers int) anomaly.Config {
	return anomaly.Config{Windows: 50, Workers: workers}
}

// topOfKind returns the highest-ranked finding of a kind.
func topOfKind(found []anomaly.Anomaly, k anomaly.Kind) (anomaly.Anomaly, bool) {
	for _, a := range found {
		if a.Kind == k {
			return a, true
		}
	}
	return anomaly.Anomaly{}, false
}

// TestScanFindsSeededAnomalies: all four planted anomalies are found
// with the correct kind, location and window.
func TestScanFindsSeededAnomalies(t *testing.T) {
	st := buildSeededTrace(t)
	found := anomaly.Scan(st.tr, testConfig(0))
	if len(found) == 0 {
		t.Fatal("scan found nothing")
	}

	slow, ok := topOfKind(found, anomaly.KindDurationOutlier)
	if !ok {
		t.Fatal("no duration-outlier finding")
	}
	if slow.TaskID != st.slowTask || slow.CPU != 1 {
		t.Errorf("duration outlier = task %d on cpu %d, want task %d on cpu 1", slow.TaskID, slow.CPU, st.slowTask)
	}
	if slow.Window.Duration() != 20_000 {
		t.Errorf("duration outlier window = %+v, want a 20000-cycle execution", slow.Window)
	}

	rem, ok := topOfKind(found, anomaly.KindNUMARemote)
	if !ok {
		t.Fatal("no numa-remote finding")
	}
	if rem.TaskID != st.remoteTask || rem.CPU != 0 {
		t.Errorf("numa anomaly = task %d on cpu %d, want task %d on cpu 0", rem.TaskID, rem.CPU, st.remoteTask)
	}
	if !strings.Contains(rem.Explanation, "100%") {
		t.Errorf("numa explanation %q does not report the fully remote access", rem.Explanation)
	}

	imb, ok := topOfKind(found, anomaly.KindLoadImbalance)
	if !ok {
		t.Fatal("no load-imbalance finding")
	}
	if imb.CPU != st.idleCPU || imb.Window != st.idleWindow {
		t.Errorf("imbalance = cpu %d %+v, want cpu %d %+v", imb.CPU, imb.Window, st.idleCPU, st.idleWindow)
	}

	spk, ok := topOfKind(found, anomaly.KindCounterSpike)
	if !ok {
		t.Fatal("no counter-spike finding")
	}
	if spk.CPU != st.spikeCPU || spk.Window != st.spikeWindow {
		t.Errorf("spike = cpu %d %+v, want cpu %d %+v", spk.CPU, spk.Window, st.spikeCPU, st.spikeWindow)
	}
	if spk.Counter != trace.CounterCacheMisses {
		t.Errorf("spike counter = %q", spk.Counter)
	}

	// No false positives of the task kinds: exactly one finding each.
	for _, k := range []anomaly.Kind{anomaly.KindDurationOutlier, anomaly.KindNUMARemote, anomaly.KindLoadImbalance, anomaly.KindCounterSpike} {
		n := 0
		for _, a := range found {
			if a.Kind == k {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: %d findings, want exactly 1", k, n)
		}
	}
}

// TestScanDeterministic: identical results across repeated runs and
// worker counts (the golden run is workers=1).
func TestScanDeterministic(t *testing.T) {
	st := buildSeededTrace(t)
	golden := anomaly.Scan(st.tr, testConfig(1))
	for _, workers := range []int{1, 2, 3, 8, 32} {
		for run := 0; run < 2; run++ {
			got := anomaly.Scan(st.tr, testConfig(workers))
			if !reflect.DeepEqual(golden, got) {
				t.Fatalf("workers=%d run=%d: scan diverged from golden\ngolden: %v\ngot:    %v", workers, run, golden, got)
			}
		}
	}
}

// TestScanRankingAndWindow: findings are sorted by descending score,
// and a restricted scan window excludes out-of-window anomalies.
func TestScanRankingAndWindow(t *testing.T) {
	st := buildSeededTrace(t)
	found := anomaly.Scan(st.tr, testConfig(0))
	for i := 1; i < len(found); i++ {
		if found[i].Score > found[i-1].Score {
			t.Fatalf("ranking violated at %d: %.2f after %.2f", i, found[i].Score, found[i-1].Score)
		}
	}

	// A window covering only the idle gap keeps the imbalance finding
	// and drops the spike (which lies outside it).
	cfg := testConfig(0)
	cfg.Window = core.Interval{Start: 30_000, End: 65_000}
	cfg.Windows = 35 // 1000-cycle windows, still aligned
	sub := anomaly.Scan(st.tr, cfg)
	if _, ok := topOfKind(sub, anomaly.KindLoadImbalance); !ok {
		t.Error("windowed scan lost the in-window imbalance")
	}
	if a, ok := topOfKind(sub, anomaly.KindCounterSpike); ok {
		t.Errorf("windowed scan found out-of-window spike %v", a)
	}
	if a, ok := topOfKind(sub, anomaly.KindNUMARemote); !ok || a.TaskID != st.remoteTask {
		t.Errorf("windowed scan numa finding = %v, %v", a, ok)
	}
}

// TestAnnotations: top findings convert into a sorted annotation set
// carrying kind, score and location.
func TestAnnotations(t *testing.T) {
	st := buildSeededTrace(t)
	found := anomaly.Scan(st.tr, testConfig(0))
	set := anomaly.Annotations(found, "anomaly-scan", 3)
	if len(set.Annotations) != 3 {
		t.Fatalf("got %d annotations, want 3", len(set.Annotations))
	}
	for i := 1; i < len(set.Annotations); i++ {
		if set.Annotations[i].Time < set.Annotations[i-1].Time {
			t.Fatal("annotations not sorted by time")
		}
	}
	joined := ""
	for _, a := range set.Annotations {
		if a.Author != "anomaly-scan" {
			t.Errorf("author = %q", a.Author)
		}
		joined += a.Text + "\n"
	}
	if !strings.Contains(joined, "counter-spike") {
		t.Errorf("top-3 annotations missing the spike: %s", joined)
	}
}

// TestSpikeIgnoresUncoveredWindows: a counter sampled over only part
// of the span must not treat its uncovered windows as zero-rate
// baseline — a constant-rate late-enabled counter has no spikes.
func TestSpikeIgnoresUncoveredWindows(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for cpu := int32(0); cpu < 2; cpu++ {
		check(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: 0, End: spanEnd}))
	}
	// Constant-rate counter enabled at 80% of the span.
	check(w.WriteCounterDesc(trace.CounterDesc{ID: 1, Name: "late_counter", Monotonic: true}))
	for cpu := int32(0); cpu < 2; cpu++ {
		v := int64(0)
		for ts := trace.Time(80_000); ts <= spanEnd; ts += 1000 {
			check(w.WriteSample(trace.CounterSample{CPU: cpu, Counter: 1, Time: ts, Value: v}))
			v += 10
		}
	}
	check(w.Flush())
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := anomaly.ScanWith(tr, testConfig(0), anomaly.SpikeDetector{})
	if len(found) != 0 {
		t.Fatalf("late-enabled constant-rate counter flagged as spikes: %v", found)
	}
}

// TestSpikeInFirstCoveredWindow: the first window a counter's samples
// cover is rated and scored like any other. The counter is enabled at
// 80 % of the span, exactly on a window bound, on four CPUs at a
// constant rate; CPU 2's counter leaps within that first window, which
// is the one finding.
func TestSpikeInFirstCoveredWindow(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for cpu := int32(0); cpu < 4; cpu++ {
		check(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: 0, End: spanEnd}))
	}
	check(w.WriteCounterDesc(trace.CounterDesc{ID: 1, Name: "late_counter", Monotonic: true}))
	for cpu := int32(0); cpu < 4; cpu++ {
		v := int64(0)
		for ts := trace.Time(80_000); ts <= spanEnd; ts += 1000 {
			if cpu == 2 && ts == 81_000 {
				v += 5000
			}
			check(w.WriteSample(trace.CounterSample{CPU: cpu, Counter: 1, Time: ts, Value: v}))
			v += 10
		}
	}
	check(w.Flush())
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := anomaly.ScanWith(tr, testConfig(0), anomaly.SpikeDetector{})
	if len(found) != 1 || found[0].CPU != 2 || found[0].Window != (core.Interval{Start: 80_000, End: 82_000}) {
		t.Fatalf("findings %+v, want one on cpu 2 over [80000, 82000)", found)
	}
}

// TestImbalanceWindowAtHugeTimes is the window-bounds overflow
// regression: with timestamps scaled by 2^45 the window boundaries
// span·i/n overflowed int64 and the imbalance finding came back with a
// negative window. CPU 3 idles over [40000, 60000)·2^45 of a
// [0, 100000)·2^45 span the other three CPUs spend busy, so the
// finding is exactly that interval.
func TestImbalanceWindowAtHugeTimes(t *testing.T) {
	const unit = trace.Time(1) << 45
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	busy := func(cpu int32, start, end trace.Time) {
		check(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateTaskExec, Start: start * unit, End: end * unit}))
	}
	for cpu := int32(0); cpu < 3; cpu++ {
		busy(cpu, 0, 100_000)
	}
	busy(3, 0, 40_000)
	check(w.WriteState(trace.StateEvent{CPU: 3, State: trace.StateIdle, Start: 40_000 * unit, End: 60_000 * unit}))
	busy(3, 60_000, 100_000)
	check(w.Flush())
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := anomaly.ScanWith(tr, anomaly.Config{Windows: 50}, anomaly.ImbalanceDetector{})
	want := core.Interval{Start: 1_407_374_883_553_280_000, End: 2_111_062_325_329_920_000}
	if len(found) != 1 || found[0].CPU != 3 || found[0].Window != want {
		t.Fatalf("imbalance findings %v, want one on cpu 3 over %v", found, want)
	}
}

// TestParseKind round-trips every kind name.
func TestParseKind(t *testing.T) {
	for k := 0; k < anomaly.NumKinds; k++ {
		got, ok := anomaly.ParseKind(anomaly.Kind(k).String())
		if !ok || got != anomaly.Kind(k) {
			t.Errorf("ParseKind(%q) = %v, %v", anomaly.Kind(k), got, ok)
		}
	}
	if _, ok := anomaly.ParseKind("bogus"); ok {
		t.Error("ParseKind accepted bogus")
	}
}

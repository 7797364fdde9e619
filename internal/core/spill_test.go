package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/trace"
)

// spillBatch builds one ordered batch: count states, comm events and
// samples per CPU, starting at time base.
func spillBatch(nCPU, count int, base int64) *trace.RecordBatch {
	b := &trace.RecordBatch{}
	for cpu := int32(0); cpu < int32(nCPU); cpu++ {
		for i := 0; i < count; i++ {
			t0 := base + int64(100*i)
			b.States = append(b.States, trace.StateEvent{CPU: cpu, State: trace.StateTaskExec, Start: t0, End: t0 + 60, Task: trace.TaskID(i + 1)})
			b.Comms = append(b.Comms, trace.CommEvent{Kind: trace.CommRead, CPU: cpu, SrcCPU: -1, Time: t0, Task: trace.TaskID(i + 1), Addr: 0x1000, Size: 64})
			b.Samples = append(b.Samples, trace.CounterSample{CPU: cpu, Counter: 7, Time: t0, Value: base + int64(i)})
		}
	}
	b.CounterIDs = []trace.CounterID{7}
	return b
}

// publish appends a batch and publishes, failing the test on error.
func publish(t *testing.T, lv *Live, b *trace.RecordBatch) *Trace {
	t.Helper()
	if err := lv.Append(b); err != nil {
		t.Fatal(err)
	}
	snap, _ := lv.Publish()
	return snap
}

// publishSettled is publish followed by Close: the compaction of the
// segment this publish froze has finished and is installed in the
// builder, where the next publish sees it.
func publishSettled(t *testing.T, lv *Live, b *trace.RecordBatch) *Trace {
	t.Helper()
	snap := publish(t, lv, b)
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	return snap
}

// assertSameEvents compares a possibly-spilled snapshot against an
// all-in-RAM reference through the stitched accessors.
func assertSameEvents(t *testing.T, ctx string, got, want *Trace) {
	t.Helper()
	const lo, hi = int64(-1) << 62, int64(1) << 62
	if got.Span != want.Span {
		t.Fatalf("%s: span = %+v, want %+v", ctx, got.Span, want.Span)
	}
	for cpu := int32(0); int(cpu) < want.NumCPUs(); cpu++ {
		gs, ws := got.StatesIn(cpu, lo, hi), want.StatesIn(cpu, lo, hi)
		if len(gs) != len(ws) {
			t.Fatalf("%s: cpu %d has %d states, want %d", ctx, cpu, len(gs), len(ws))
		}
		for i := range gs {
			if gs[i] != ws[i] {
				t.Fatalf("%s: cpu %d state %d = %+v, want %+v", ctx, cpu, i, gs[i], ws[i])
			}
		}
		gc, wc := got.CommIn(cpu, lo, hi), want.CommIn(cpu, lo, hi)
		if len(gc) != len(wc) {
			t.Fatalf("%s: cpu %d has %d comm events, want %d", ctx, cpu, len(gc), len(wc))
		}
		for i := range gc {
			if gc[i] != wc[i] {
				t.Fatalf("%s: cpu %d comm %d differs", ctx, cpu, i)
			}
		}
	}
	if len(got.Counters) != len(want.Counters) {
		t.Fatalf("%s: %d counters, want %d", ctx, len(got.Counters), len(want.Counters))
	}
	for i := range got.Counters {
		for cpu := range want.Counters[i].PerCPU {
			gs := got.Counters[i].Samples(int32(cpu))
			ws := want.Counters[i].Samples(int32(cpu))
			if len(gs) != len(ws) {
				t.Fatalf("%s: counter %d cpu %d has %d samples, want %d", ctx, i, cpu, len(gs), len(ws))
			}
			for j := range gs {
				if gs[j] != ws[j] {
					t.Fatalf("%s: counter %d cpu %d sample %d differs", ctx, i, cpu, j)
				}
			}
		}
	}
}

// TestSpillSyncSegments: with a 1-byte tail budget every publish
// freezes the clean tails to a segment file — waited for by Close —
// and the stitched snapshot stays identical to an unspilled Live fed
// the same batches.
func TestSpillSyncSegments(t *testing.T) {
	dir := t.TempDir()
	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: dir, SpillBytes: 1})
	defer lv.Close()
	ref := NewLive()

	var snap *Trace
	for k := 0; k < 5; k++ {
		base := int64(10_000 * k)
		snap = publishSettled(t, lv, spillBatch(2, 20, base))
		publish(t, ref, spillBatch(2, 20, base))
	}
	// Spilling runs after each publish stores its snapshot, so the last
	// segment becomes visible on the next publish.
	snap, _ = lv.Publish()
	want, _ := ref.Snapshot()
	assertSameEvents(t, "spilled vs RAM", snap, want)

	st, ok := snap.SpillStats()
	if !ok || st.Segments == 0 {
		t.Fatalf("no segments spilled: %+v ok %v", st, ok)
	}
	if st.Err != "" {
		t.Fatalf("compaction error: %s", st.Err)
	}
	if st.Pending != 0 {
		t.Fatalf("%d segments pending after Close", st.Pending)
	}
	if st.SpilledBytes <= 0 {
		t.Fatalf("SpilledBytes = %d, want > 0", st.SpilledBytes)
	}
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.atms"))
	if err != nil || len(files) != st.Segments {
		t.Fatalf("%d segment files on disk (err %v), stats say %d", len(files), err, st.Segments)
	}
	ge, gsm := snap.EventCounts()
	we, wsm := want.EventCounts()
	if ge != we || gsm != wsm {
		t.Fatalf("EventCounts (%d, %d), want (%d, %d)", ge, gsm, we, wsm)
	}
}

// TestSpillBackgroundCompaction: the default asynchronous path installs
// mmap-backed columns without changing what readers see; Close waits
// for in-flight compactions.
func TestSpillBackgroundCompaction(t *testing.T) {
	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	ref := NewLive()
	var snap *Trace
	for k := 0; k < 5; k++ {
		base := int64(10_000 * k)
		snap = publish(t, lv, spillBatch(2, 20, base))
		publish(t, ref, spillBatch(2, 20, base))
	}
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	// The last published snapshot keeps working after Close (its
	// columns are heap slices or live mmaps, never freed under it).
	want, _ := ref.Snapshot()
	assertSameEvents(t, "pre-close snapshot", snap, want)

	// A post-close publish observes every install: nothing pending.
	final, _ := lv.Publish()
	assertSameEvents(t, "post-close snapshot", final, want)
	st, ok := final.SpillStats()
	if !ok || st.Segments == 0 {
		t.Fatalf("no segments spilled: %+v ok %v", st, ok)
	}
	if st.Pending != 0 {
		t.Fatalf("%d segments pending after Close", st.Pending)
	}
	if st.Err != "" {
		t.Fatalf("compaction error: %s", st.Err)
	}
}

// TestSpillUnspillOnDirtyProducer: an out-of-order event after a spill
// pulls the affected family's frozen columns back into RAM so the
// per-snapshot sort repair sees the full array; the result matches an
// unspilled Live fed the same disordered batches.
func TestSpillUnspillOnDirtyProducer(t *testing.T) {
	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	defer lv.Close()
	ref := NewLive()

	publishSettled(t, lv, spillBatch(2, 20, 0))
	publish(t, ref, spillBatch(2, 20, 0))
	// Second publish so the first segment is frozen and installed.
	publishSettled(t, lv, spillBatch(2, 20, 10_000))
	publish(t, ref, spillBatch(2, 20, 10_000))
	if st, ok := mustStats(t, lv); !ok || st.Segments == 0 {
		t.Fatalf("precondition: nothing spilled (%+v)", st)
	}

	// Now a batch whose events land before everything spilled.
	late := &trace.RecordBatch{}
	late.States = append(late.States, trace.StateEvent{CPU: 0, State: trace.StateIdle, Start: -500, End: -400})
	late.Comms = append(late.Comms, trace.CommEvent{Kind: trace.CommWrite, CPU: 0, SrcCPU: -1, Time: -450, Task: 1, Addr: 0x2000, Size: 8})
	late.Samples = append(late.Samples, trace.CounterSample{CPU: 0, Counter: 7, Time: -450, Value: 1})
	late.CounterIDs = []trace.CounterID{7}
	snap := publishSettled(t, lv, late)
	publish(t, ref, late)

	want, _ := ref.Snapshot()
	assertSameEvents(t, "after out-of-order append", snap, want)
	// CPU 0's families unspilled; CPU 1 may still hold segments. Either
	// way another in-order round keeps matching.
	snap = publishSettled(t, lv, spillBatch(2, 20, 20_000))
	publish(t, ref, spillBatch(2, 20, 20_000))
	want, _ = ref.Snapshot()
	assertSameEvents(t, "after recovery round", snap, want)
}

func mustStats(t *testing.T, lv *Live) (SpillStats, bool) {
	t.Helper()
	snap, _ := lv.Snapshot()
	return snap.SpillStats()
}

// TestSpillRetentionDropsOldest: a byte budget ages out the oldest
// segments — their events leave the trace, their files leave the disk,
// and queries over the remaining window keep matching a reference
// trace truncated to the same events.
func TestSpillRetentionDropsOldest(t *testing.T) {
	dir := t.TempDir()
	lv := NewLive()
	// Budget roughly two segments of the batch size used below.
	const perBatchBytes = 2 * 20 * (stateEventBytes + commEventBytes + counterSampleBytes)
	lv.SetRetention(RetentionPolicy{Dir: dir, SpillBytes: 1, MaxBytes: 2 * perBatchBytes})
	defer lv.Close()

	var snap *Trace
	const rounds = 8
	for k := 0; k < rounds; k++ {
		snap = publishSettled(t, lv, spillBatch(2, 20, int64(10_000*k)))
	}
	st, ok := snap.SpillStats()
	if !ok {
		t.Fatal("no spill state on snapshot")
	}
	if st.DroppedSegs == 0 || st.DroppedBytes == 0 {
		t.Fatalf("nothing dropped under a %d-byte budget: %+v", int64(2*perBatchBytes), st)
	}
	if st.SpilledBytes > 2*perBatchBytes {
		t.Fatalf("spilled bytes %d exceed the %d budget", st.SpilledBytes, int64(2*perBatchBytes))
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.atms"))
	if len(files) != st.Segments {
		t.Fatalf("%d segment files on disk, stats say %d (dropped files must be removed)", len(files), st.Segments)
	}

	// Events: the trace must have lost exactly the oldest ones. The
	// remaining states are still sorted and end at the newest batch.
	events, _ := snap.EventCounts()
	total := int64(rounds * 2 * 20 * 2) // states + comm per round
	if events >= total {
		t.Fatalf("EventCounts %d did not shrink below the %d ingested", events, total)
	}
	for cpu := int32(0); cpu < 2; cpu++ {
		states := snap.StatesIn(cpu, -1<<62, 1<<62)
		if len(states) == 0 {
			t.Fatalf("cpu %d lost all states", cpu)
		}
		for i := 1; i < len(states); i++ {
			if states[i].Start < states[i-1].Start {
				t.Fatalf("cpu %d states disordered after drop", cpu)
			}
		}
		if got := states[len(states)-1].Start; got != int64(10_000*(rounds-1)+100*19) {
			t.Fatalf("cpu %d newest state starts at %d", cpu, got)
		}
	}
	// Dominance and counter queries over the retained window still
	// answer (rebuilt indexes over the shifted logical coordinates).
	e := snap.DomIndex().CPU(snap, 0)
	if _, _, indexed := e.DominantState(snap.Span.Start, snap.Span.End); !indexed {
		t.Fatal("dominance index unavailable after retention drop")
	}
	if v, ok := snap.Counters[0].ValueAt(0, int64(10_000*(rounds-1))); !ok || v != int64(10_000*(rounds-1)) {
		t.Fatalf("ValueAt over retained window = (%d, %v)", v, ok)
	}
}

// TestSpillMaxAgeDrops: an age budget drops segments whose newest
// event trails the span end by more than MaxAge.
func TestSpillMaxAgeDrops(t *testing.T) {
	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1, MaxAge: 15_000})
	defer lv.Close()
	var snap *Trace
	for k := 0; k < 6; k++ {
		snap = publishSettled(t, lv, spillBatch(1, 20, int64(10_000*k)))
	}
	st, ok := snap.SpillStats()
	if !ok || st.DroppedSegs == 0 {
		t.Fatalf("age budget dropped nothing: %+v ok %v", st, ok)
	}
	states := snap.StatesIn(0, -1<<62, 1<<62)
	if len(states) == 0 {
		t.Fatal("all states dropped")
	}
	// Every surviving segment's newest event is within MaxAge of the
	// span end; the oldest retained state can trail further only by
	// being in a segment that still holds younger events.
	if oldest := states[0].Start; oldest < snap.Span.End-2*15_000 {
		t.Fatalf("oldest retained state %d is far outside the age budget (span end %d)", oldest, snap.Span.End)
	}
}

// TestSpillErrSticky: a compaction failure (unwritable directory)
// surfaces as a sticky error on SpillStats while the data stays in RAM
// and snapshots stay correct.
func TestSpillErrSticky(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing", "nested")
	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: dir, SpillBytes: 1})
	defer lv.Close()
	ref := NewLive()
	var snap *Trace
	for k := 0; k < 3; k++ {
		snap = publishSettled(t, lv, spillBatch(2, 20, int64(10_000*k)))
		publish(t, ref, spillBatch(2, 20, int64(10_000*k)))
	}
	st, ok := snap.SpillStats()
	if !ok || st.Err == "" {
		t.Fatalf("write failure not surfaced: %+v ok %v", st, ok)
	}
	if !strings.Contains(st.Err, "missing") && !strings.Contains(st.Err, "no such") {
		t.Logf("error text: %s", st.Err)
	}
	want, _ := ref.Snapshot()
	assertSameEvents(t, "after failed compaction", snap, want)
}

// TestSegmentFileRoundTrip: a segment is its frozen rows. The parts a
// freeze returns are written to one file, mapped back and installed in
// the columns they froze from, which then read the same events through
// the mapping; an empty column freezes no part.
func TestSegmentFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	lv := NewLive()
	b := &trace.RecordBatch{CounterIDs: []trace.CounterID{7}}
	for cpu := int32(0); cpu < 3; cpu++ {
		for i := 0; i < 10+int(cpu); i++ {
			t0 := int64(100 * i)
			b.States = append(b.States, trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: t0, End: t0 + 50})
			b.Comms = append(b.Comms, trace.CommEvent{Kind: trace.CommRead, CPU: cpu, SrcCPU: -1, Time: t0, Size: 8})
		}
	}
	b.Samples = []trace.CounterSample{{CPU: 1, Counter: 7, Time: 5, Value: 9}}
	heap := publish(t, lv, b)

	lv.mu.Lock()
	lv.segSeq = 42
	seg, parts := lv.freezeTailsLocked()
	lv.mu.Unlock()
	if want := 3*2 + 1; len(parts) != want {
		t.Fatalf("froze %d parts, want %d: states and comm of 3 CPUs and one sample column", len(parts), want)
	}
	m, path, err := writeSegment(dir, seg.id, parts)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "seg-000042.atms" {
		t.Fatalf("segment path %q", path)
	}
	lv.mu.Lock()
	lv.installLocked(seg, parts, m, path, nil)
	lv.mu.Unlock()

	mapped, _ := lv.Publish()
	if st, ok := mapped.SpillStats(); !ok || st.Segments != 1 || st.Pending != 0 || st.Err != "" {
		t.Fatalf("after install: %+v", st)
	}
	assertSameEvents(t, "mapped segment", mapped, heap)
	for r := range mapped.CPUs {
		got, was := &mapped.CPUs[r], &heap.CPUs[r]
		if p := got.States.parts; len(p) != 1 || p[0].seg.m != m || &p[0].rows[0] == &was.States.Rows[0] {
			t.Fatalf("cpu %d: the state column is not one mapped part", r)
		}
		if p := got.Comm.parts; len(p) != 1 || p[0].seg.m != m || &p[0].rows[0] == &was.Comm.Rows[0] {
			t.Fatalf("cpu %d: the comm column is not one mapped part", r)
		}
		if len(got.Discrete.parts) != 0 {
			t.Fatalf("cpu %d: an empty discrete column froze %d parts", r, len(got.Discrete.parts))
		}
	}
	if p := mapped.Counters[0].PerCPU[1].parts; len(p) != 1 || p[0].seg.m != m {
		t.Fatal("the sample column's part is not its mapped view")
	}
}

// TestSpillSweepStaleFiles: enabling retention on a reused spill
// directory removes debris of a previous process — segment files this
// trace cannot adopt and tmp files of a compaction killed mid-write —
// while leaving unrelated files alone, and fresh segments write
// normally afterwards.
func TestSpillSweepStaleFiles(t *testing.T) {
	dir := t.TempDir()
	stale := []string{"seg-000000.atms", "seg-000123.atms.tmp4242"}
	for _, n := range append([]string{"keep.txt"}, stale...) {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("x"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: dir, SpillBytes: 1})
	defer lv.Close()
	for _, n := range stale {
		if _, err := os.Stat(filepath.Join(dir, n)); !os.IsNotExist(err) {
			t.Fatalf("stale %s survived enabling retention (stat err %v)", n, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "keep.txt")); err != nil {
		t.Fatalf("unrelated file swept: %v", err)
	}
	// Re-installing the policy must not sweep this trace's own segments.
	publishSettled(t, lv, spillBatch(2, 20, 0))
	lv.Publish()
	lv.SetRetention(RetentionPolicy{Dir: dir, SpillBytes: 1})
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.atms"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no segment files after sweep + spill (err %v)", err)
	}
}

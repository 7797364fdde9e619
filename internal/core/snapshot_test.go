package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/mmtree"
	"github.com/openstream/aftermath/internal/trace"
)

// TestSnapshotRoundTrip: a loaded trace saved as a columnar snapshot
// and mapped back answers every query identically — tables, raw
// columns, indexed dominance and counter queries.
func TestSnapshotRoundTrip(t *testing.T) {
	data := liveTestBytes(t)
	want, err := FromReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.atms")
	if err := SaveStore(want, path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()

	compareTrace(t, "mapped snapshot", got, want)
	if !reflect.DeepEqual(got.Topology, want.Topology) {
		t.Fatal("topology differs")
	}
	// Table lookups (the lazy task-ID map included).
	for _, task := range want.Tasks {
		g, ok := got.TaskByID(task.ID)
		if !ok || *g != task {
			t.Fatalf("TaskByID(%d) = (%+v, %v)", task.ID, g, ok)
		}
	}
	for _, tt := range want.Types {
		if g, ok := got.TypeByID(tt.ID); !ok || g != tt {
			t.Fatalf("TypeByID(%d) differs", tt.ID)
		}
	}
	if _, ok := got.CounterByName("cycles"); !ok {
		t.Fatal("CounterByName lost")
	}

	// Indexed queries must match scans — through the seeded pyramids.
	span := want.Span
	step := span.Duration() / 64
	if step == 0 {
		step = 1
	}
	for cpu := int32(0); int(cpu) < want.NumCPUs(); cpu++ {
		ge := got.DomIndex().CPU(got, cpu)
		we := want.DomIndex().CPU(want, cpu)
		sameDomSets(t, fmt.Sprintf("mapped cpu %d", cpu), ge.domSets, we.domSets)
		for t0 := span.Start; t0 < span.End; t0 += step {
			gd, gok, gidx := ge.DominantState(t0, t0+step)
			wd, wok, widx := we.DominantState(t0, t0+step)
			if gd != wd || gok != wok || gidx != widx {
				t.Fatalf("cpu %d DominantState(%d) = (%+v,%v,%v), want (%+v,%v,%v)", cpu, t0, gd, gok, gidx, wd, wok, widx)
			}
			gc := ge.StateCover(trace.StateTaskExec, t0, t0+step)
			wc := we.StateCover(trace.StateTaskExec, t0, t0+step)
			if gc != wc {
				t.Fatalf("cpu %d StateCover(%d) = %d, want %d", cpu, t0, gc, wc)
			}
		}
	}
	for i, c := range want.Counters {
		gc := got.Counters[i]
		for cpu := range c.PerCPU {
			gt := got.CounterIndex().Tree(gc, int32(cpu))
			wt := want.CounterIndex().Tree(c, int32(cpu))
			if gt.Len() != wt.Len() {
				t.Fatalf("counter %d cpu %d tree Len %d, want %d", i, cpu, gt.Len(), wt.Len())
			}
			for t0 := span.Start; t0 < span.End; t0 += step {
				gmn, gmx, gok := gt.MinMax(t0, t0+step)
				wmn, wmx, wok := wt.MinMax(t0, t0+step)
				if gmn != wmn || gmx != wmx || gok != wok {
					t.Fatalf("counter %d cpu %d MinMax(%d) differs", i, cpu, t0)
				}
			}
			grt := got.CounterIndex().RateTree(gc, int32(cpu))
			wrt := want.CounterIndex().RateTree(c, int32(cpu))
			if grt.Len() != wrt.Len() {
				t.Fatalf("counter %d cpu %d rate tree Len %d, want %d", i, cpu, grt.Len(), wrt.Len())
			}
			// The mapped trees are the saved ones, node for node.
			for _, p := range [][2]*mmtree.Tree{{gt, wt}, {grt, wrt}} {
				gr, gp := p[0].Columns()
				wr, wp := p[1].Columns()
				if !slices.Equal(gr, wr) || gp.Arity() != wp.Arity() || len(gp.Levels()) != len(wp.Levels()) {
					t.Fatalf("counter %d cpu %d mapped tree columns differ", i, cpu)
				}
				for l := range wp.Levels() {
					if !slices.Equal(gp.Levels()[l], wp.Levels()[l]) {
						t.Fatalf("counter %d cpu %d mapped tree level %d differs", i, cpu, l)
					}
				}
			}
		}
	}
}

// TestSnapshotOfSpilledLive: saving a spilled live snapshot stitches
// the segment columns into one file whose mapped view matches an
// unspilled reference.
func TestSnapshotOfSpilledLive(t *testing.T) {
	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	defer lv.Close()
	ref := NewLive()
	for k := 0; k < 4; k++ {
		publishSettled(t, lv, spillBatch(2, 20, int64(10_000*k)))
		publish(t, ref, spillBatch(2, 20, int64(10_000*k)))
	}
	snap, _ := lv.Publish()
	if st, ok := snap.SpillStats(); !ok || st.Segments == 0 {
		t.Fatalf("precondition: nothing spilled (%+v)", st)
	}
	path := filepath.Join(t.TempDir(), "compact.atms")
	if err := SaveStore(snap, path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	want, _ := ref.Snapshot()
	assertSameEvents(t, "compacted spilled snapshot", got, want)
	if _, ok := got.SpillStats(); ok {
		t.Fatal("compacted snapshot still reports spill state")
	}
}

// TestSaveStoreKeepsWholeColumns: SaveStore writes every column whole,
// whatever its timestamps. A zero-length state at MinInt64 or at
// MaxInt64, a discrete event, an access and a counter sample at
// MaxInt64 all lie outside the half-open window [MinInt64, MaxInt64)
// — the window a column read back through StatesIn and its siblings
// would miss. Both a batch-loaded trace and a spilled live snapshot,
// whose columns are parts and rows, must open from their snapshot file
// with every column as it was.
func TestSaveStoreKeepsWholeColumns(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	topo := trace.Topology{Name: "one", NumNodes: 1, NodeOfCPU: []int32{0}, Distance: []int32{10}}
	states := []trace.StateEvent{
		{State: trace.StateIdle, Start: lo, End: lo},
		{State: trace.StateIdle, Start: 0, End: 10},
		{State: trace.StateIdle, Start: hi, End: hi},
	}
	discrete := []trace.DiscreteEvent{{Kind: trace.EventTaskCreated, Time: 5}, {Kind: trace.EventTaskCreated, Time: hi}}
	comm := []trace.CommEvent{{Kind: trace.CommRead, SrcCPU: -1, Time: 5, Size: 8}, {Kind: trace.CommWrite, SrcCPU: -1, Time: hi, Size: 8}}
	samples := []trace.CounterSample{{Counter: 1, Time: 0, Value: 1}, {Counter: 1, Time: hi, Value: 2}}

	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(topo))
	for i := range states {
		must(w.WriteState(states[i]))
	}
	for i := range discrete {
		must(w.WriteDiscrete(discrete[i]))
	}
	for i := range comm {
		must(w.WriteComm(comm[i]))
	}
	for i := range samples {
		must(w.WriteSample(samples[i]))
	}
	must(w.Flush())
	batch, err := FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Each half of the records is published, then frozen into a segment
	// of its own: the live snapshot's columns are two parts each.
	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	defer lv.Close()
	publishSettled(t, lv, &trace.RecordBatch{Topologies: []trace.Topology{topo}, States: states[:2],
		Discrete: discrete[:1], Comms: comm[:1], Samples: samples[:1], CounterIDs: []trace.CounterID{1}})
	publishSettled(t, lv, &trace.RecordBatch{States: states[2:], Discrete: discrete[1:], Comms: comm[1:], Samples: samples[1:]})
	spilled, _ := lv.Publish()
	if c := &spilled.CPUs[0]; len(c.States.parts) != 2 || len(c.Discrete.parts) != 2 || len(c.Comm.parts) != 2 ||
		len(spilled.Counters[0].PerCPU[0].parts) != 2 {
		t.Fatal("precondition: the live snapshot's columns are not two parts each")
	}

	for _, arm := range []struct {
		name string
		tr   *Trace
	}{{"batch", batch}, {"spilled live", spilled}} {
		path := filepath.Join(t.TempDir(), "whole.atms")
		if err := SaveStore(arm.tr, path); err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		got, err := OpenStore(path)
		if err != nil {
			t.Fatalf("%s: open: %v", arm.name, err)
		}
		defer got.Close()
		if len(got.CPUs) != 1 || len(got.Counters) != 1 || len(got.Counters[0].PerCPU) != 1 {
			t.Fatalf("%s: reopened with %d CPUs and %d counters", arm.name, len(got.CPUs), len(got.Counters))
		}
		c := &got.CPUs[0]
		if g := c.States.all(); !slices.Equal(g, states) {
			t.Errorf("%s: states %+v, want %+v", arm.name, g, states)
		}
		if g := c.Discrete.all(); !slices.Equal(g, discrete) {
			t.Errorf("%s: discrete events %+v, want %+v", arm.name, g, discrete)
		}
		if g := c.Comm.all(); !slices.Equal(g, commRows(comm)) {
			t.Errorf("%s: accesses %+v, want %+v", arm.name, g, comm)
		}
		if g := got.Counters[0].Samples(0); !slices.Equal(g, sampleRows(samples)) {
			t.Errorf("%s: samples %+v, want %+v", arm.name, g, samples)
		}
	}
}

// TestSnapshotRejectsWrongFormat: version/layout validation and
// non-store files fail cleanly.
func TestSnapshotRejectsWrongFormat(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenStore(filepath.Join(dir, "nope.atms")); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	// A trace stream is not a store file.
	raw := filepath.Join(dir, "raw.trace")
	if err := os.WriteFile(raw, liveTestBytes(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(raw); err == nil {
		t.Fatal("open of a raw trace stream succeeded")
	}
	// A snapshot of a previous format (pyramids holding the nodes of
	// partial blocks) says how to get a current one.
	cur, old := filepath.Join(dir, "cur.atms"), filepath.Join(dir, "old.atms")
	if err := SaveStore(loadLive(t), cur); err != nil {
		t.Fatal(err)
	}
	tamperMeta(t, cur, old, func(v []uint64, _ []byte) []uint64 { v[0] = 4; return v })
	if _, err := OpenStore(old); err == nil || !strings.Contains(err.Error(), "version 4") ||
		!strings.Contains(err.Error(), "re-save the snapshot from its source trace") {
		t.Fatalf("format-4 snapshot: %v", err)
	}
	// Version 6 stored every communication event with its CPU and every
	// sample with its counter and CPU: its columns would misparse as
	// version 7's rows.
	tamperMeta(t, cur, old, func(v []uint64, _ []byte) []uint64 { v[0] = 6; return v })
	if _, err := OpenStore(old); err == nil || !strings.Contains(err.Error(), "format version 6, this build reads version 7") ||
		!strings.Contains(err.Error(), "re-save the snapshot from its source trace") {
		t.Fatalf("format-6 snapshot: %v", err)
	}
}

// TestStoreFileSize pins the bytes of a fixed trace's snapshot file:
// the store writes every column as its rows, so the file's size follows
// the row types and nothing else. Of its 200 communication events and
// 200 samples, each is 8 bytes smaller than the trace record it was
// loaded from — the CPU, and the counter and CPU, its column implies.
func TestStoreFileSize(t *testing.T) {
	tr := loadLive(t)
	if ev, samples := tr.EventCounts(); ev != 600 || samples != 200 {
		t.Fatalf("precondition: %d events and %d samples", ev, samples)
	}
	path := filepath.Join(t.TempDir(), "fixed.atms")
	if err := SaveStore(tr, path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = 40966
	if fi.Size() != want {
		t.Errorf("the snapshot is %d bytes, want %d", fi.Size(), want)
	}
}

// tamperMeta rewrites the snapshot at src to dst with its meta blob
// edited as a list of raw uvarints. The blob is varints plus ASCII
// strings, so the list re-encodes byte for byte (checked), and an edit
// cannot accidentally shift a field. The edit is also handed the file's
// bytes before the blob, the columns the blob's refs point into, to
// overwrite in place.
func tamperMeta(t *testing.T, src, dst string, edit func(vals []uint64, file []byte) []uint64) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	off := binary.LittleEndian.Uint64(data[24:32])
	n := binary.LittleEndian.Uint64(data[32:40])
	meta := data[off : off+n]
	var vals []uint64
	for rest := meta; len(rest) > 0; {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			t.Fatal("meta blob is not a uvarint stream")
		}
		vals, rest = append(vals, v), rest[k:]
	}
	encode := func(vals []uint64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	if !bytes.Equal(encode(vals), meta) {
		t.Fatal("meta blob does not re-encode canonically")
	}
	out := append([]byte(nil), data[:off]...)
	newMeta := encode(edit(vals, out))
	out = append(out, newMeta...)
	binary.LittleEndian.PutUint64(out[32:40], uint64(len(newMeta)))
	if err := os.WriteFile(dst, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStoreCorruptPyramids: OpenStore does not trust the pyramid
// shapes the meta blob claims, nor the refs a per-state window is mapped
// through. A hostile level count, a level, refs or prefix column of the
// wrong length, a pyramid over another leaf count than the state events
// (all-states) or the refs (per-state), refs pointing outside the state
// array, and a snapshot of an older format version are all descriptive
// errors at open — never an allocation sized by the attacker or an index
// panic in a later render.
func TestOpenStoreCorruptPyramids(t *testing.T) {
	// Pyramids store complete blocks only: 4 200 states a CPU give its
	// all-states set two levels at arity 64, 2 100 samples its counter
	// trees one at arity 100.
	tr, err := FromReader(bytes.NewReader(liveTestStream(t, 8400)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.atms")
	if err := SaveStore(tr, good); err != nil {
		t.Fatal(err)
	}

	// zz is the zigzag encoding store refs use for non-negative values.
	zz := func(v int) uint64 { return uint64(v) << 1 }
	// The first dominance entry is CPU 0's: the all-states set — present,
	// arity, level count, level refs (offset, bytes) — then its first
	// per-state subset: present, refs and prefix refs, arity, level
	// count, level refs.
	dc := tr.DomIndex().CPU(tr, 0)
	nSet := dc.all.Len()
	_, _, setPyr := dc.all.Columns()
	nSetLevels := len(setPyr.Levels())
	nSub := dc.byState[0].Len()
	_, _, subPyr := dc.byState[0].Columns()
	findSet := func(vals []uint64) int {
		for i := 0; i+3+2*nSetLevels+6 < len(vals); i++ {
			sub := i + 3 + 2*nSetLevels
			if vals[i] == 1 && vals[i+1] == uint64(setPyr.Arity()) && vals[i+2] == uint64(nSetLevels) &&
				vals[i+4] == zz(16*len(setPyr.Levels()[0])) &&
				vals[sub] == 1 && vals[sub+2] == zz(4*nSub) && vals[sub+4] == zz(8*(nSub+1)) &&
				vals[sub+5] == uint64(subPyr.Arity()) && vals[sub+6] == uint64(len(subPyr.Levels())) {
				return i
			}
		}
		t.Fatal("CPU 0's dominance sets not found in meta")
		return 0
	}
	findSub := func(vals []uint64) int { return findSet(vals) + 3 + 2*nSetLevels }
	// The first counter's trees on CPU 0: present, the value tree's
	// arity, level count and level refs, then the rate tree's rates ref,
	// arity and level count.
	tree := tr.CounterIndex().Tree(tr.Counters[0], 0)
	nTree := tree.Len()
	_, treePyr := tree.Columns()
	nTreeLevels := len(treePyr.Levels())
	findTree := func(vals []uint64) int {
		for i := 0; i+3+2*nTreeLevels+3 < len(vals); i++ {
			rates := i + 3 + 2*nTreeLevels
			if vals[i] == 1 && vals[i+1] == uint64(tree.Arity()) && vals[i+2] == uint64(nTreeLevels) &&
				vals[i+4] == zz(16*len(treePyr.Levels()[0])) &&
				vals[rates+1] == zz(8*(nTree-1)) && vals[rates+2] == uint64(tree.Arity()) {
				return i
			}
		}
		t.Fatal("counter trees not found in meta")
		return 0
	}
	findRates := func(vals []uint64) int { return findTree(vals) + 3 + 2*nTreeLevels }
	if nSetLevels < 2 || nSub < 2 || len(subPyr.Levels()) < 1 || nTree < 2 || nTreeLevels < 1 {
		t.Fatalf("precondition: %d set levels, %d members of state 0 under %d levels, %d tree samples under %d levels",
			nSetLevels, nSub, len(subPyr.Levels()), nTree, nTreeLevels)
	}
	// patchRef returns an edit overwriting one int32 of the subset's refs
	// column, in the file's data: the meta blob stays as it is.
	patchRef := func(member int, ref int32) func(v []uint64, file []byte) []uint64 {
		return func(v []uint64, file []byte) []uint64 {
			off := int(v[findSub(v)+1]>>1) + 4*member
			binary.LittleEndian.PutUint32(file[off:], uint32(ref))
			return v
		}
	}
	meta := func(edit func(v []uint64) []uint64) func([]uint64, []byte) []uint64 {
		return func(v []uint64, _ []byte) []uint64 { return edit(v) }
	}

	cases := []struct {
		name, want string
		edit       func(vals []uint64, file []byte) []uint64
	}{
		{"format version 1", "version 1", meta(func(v []uint64) []uint64 { v[0] = 1; return v })},
		{"attacker-sized level count", "levels", meta(func(v []uint64) []uint64 { v[findSet(v)+2] = 1 << 40; return v })},
		{"missing level", "levels", meta(func(v []uint64) []uint64 {
			i := findSet(v)
			v[i+2]--
			return append(v[:i+3+2*(nSetLevels-1)], v[i+3+2*nSetLevels:]...)
		})},
		{"short level", "level 0", meta(func(v []uint64) []uint64 { v[findSet(v)+4] -= zz(16); return v })},
		{"all-states pyramid over fewer leaves than state events", fmt.Sprintf("for %d leaves", nSet), meta(func(v []uint64) []uint64 {
			i := findSet(v)
			v[i+2], v[i+4] = 1, zz(16) // one level holding one node
			return append(v[:i+5], v[i+3+2*nSetLevels:]...)
		})},
		{"short prefix sums", "prefix sums", meta(func(v []uint64) []uint64 { v[findSub(v)+4] -= zz(8); return v })},
		{"per-state pyramid over more leaves than refs", "for 1 leaves", meta(func(v []uint64) []uint64 {
			i := findSub(v)
			v[i+2], v[i+4] = zz(4), zz(8*2)
			return v
		})},
		{"first ref negative", "outside", patchRef(0, -1)},
		{"last ref past the state events", "outside", patchRef(nSub-1, int32(nSet))},
		// The topology sits behind the version, the layout hash, the span
		// and its name: node count, then the CPU and distance columns.
		{"more nodes than the distance matrix covers", "distance matrix", meta(func(v []uint64) []uint64 { v[5+v[4]] = 4; return v })},
		{"CPUs on nodes past the node count", "NUMA node 1", meta(func(v []uint64) []uint64 { v[5+v[4]] = 1; return v })},
		{"tree level count", "levels", meta(func(v []uint64) []uint64 { v[findTree(v)+2] = 1 << 40; return v })},
		{"rates shorter than the sample pairs", "rates", meta(func(v []uint64) []uint64 { v[findRates(v)+1] -= zz(8); return v })},
		{"rate tree level count", "levels", meta(func(v []uint64) []uint64 { v[findRates(v)+3] = 1 << 40; return v })},
	}
	for _, c := range cases {
		bad := filepath.Join(dir, "bad.atms")
		tamperMeta(t, good, bad, c.edit)
		got, err := OpenStore(bad)
		if err == nil {
			got.Close()
			t.Errorf("%s: OpenStore accepted the snapshot", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}

	// The untampered rewrite still opens: the cases above fail for
	// their edit, not for the rewriting.
	same := filepath.Join(dir, "same.atms")
	tamperMeta(t, good, same, func(v []uint64, _ []byte) []uint64 { return v })
	got, err := OpenStore(same)
	if err != nil {
		t.Fatalf("identity rewrite: %v", err)
	}
	got.Close()
}

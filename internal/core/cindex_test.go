package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/openstream/aftermath/internal/mmtree"
	"github.com/openstream/aftermath/internal/trace"
)

// refRate is the rate of samples a → b in exact arithmetic: the
// math/big quotient of Δv · 1000 · RateScale by Δt, truncated toward
// zero and clamped to int64, 0 unless b is later than a.
func refRate(a, b Sample) int64 {
	if b.Time <= a.Time {
		return 0
	}
	num := new(big.Int).Sub(big.NewInt(b.Value), big.NewInt(a.Value))
	num.Mul(num, big.NewInt(1000*RateScale))
	q := num.Quo(num, new(big.Int).Sub(big.NewInt(b.Time), big.NewInt(a.Time)))
	switch {
	case q.IsInt64():
		return q.Int64()
	case q.Sign() > 0:
		return math.MaxInt64
	default:
		return math.MinInt64
	}
}

// treeEntry is one entry a tree must hold: a sample, or the rate
// between a sample and the next, at the first one's time.
type treeEntry struct{ time, value int64 }

// wantEntries returns what the value and the rate tree over a column
// must hold: its samples, and refRate between each consecutive pair.
func wantEntries(s []Sample) (values, rates []treeEntry) {
	for i, x := range s {
		values = append(values, treeEntry{x.Time, x.Value})
		if i+1 < len(s) {
			rates = append(rates, treeEntry{x.Time, refRate(x, s[i+1])})
		}
	}
	return values, rates
}

// scanRange is the brute-force answer over entries [lo, hi), clamped,
// of the entries whose time is in [t0, t1).
func scanRange(es []treeEntry, lo, hi int, t0, t1 int64) (mn, mx int64, ok bool) {
	for i := max(lo, 0); i < min(hi, len(es)); i++ {
		if e := es[i]; e.time >= t0 && e.time < t1 {
			if !ok || e.value < mn {
				mn = e.value
			}
			if !ok || e.value > mx {
				mx = e.value
			}
			ok = true
		}
	}
	return mn, mx, ok
}

// checkTree holds one tree to the entries it must hold: Len, every
// Time and Value, MinMaxIndex on clamped, empty, inverted and random
// index ranges, and MinMax on the whole axis, empty and inverted
// windows, windows around sampled entries' times — equal timestamps
// included — and random ones.
func checkTree(t testing.TB, ctx string, rng *rand.Rand, tree *mmtree.Tree, es []treeEntry, windows int) {
	t.Helper()
	if tree.Len() != len(es) {
		t.Fatalf("%s: Len = %d, want %d", ctx, tree.Len(), len(es))
	}
	for i, e := range es {
		if tree.Time(i) != e.time || tree.Value(i) != e.value {
			t.Fatalf("%s: entry %d = (%d, %d), want (%d, %d)", ctx, i, tree.Time(i), tree.Value(i), e.time, e.value)
		}
	}
	n := len(es)
	ranges := [][2]int{{0, n}, {-5, n + 5}, {n, 0}, {1, 1}, {n - 1, n}}
	for i := 0; i < windows; i++ {
		lo := rng.Intn(n + 1)
		ranges = append(ranges, [2]int{lo, lo + rng.Intn(n-lo+1)})
	}
	for _, r := range ranges {
		gmn, gmx, gok := tree.MinMaxIndex(r[0], r[1])
		wmn, wmx, wok := scanRange(es, r[0], r[1], math.MinInt64, math.MaxInt64)
		if gmn != wmn || gmx != wmx || gok != wok {
			t.Fatalf("%s: MinMaxIndex(%d, %d) = (%d, %d, %v), the scan wants (%d, %d, %v)", ctx, r[0], r[1], gmn, gmx, gok, wmn, wmx, wok)
		}
	}
	wins := [][2]int64{{math.MinInt64, math.MaxInt64}, {math.MaxInt64, math.MinInt64}, {0, 0}, {7, 3}}
	for i := 0; n > 0 && i < windows; i++ {
		a, b := es[rng.Intn(n)].time, es[rng.Intn(n)].time
		wins = append(wins, [2]int64{a, b}, [2]int64{a, b + 1}, [2]int64{a - 1, a}, [2]int64{a, a + 1}, [2]int64{a + 1, b})
	}
	for _, w := range wins {
		gmn, gmx, gok := tree.MinMax(w[0], w[1])
		wmn, wmx, wok := scanRange(es, 0, n, w[0], w[1])
		if gmn != wmn || gmx != wmx || gok != wok {
			t.Fatalf("%s: MinMax(%d, %d) = (%d, %d, %v), the scan wants (%d, %d, %v)", ctx, w[0], w[1], gmn, gmx, gok, wmn, wmx, wok)
		}
	}
	// SeekTime from any cursor an overlay row may hold, to times at,
	// just before and just after entries.
	for i := 0; n > 0 && i < windows; i++ {
		from, x := rng.Intn(n+1)-rng.Intn(2), es[rng.Intn(n)].time+int64(rng.Intn(3)-1)
		want := max(from, 0)
		for want < n && es[want].time < x {
			want++
		}
		if got := tree.SeekTime(x, from); got != want {
			t.Fatalf("%s: SeekTime(%d, %d) = %d, the scan wants %d", ctx, x, from, got, want)
		}
	}
}

// checkCounterTrees holds both trees of every (counter, CPU) pair of tr
// — one CPU past the last included — to the brute-force scan of what
// SamplesIn returns for the pair.
func checkCounterTrees(t testing.TB, ctx string, rng *rand.Rand, tr *Trace, windows int) {
	t.Helper()
	ci := tr.CounterIndex()
	for _, c := range tr.Counters {
		for cpu := int32(0); int(cpu) <= len(c.PerCPU); cpu++ {
			values, rates := wantEntries(c.SamplesIn(cpu, math.MinInt64, math.MaxInt64))
			pair := fmt.Sprintf("%s, counter %d cpu %d", ctx, c.Desc.ID, cpu)
			vt := ci.Tree(c, cpu)
			checkTree(t, pair+" values", rng, vt, values, windows)
			checkTree(t, pair+" rates", rng, ci.RateTree(c, cpu), rates, windows)
			// The value tree's window is the window SamplesIn returns.
			for i := 0; len(values) > 0 && i < windows; i++ {
				t0 := values[rng.Intn(len(values))].time - int64(rng.Intn(3))
				t1 := t0 + int64(rng.Intn(2000))
				in, _ := wantEntries(c.SamplesIn(cpu, t0, t1))
				gmn, gmx, gok := vt.MinMax(t0, t1)
				wmn, wmx, wok := scanRange(in, 0, len(in), t0, t1)
				if gmn != wmn || gmx != wmx || gok != wok {
					t.Fatalf("%s values: MinMax(%d, %d) = (%d, %d, %v), SamplesIn's window gives (%d, %d, %v)", pair, t0, t1, gmn, gmx, gok, wmn, wmx, wok)
				}
			}
		}
	}
}

// sameTree reports whether two trees are one tree: the same entries
// count, arity, rates and pyramid, node for node.
func sameTree(a, b *mmtree.Tree) bool {
	ar, ap := a.Columns()
	br, bp := b.Columns()
	return a.Len() == b.Len() && a.Arity() == b.Arity() && slices.Equal(ar, br) && reflect.DeepEqual(ap.Levels(), bp.Levels())
}

// checkOneBuild holds the trees tr's index holds — on a live snapshot
// the chains extended epoch by epoch — to a single build over the same
// view of each column.
func checkOneBuild(t testing.TB, ctx string, tr *Trace) {
	t.Helper()
	ci := tr.CounterIndex()
	for _, c := range tr.Counters {
		for cpu := int32(0); int(cpu) < len(c.PerCPU); cpu++ {
			col := c.sampleLeaves(cpu)
			if !sameTree(ci.Tree(c, cpu), mmtree.Build(col, 0)) || !sameTree(ci.RateTree(c, cpu), appendRates(mmtree.Rates(0), col)) {
				t.Fatalf("%s: counter %d cpu %d trees differ from one build over the column", ctx, c.Desc.ID, cpu)
			}
		}
	}
}

// counterCase is a machine's counter columns: cols[k][cpu] is counter
// ids[k]'s time-ordered samples on cpu, nil where it was not sampled.
type counterCase struct {
	ids  []trace.CounterID
	cols [][][]trace.CounterSample
}

// genCounterCase draws a case of the given counters over cpus CPUs.
// It holds what a simulated run never does: counters sampled on some
// CPUs only, pairs of one sample, columns just around the arity,
// runs of equal timestamps, and value jumps that overflow the int64
// rate arithmetic, up to the int64 ends.
func genCounterCase(rng *rand.Rand, counters, cpus int) *counterCase {
	c := &counterCase{}
	lens := []int{1, 2, 3, 99, 100, 101, 201, 350}
	jumps := []int64{0, 1, 7, 1e3, 2e11, -2e11, 1e12, math.MaxInt64 / 2, math.MinInt64 / 2}
	for k := 0; k < counters; k++ {
		c.ids = append(c.ids, trace.CounterID(11+3*k))
		cols := make([][]trace.CounterSample, cpus)
		for cpu := range cols {
			if rng.Intn(4) == 0 {
				continue // not sampled here
			}
			n := lens[rng.Intn(len(lens))]
			if rng.Intn(3) == 0 {
				n = 1 + rng.Intn(600)
			}
			at, v := int64(rng.Intn(50)), int64(rng.Intn(1000))
			for i := 0; i < n; i++ {
				at += []int64{0, 0, 1, 2, 7, 1000}[rng.Intn(6)]
				switch r := rng.Intn(40); {
				case r == 0:
					v = []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
				case r < 4:
					v += jumps[rng.Intn(len(jumps))]
				default:
					v += int64(rng.Intn(20))
				}
				cols[cpu] = append(cols[cpu], trace.CounterSample{CPU: int32(cpu), Counter: c.ids[k], Time: at, Value: v})
			}
		}
		c.cols = append(c.cols, cols)
	}
	return c
}

// stream writes the case as a native trace: descriptions, then columns.
func (c *counterCase) stream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	var err error
	for _, id := range c.ids {
		if err == nil {
			err = w.WriteCounterDesc(trace.CounterDesc{ID: id, Name: fmt.Sprintf("c%d", id), Monotonic: true})
		}
	}
	for _, cols := range c.cols {
		for _, col := range cols {
			for _, s := range col {
				if err == nil {
					err = w.WriteSample(s)
				}
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// batch returns part p of parts of the case for a live trace: that share
// of every column, the counter table with part 0.
func (c *counterCase) batch(p, parts int) *trace.RecordBatch {
	b := &trace.RecordBatch{}
	if p == 0 {
		b.CounterIDs = c.ids
		for _, id := range c.ids {
			b.Descs = append(b.Descs, trace.CounterDesc{ID: id, Name: fmt.Sprintf("c%d", id), Monotonic: true})
		}
	}
	for _, cols := range c.cols {
		for _, col := range cols {
			lo, hi := len(col)*p/parts, len(col)*(p+1)/parts
			b.Samples = append(b.Samples, col[lo:hi]...)
		}
	}
	return b
}

// checkCaseColumns checks that tr holds the case's columns as they were
// written: the precondition of holding its trees to SamplesIn.
func checkCaseColumns(t testing.TB, ctx string, tr *Trace, c *counterCase) {
	t.Helper()
	for k, id := range c.ids {
		tc, ok := tr.CounterByID(id)
		if !ok {
			t.Fatalf("%s: counter %d missing", ctx, id)
		}
		for cpu, col := range c.cols[k] {
			if got := tc.SamplesIn(int32(cpu), math.MinInt64, math.MaxInt64); !slices.Equal(got, sampleRows(col)) {
				t.Fatalf("%s: counter %d cpu %d holds %d samples, %d were written", ctx, id, cpu, len(got), len(col))
			}
		}
	}
}

// TestCounterTreesMatchScan: trees ≡ scan over every view a column is
// read through. One case is batch-loaded, saved and mapped back, fed
// through a live trace epoch by epoch, and fed through a spilling one
// whose segments are installed each epoch, one of whose columns goes
// out of order (and is unspilled), and whose oldest segments age out;
// the spilling one is saved and mapped back too. On each, both trees of
// every pair must hold what the scan of SamplesIn gives, and a live
// chain extended epoch by epoch must be the tree one build over the
// snapshot's column gives. Every live snapshot is checked again at the
// end: later epochs, installs and drops must not have moved it.
func TestCounterTreesMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := genCounterCase(rng, 3, 5)
		ctx := func(s string) string { return fmt.Sprintf("seed %d, %s", seed, s) }

		batch, err := FromReader(bytes.NewReader(c.stream(t)))
		if err != nil {
			t.Fatal(err)
		}
		checkCaseColumns(t, ctx("batch"), batch, c)
		checkCounterTrees(t, ctx("batch"), rng, batch, 40)

		dir := t.TempDir()
		path := filepath.Join(dir, "counters.atms")
		if err := SaveStore(batch, path); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		checkCaseColumns(t, ctx("store"), mapped, c)
		checkCounterTrees(t, ctx("store"), rng, mapped, 40)

		const parts = 6
		lv := NewLive()
		defer lv.Close()
		var snaps []*Trace
		for p := 0; p < parts; p++ {
			snap := publish(t, lv, c.batch(p, parts))
			if len(builtTrees(snap)) == 0 {
				t.Fatalf("%s: precondition: the publish seeded no trees", ctx(fmt.Sprintf("live epoch %d", p)))
			}
			checkOneBuild(t, ctx(fmt.Sprintf("live epoch %d", p)), snap)
			checkCounterTrees(t, ctx(fmt.Sprintf("live epoch %d", p)), rng, snap, 8)
			snaps = append(snaps, snap)
		}
		checkCaseColumns(t, ctx("live"), snaps[parts-1], c)

		// Spilling: every publish freezes and installs a segment, the
		// budget keeps about two epochs of samples, and at epoch 3 the
		// longest column gets a sample from its past.
		var total int64
		longest, lk, lcpu := 0, 0, 0
		for k, cols := range c.cols {
			for cpu, col := range cols {
				total += int64(len(col)) * counterSampleBytes
				if len(col) > longest {
					longest, lk, lcpu = len(col), k, cpu
				}
			}
		}
		sp := NewLive()
		sp.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1, MaxBytes: total / 3})
		defer sp.Close()
		for p := 0; p < parts; p++ {
			b := c.batch(p, parts)
			if p == 3 {
				late := c.cols[lk][lcpu][longest/4]
				late.Value = math.MaxInt64 - int64(p)
				b.Samples = append(b.Samples, late)
			}
			snap := publishSettled(t, sp, b)
			checkOneBuild(t, ctx(fmt.Sprintf("spilled epoch %d", p)), snap)
			checkCounterTrees(t, ctx(fmt.Sprintf("spilled epoch %d", p)), rng, snap, 8)
			snaps = append(snaps, snap)
		}
		last, _ := sp.Publish()
		checkCounterTrees(t, ctx("spilled, last"), rng, last, 40)
		st, _ := last.SpillStats()
		// Pairs over two parts or more, in the spilled snapshots checked:
		// the late column, sorted and frozen again whole, charges the
		// budget its history, so the last keeps fewer segments.
		multi := 0
		for _, tr := range append(slices.Clone(snaps[parts:]), last) {
			for _, tc := range tr.Counters {
				for cpu := range tc.PerCPU {
					if len(tc.PerCPU[cpu].parts) >= 2 {
						multi++
					}
				}
			}
		}
		sp.mu.Lock()
		resorted := sp.counters[lk].per[sp.slotOf[int32(lcpu)]].col
		sp.mu.Unlock()
		if st.DroppedSegs == 0 || multi == 0 || len(resorted.parts) == 0 {
			t.Fatalf("%s: precondition: %d segments dropped, %d pairs over two parts or more, the late column spilled again in %d parts",
				ctx("spilled"), st.DroppedSegs, multi, len(resorted.parts))
		}
		compact := filepath.Join(dir, "compact.atms")
		if err := SaveStore(last, compact); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenStore(compact)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		checkCounterTrees(t, ctx("spilled, saved and mapped"), rng, reopened, 40)

		for i, snap := range snaps {
			checkCounterTrees(t, ctx(fmt.Sprintf("snapshot %d, rechecked", i)), rng, snap, 4)
		}
	}
}

// treePair is one (counter, row) pair's two trees.
type treePair struct{ value, rate *mmtree.Tree }

// rowTrees is the trees a trace's counters hold, [counter][row], read
// without building any: nil where a pair holds none yet.
func rowTrees(tr *Trace) [][]treePair {
	out := make([][]treePair, len(tr.Counters))
	for k, c := range tr.Counters {
		for i := range c.trees {
			out[k] = append(out[k], treePair{c.trees[i].value, c.trees[i].rate})
		}
	}
	return out
}

// chainHeads returns the chain heads lv's builder holds for each
// (counter, row) pair of snap, [counter][row], nil where the pair has
// no chain: the trees a publish that returned snap handed it, as long
// as no publish has run since.
func chainHeads(lv *Live, snap *Trace) [][]treePair {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	out := make([][]treePair, len(snap.Counters))
	for k := range snap.Counters {
		per := lv.counters[k].per
		out[k] = make([]treePair, len(snap.CPUs))
		for r := range snap.CPUs {
			if s := lv.slotOf[snap.CPUs[r].ID]; s < len(per) && per[s].tree != nil {
				out[k][r] = treePair{per[s].tree, per[s].rate}
			}
		}
	}
	return out
}

// TestCounterTreesFoundByRow: a (counter, row) pair's trees are found
// by index on the counter, once. Goroutines take first use of every
// pair of a batch load, an unspilled and a spilled live snapshot, an
// OpenStore trace and a hand-built trace, each in its own order, and
// every pair yields one pointer per tree to all of them (run under
// -race this is the build-once guarantee). Seeded trees are never
// rebuilt: a live snapshot's are the chain heads its publish handed
// it, an OpenStore trace's the ones it adopted. Rows outside a
// counter's table — −1, one past its last, MaxInt32 — answer the empty
// tree and create no entry, and repeat lookups allocate nothing.
func TestCounterTreesFoundByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := genCounterCase(rng, 3, 5)
	batch, err := FromReader(bytes.NewReader(c.stream(t)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "counters.atms")
	if err := SaveStore(batch, path); err != nil {
		t.Fatal(err)
	}
	batch, err = FromReader(bytes.NewReader(c.stream(t))) // SaveStore built the first one's trees
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	const parts = 3
	lv := NewLive()
	defer lv.Close()
	var live *Trace
	for p := 0; p < parts; p++ {
		live = publish(t, lv, c.batch(p, parts))
	}
	liveHeads := chainHeads(lv, live)
	var total int64
	for _, cols := range c.cols {
		for _, col := range cols {
			total += int64(len(col)) * counterSampleBytes
		}
	}
	sp := NewLive()
	sp.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1, MaxBytes: 4 * total})
	defer sp.Close()
	for p := 0; p < parts-1; p++ {
		publishSettled(t, sp, c.batch(p, parts))
	}
	spilled := publish(t, sp, c.batch(parts-1, parts))
	spillHeads := chainHeads(sp, spilled)
	multi := 0
	for _, tc := range spilled.Counters {
		for cpu := range tc.PerCPU {
			multi += len(tc.PerCPU[cpu].parts)
		}
	}

	hand := &Trace{}
	for k, id := range c.ids {
		hc := &Counter{Desc: trace.CounterDesc{ID: id}}
		for _, col := range c.cols[k] {
			hc.PerCPU = append(hc.PerCPU, Column[Sample]{Rows: sampleRows(col)})
		}
		hand.Counters = append(hand.Counters, hc)
	}

	for _, arm := range []struct {
		name string
		tr   *Trace
		// seeded is the trees the arm's trace must answer, nil where
		// a pair builds its own.
		seeded [][]treePair
	}{
		{"batch", batch, nil},
		{"live", live, liveHeads},
		{"spilled", spilled, spillHeads},
		{"store", mapped, rowTrees(mapped)},
		{"hand-built", hand, nil},
	} {
		tr, ci := arm.tr, arm.tr.CounterIndex()
		type pairOf struct {
			c   *Counter
			row int32
		}
		var pairs []pairOf
		for _, tc := range tr.Counters {
			for r := range tc.PerCPU {
				pairs = append(pairs, pairOf{tc, int32(r)})
			}
		}
		if arm.name == "spilled" && multi == 0 {
			t.Fatal("spilled: precondition: no column has a spilled part")
		}
		const goroutines = 8
		got := make([][]treePair, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = make([]treePair, len(pairs))
				for i := range pairs {
					j := (i + g*len(pairs)/goroutines) % len(pairs)
					got[g][j] = treePair{ci.Tree(pairs[j].c, pairs[j].row), ci.RateTree(pairs[j].c, pairs[j].row)}
				}
			}()
		}
		wg.Wait()
		seeded := 0
		for j, p := range pairs {
			want := got[0][j]
			if want.value == nil || want.rate == nil || want.value == want.rate {
				t.Fatalf("%s: counter %d row %d: trees %p and %p", arm.name, p.c.Desc.ID, p.row, want.value, want.rate)
			}
			for g := range got {
				if got[g][j] != want {
					t.Fatalf("%s: counter %d row %d: goroutine %d saw trees %p, %p; goroutine 0 %p, %p",
						arm.name, p.c.Desc.ID, p.row, g, got[g][j].value, got[g][j].rate, want.value, want.rate)
				}
			}
			if again := (treePair{ci.Tree(p.c, p.row), ci.RateTree(p.c, p.row)}); again != want {
				t.Fatalf("%s: counter %d row %d: a later lookup found other trees", arm.name, p.c.Desc.ID, p.row)
			}
		}
		for k, rows := range arm.seeded {
			for r, head := range rows {
				if head.value == nil {
					continue
				}
				seeded++
				tc := tr.Counters[k]
				if ci.Tree(tc, int32(r)) != head.value || ci.RateTree(tc, int32(r)) != head.rate {
					t.Fatalf("%s: counter %d row %d: the trees are not the ones seeded", arm.name, tc.Desc.ID, r)
				}
			}
		}
		if arm.seeded != nil && seeded == 0 {
			t.Fatalf("%s: precondition: no pair holds a seeded tree", arm.name)
		}
		checkCounterTrees(t, arm.name, rng, tr, 4)

		for _, tc := range tr.Counters {
			for _, row := range []int32{-1, int32(len(tc.PerCPU)), math.MaxInt32} {
				if vt, rt := ci.Tree(tc, row), ci.RateTree(tc, row); vt != emptyTree || rt != emptyTree || vt.Len() != 0 {
					t.Fatalf("%s: counter %d row %d: trees of %d and %d entries, want the empty tree", arm.name, tc.Desc.ID, row, vt.Len(), rt.Len())
				}
			}
			if len(tc.trees) != len(tc.PerCPU) {
				t.Fatalf("%s: counter %d holds %d tree entries for %d rows", arm.name, tc.Desc.ID, len(tc.trees), len(tc.PerCPU))
			}
		}
		n := testing.AllocsPerRun(10, func() {
			for _, p := range pairs {
				ci.Tree(p.c, p.row)
				ci.RateTree(p.c, p.row)
			}
			for _, tc := range tr.Counters {
				ci.Tree(tc, -1)
				ci.RateTree(tc, int32(len(tc.PerCPU)))
				ci.Tree(tc, math.MaxInt32)
			}
		})
		if n != 0 {
			t.Errorf("%s: repeat lookups allocated %v times", arm.name, n)
		}
	}
}

// TestCounterRatesDoNotWrap: a rate is the exact quotient, truncated
// toward zero and clamped to int64, where Δv · 1000 · RateScale
// overflows int64 — the int64 expression read the first case's rising
// counter as −5 339 544 073 709 551 — and equal to it where it does
// not. A batch load and a live trace fed one sample an epoch agree.
func TestCounterRatesDoNotWrap(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	cases := []struct {
		name    string
		samples [][2]int64 // (time, value)
		want    []int64
	}{
		{"rising past 2^47", [][2]int64{{0, 0}, {1000, 2e11}, {2000, 2e11 + 1}}, []int64{13_107_200_000_000_000, 65_536}},
		{"falling", [][2]int64{{0, 2e11}, {1000, 0}, {3000, -7}}, []int64{-13_107_200_000_000_000, -229_376}},
		{"one cycle apart", [][2]int64{{0, 0}, {1, 1}, {2, 1e12}, {3, -1e12}}, []int64{65_536_000, hi, lo}},
		{"half the range", [][2]int64{{0, -(hi / 2)}, {1000, hi / 2}, {1 << 62, -(hi / 2)}, {1<<62 + 1<<61, hi / 2}}, []int64{hi, -131_072_000, 262_143_999}},
		{"time and value ends", [][2]int64{{lo, lo}, {hi, hi}}, []int64{65_536_000}},
		{"value ends", [][2]int64{{0, hi}, {1, lo}, {2, hi}}, []int64{lo, hi}},
		{"equal timestamps", [][2]int64{{5, 1}, {5, 1 << 40}, {7, 3}}, []int64{0, lo}},
	}
	for _, tc := range cases {
		var col []trace.CounterSample
		for _, s := range tc.samples {
			col = append(col, trace.CounterSample{Counter: 1, Time: s[0], Value: s[1]})
		}
		c := &counterCase{ids: []trace.CounterID{1}, cols: [][][]trace.CounterSample{{col}}}
		batch, err := FromReader(bytes.NewReader(c.stream(t)))
		if err != nil {
			t.Fatal(err)
		}
		lv := NewLive()
		var live *Trace
		for p := range col {
			live = publish(t, lv, c.batch(p, len(col)))
		}
		lv.Close()
		for _, arm := range []struct {
			name string
			tr   *Trace
		}{{"batch", batch}, {"live", live}} {
			tree := arm.tr.CounterIndex().RateTree(arm.tr.Counters[0], 0)
			var got []int64
			for i := 0; i < tree.Len(); i++ {
				got = append(got, tree.Value(i))
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s, %s: rates %v, want %v", tc.name, arm.name, got, tc.want)
			}
			for i := range got {
				if r := refRate(toSample(&col[i]), toSample(&col[i+1])); r != got[i] {
					t.Errorf("%s, %s: rate %d is %d, the math/big reference %d", tc.name, arm.name, i, got[i], r)
				}
			}
		}
	}
}

// builtTrees returns the trees tr's counters hold, built or seeded,
// without building any.
func builtTrees(tr *Trace) (trees []*mmtree.Tree) {
	for _, c := range tr.Counters {
		for i := range c.trees {
			for _, t := range []*mmtree.Tree{c.trees[i].value, c.trees[i].rate} {
				if t != nil {
					trees = append(trees, t)
				}
			}
		}
	}
	return trees
}

// counterIndexBytes returns what the trees tr's counters hold own.
func counterIndexBytes(tr *Trace) (n int64) {
	for _, t := range builtTrees(tr) {
		n += t.OverheadBytes()
	}
	return n
}

// TestCounterIndexOverhead holds the counter index to what an index may
// cost, as TestDomIndexOverhead holds the dominance index: on the Seidel
// fixture both trees of every pair own at most 8.5 B a sample — the
// rates' 8 and two pyramids, 2·16/99 — plus each tree's header, which it
// owns however short its column (the fixture's pairs hold 114 to 270
// samples), where their copies of every sample's time and value were
// 32; and an index nobody built owns nothing.
func TestCounterIndexOverhead(t *testing.T) {
	tr, err := FromReader(bytes.NewReader(seidelStream(t, 12, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if got := counterIndexBytes(tr); got != 0 {
		t.Fatalf("an index nobody built owns %d bytes", got)
	}
	_, samples := tr.EventCounts()
	if samples == 0 {
		t.Fatal("fixture has no counter samples")
	}
	tr.BuildCounterIndex(0)
	index, trees := counterIndexBytes(tr), int64(len(builtTrees(tr)))
	t.Logf("counter index: %d bytes over %d samples in %d trees, %.2f a sample", index, samples, trees, float64(index)/float64(samples))
	if bound := 17*samples/2 + int64(unsafe.Sizeof(mmtree.Tree{}))*trees; index > bound {
		t.Errorf("the counter index owns %d bytes over %d samples in %d trees: want at most 8.5 a sample and a header a tree, %d", index, samples, trees, bound)
	}
}

// FuzzCounterTrees: whatever the column, the way it is split into
// spilled parts and RAM tail, and the window, both trees answer what
// the scan answers, every rate is the math/big reference's, and nothing
// panics. The seeds are the overflow cases of TestCounterRatesDoNotWrap.
func FuzzCounterTrees(f *testing.F) {
	enc := func(samples ...[2]int64) []byte {
		var b []byte
		for _, s := range samples {
			b = binary.LittleEndian.AppendUint64(b, uint64(s[0]))
			b = binary.LittleEndian.AppendUint64(b, uint64(s[1]))
		}
		return b
	}
	const lo, hi = math.MinInt64, math.MaxInt64
	f.Add(enc([2]int64{0, 0}, [2]int64{1000, 2e11}, [2]int64{2000, 2e11 + 1}), uint8(1), int64(500), int64(1500))
	f.Add(enc([2]int64{0, 2e11}, [2]int64{1000, 0}, [2]int64{3000, -7}), uint8(0), int64(0), int64(1000))
	f.Add(enc([2]int64{0, 0}, [2]int64{1, 1}, [2]int64{2, 1e12}, [2]int64{3, -1e12}), uint8(3), int64(1), int64(3))
	f.Add(enc([2]int64{0, -(hi / 2)}, [2]int64{1000, hi / 2}, [2]int64{1 << 62, -(hi / 2)}), uint8(2), int64(1000), int64(1<<62))
	f.Add(enc([2]int64{lo, lo}, [2]int64{hi, hi}), uint8(2), int64(lo), int64(hi))
	f.Add(enc([2]int64{0, hi}, [2]int64{1, lo}, [2]int64{2, hi}), uint8(5), int64(hi), int64(lo))
	f.Add(enc([2]int64{5, 1}, [2]int64{5, 1 << 40}, [2]int64{7, 3}), uint8(7), int64(5), int64(6))
	f.Add([]byte{}, uint8(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, raw []byte, cuts uint8, t0, t1 int64) {
		// Each 16 bytes are a (time, value) pair; times are sorted, as the
		// loader sorts them.
		var col []Sample
		for i := 0; i+16 <= len(raw) && len(col) < 4096; i += 16 {
			col = append(col, Sample{
				Time:  int64(binary.LittleEndian.Uint64(raw[i:])),
				Value: int64(binary.LittleEndian.Uint64(raw[i+8:])),
			})
		}
		slices.SortStableFunc(col, func(a, b Sample) int { return cmp.Compare(a.Time, b.Time) })
		// cuts picks the part boundaries: bit k cuts before sample k+1;
		// the last part is the RAM tail.
		c := &Counter{Desc: trace.CounterDesc{ID: 1}, PerCPU: make([]Column[Sample], 1)}
		from := 0
		for k := 0; k < 8 && k+1 < len(col); k++ {
			if cuts&(1<<k) != 0 {
				c.PerCPU[0].parts = append(c.PerCPU[0].parts, colPart[Sample]{seg: &spillSeg{}, rows: col[from : k+1]})
				from = k + 1
			}
		}
		c.PerCPU[0].Rows = col[from:]
		tr := &Trace{Counters: []*Counter{c}}
		if !slices.Equal(c.Samples(0), col) {
			t.Fatal("the split column does not read back")
		}
		values, rates := wantEntries(col)
		ci := tr.CounterIndex()
		for _, p := range []struct {
			tree *mmtree.Tree
			es   []treeEntry
		}{{ci.Tree(c, 0), values}, {ci.RateTree(c, 0), rates}} {
			if p.tree.Len() != len(p.es) {
				t.Fatalf("Len = %d, want %d", p.tree.Len(), len(p.es))
			}
			for i, e := range p.es {
				if p.tree.Time(i) != e.time || p.tree.Value(i) != e.value {
					t.Fatalf("entry %d = (%d, %d), want (%d, %d)", i, p.tree.Time(i), p.tree.Value(i), e.time, e.value)
				}
			}
			for _, w := range [][2]int64{{t0, t1}, {math.MinInt64, math.MaxInt64}, {t1, t0}} {
				gmn, gmx, gok := p.tree.MinMax(w[0], w[1])
				wmn, wmx, wok := scanRange(p.es, 0, len(p.es), w[0], w[1])
				if gmn != wmn || gmx != wmx || gok != wok {
					t.Fatalf("MinMax(%d, %d) = (%d, %d, %v), the scan wants (%d, %d, %v)", w[0], w[1], gmn, gmx, gok, wmn, wmx, wok)
				}
			}
		}
	})
}

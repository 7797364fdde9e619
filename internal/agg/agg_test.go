package agg

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sumAgg is a plain (non-idempotent) monoid: every leaf must enter a
// query fold exactly once for the result to be right.
type sumAgg struct{ vals []int64 }

func (a sumAgg) Zero() int64              { return 0 }
func (a sumAgg) Leaf(i int) int64         { return a.vals[i] }
func (a sumAgg) Combine(x, y int64) int64 { return x + y }

// mmAgg is the idempotent commutative semilattice of mmtree.
type mmTestAgg struct{ vals []int64 }

type mm struct{ mn, mx int64 }

func (a mmTestAgg) Zero() mm      { return mm{} }
func (a mmTestAgg) Leaf(i int) mm { return mm{a.vals[i], a.vals[i]} }
func (a mmTestAgg) Combine(x, y mm) mm {
	if y.mn < x.mn {
		x.mn = y.mn
	}
	if y.mx > x.mx {
		x.mx = y.mx
	}
	return x
}

// randomVals returns n values; with base set near MaxInt64/2 the
// magnitudes probe the extreme-timestamp regime the trace indexes must
// survive (Section VI timestamps are unsigned cycle counts).
func randomVals(rng *rand.Rand, n int, base int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = base + rng.Int63n(1<<20) - 1<<19
	}
	return vals
}

// TestAggAppendEqualsBuild: for random batch splits, a chain of
// Extends is structurally identical (level by level, node by node) to
// one Extend from the empty tree over all leaves — the only other way
// to build — including at MaxInt64/2 value bases, and queries on the
// chained tree equal brute force.
func TestAggAppendEqualsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, base := range []int64{0, math.MaxInt64 / 2} {
		for _, arity := range []int{2, 3, 7, 64} {
			for _, total := range []int{0, 1, 2, 63, 64, 65, 1000, 4097} {
				vals := randomVals(rng, total, base)
				a := mmTestAgg{vals}
				chain := NewTree[mm](arity)
				for n := 0; n < total; {
					n += rng.Intn(total/3 + 2)
					if n > total {
						n = total
					}
					chain = chain.Extend(a, n)
				}
				chain = chain.Extend(a, total)
				want := NewTree[mm](arity).Extend(a, total)
				if chain.Len() != want.Len() {
					t.Fatalf("base=%d arity=%d total=%d: Len = %d, want %d",
						base, arity, total, chain.Len(), want.Len())
				}
				if !reflect.DeepEqual(chain.levels, want.levels) {
					t.Fatalf("base=%d arity=%d total=%d: chained levels differ from one-shot build",
						base, arity, total)
				}
				for q := 0; q < 30; q++ {
					lo := rng.Intn(total + 1)
					hi := rng.Intn(total + 1)
					if lo > hi {
						lo, hi = hi, lo
					}
					got, ok := chain.Query(a, lo, hi)
					if lo == hi {
						if ok {
							t.Fatalf("empty range reported ok")
						}
						continue
					}
					want := mm{vals[lo], vals[lo]}
					for _, v := range vals[lo:hi] {
						if v < want.mn {
							want.mn = v
						}
						if v > want.mx {
							want.mx = v
						}
					}
					if !ok || got != want {
						t.Fatalf("base=%d arity=%d total=%d: Query(%d,%d) = %+v,%v want %+v",
							base, arity, total, lo, hi, got, ok, want)
					}
				}
			}
		}
	}
}

// TestAggQueryMatchesScan: with a non-idempotent sum monoid, every
// range query must equal the brute-force fold — i.e. the pyramid walk
// visits each leaf in the range exactly once, whatever the alignment.
func TestAggQueryMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, arity := range []int{2, 5, 64, 100} {
		for _, total := range []int{1, 2, 99, 100, 101, 2500} {
			vals := randomVals(rng, total, 0)
			a := sumAgg{vals}
			tree := NewTree[int64](arity).Extend(a, total)
			for q := 0; q < 200; q++ {
				lo := rng.Intn(total + 1)
				hi := rng.Intn(total + 1)
				if lo > hi {
					lo, hi = hi, lo
				}
				got, ok := tree.Query(a, lo, hi)
				var want int64
				for _, v := range vals[lo:hi] {
					want += v
				}
				if (lo < hi) != ok || got != want {
					t.Fatalf("arity=%d total=%d: Query(%d,%d) = %d,%v want %d,%v",
						arity, total, lo, hi, got, ok, want, lo < hi)
				}
			}
			// Clamping and the full range.
			if got, ok := tree.Query(a, -5, total+5); !ok {
				t.Fatal("full range not ok")
			} else {
				var want int64
				for _, v := range vals {
					want += v
				}
				if got != want {
					t.Fatalf("full range = %d, want %d", got, want)
				}
			}
		}
	}
}

// countingSum is sumAgg counting the leaves it is asked for and the
// combines it makes.
type countingSum struct {
	vals             []int64
	leaves, combines int
}

func (a *countingSum) Zero() int64      { return 0 }
func (a *countingSum) Leaf(i int) int64 { a.leaves++; return a.vals[i] }
func (a *countingSum) Combine(x, y int64) int64 {
	a.combines++
	return x + y
}

// checkFloorShape asserts that level l of tr holds the complete blocks
// of arity^(l+1) leaves and nothing else.
func checkFloorShape[S any](t *testing.T, ctx string, tr Tree[S]) {
	t.Helper()
	if want := depth(tr.n, tr.arity); len(tr.levels) != want {
		t.Fatalf("%s: %d levels over %d leaves at arity %d, want %d", ctx, len(tr.levels), tr.n, tr.arity, want)
	}
	nodes := tr.n
	for l, lv := range tr.levels {
		if nodes /= tr.arity; len(lv) != nodes {
			t.Fatalf("%s: level %d holds %d nodes over %d leaves at arity %d, want %d", ctx, l, len(lv), tr.n, tr.arity, nodes)
		}
	}
}

// checkGeneration queries one generation of a chain over windows [lo,
// hi), which may reach past either end, against brute force over its own
// prefix of vals.
func checkGeneration(t *testing.T, ctx string, tr Tree[int64], a Agg[int64], vals []int64, windows [][2]int) {
	t.Helper()
	n := tr.Len()
	for _, w := range windows {
		got, ok := tr.Query(a, w[0], w[1])
		from, to := min(max(w[0], 0), n), min(w[1], n)
		var want int64
		for _, v := range vals[from:max(to, from)] {
			want += v
		}
		if ok != (from < to) || got != want {
			t.Fatalf("%s: Query(%d, %d) over %d leaves = %d, %v; the prefix sums to %d", ctx, w[0], w[1], n, got, ok, want)
		}
	}
}

// TestAggExtendPreservesOld: every generation of a chain keeps
// answering for its own prefix after the chain moved on (snapshot
// readers hold older generations while the writer appends); each Extend
// computes exactly the nodes its new leaves complete — it reads the
// leaves of those blocks and nothing else, so it never rewrites a node
// below the receiver's lengths — and leaves every level in the floor
// shape; and a first generation adopted from copies (a store's
// read-only mapping) is never written, spare capacity behind each
// level included.
func TestAggExtendPreservesOld(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	adoptedLevels := 0
	for _, arity := range []int{2, 3, 7, 64, 100} {
		for round := 0; round < 4; round++ {
			total := 1 + rng.Intn(max(3*arity*arity, 3000))
			vals := randomVals(rng, total, 0)
			a := &countingSum{vals: vals}
			ctx := fmt.Sprintf("arity %d, %d leaves, round %d", arity, total, round)

			// Generation 0: a one-shot build adopted from copies whose
			// spare capacity holds a sentinel.
			n0 := rng.Intn(total/3 + 1)
			built := NewTree[int64](arity).Extend(a, n0)
			copies := make([][]int64, len(built.levels))   // the levels and their spare capacity
			pristine := make([][]int64, len(built.levels)) // the same bytes, kept apart
			for l, lv := range built.levels {
				copies[l] = append(slices.Clone(lv), slices.Repeat([]int64{math.MinInt64}, 1+rng.Intn(arity))...)
				pristine[l] = slices.Clone(copies[l])
			}
			adopt := make([][]int64, len(copies))
			for l, c := range copies {
				adopt[l] = c[:len(built.levels[l])]
			}
			adopted, err := FromLevels(arity, n0, adopt)
			if err != nil {
				t.Fatalf("%s: FromLevels: %v", ctx, err)
			}
			adoptedLevels += len(copies)

			gens := []Tree[int64]{adopted}
			for head := adopted; head.Len() < total; {
				n := min(head.Len()+[]int{0, 1, arity - 1, arity, rng.Intn(4 * arity), rng.Intn(total/4 + 1)}[rng.Intn(6)], total)
				a.leaves, a.combines = 0, 0
				next := head.Extend(a, n)
				var nodes, firstLevel int
				for l, d := 0, arity; d <= n; l, d = l+1, d*arity {
					gained := n/d - head.Len()/d
					nodes += gained
					if l == 0 {
						firstLevel = gained
					}
				}
				if a.leaves != arity*firstLevel || a.combines != (arity-1)*nodes {
					t.Fatalf("%s: Extend %d → %d read %d leaves and combined %d times, want %d and %d: the %d nodes its new leaves complete",
						ctx, head.Len(), n, a.leaves, a.combines, arity*firstLevel, (arity-1)*nodes, nodes)
				}
				checkFloorShape(t, ctx, next)
				gens = append(gens, next)
				head = next
			}

			if want := NewTree[int64](arity).Extend(a, total); !reflect.DeepEqual(gens[len(gens)-1].levels, want.levels) {
				t.Fatalf("%s: the chain's head differs from a one-shot build", ctx)
			}
			for g, tr := range gens {
				windows := make([][2]int, 40)
				for i := range windows {
					lo := rng.Intn(tr.Len()+2) - 1
					windows[i] = [2]int{lo, lo + rng.Intn(tr.Len()-lo+3)}
				}
				checkGeneration(t, fmt.Sprintf("%s, generation %d", ctx, g), tr, a, vals, windows)
			}
			for l, c := range copies {
				if !slices.Equal(c, pristine[l]) {
					t.Fatalf("%s: adopted level %d or the spare capacity behind it was written after the chain grew", ctx, l)
				}
			}
		}
	}
	if adoptedLevels == 0 {
		t.Fatal("no generation was adopted with levels: the adoption check tested nothing")
	}
}

// TestAggOverhead: with the paper's arity the internal node bytes are a
// small fraction of the leaf bytes (the paper's <=5% memory budget).
func TestAggOverhead(t *testing.T) {
	vals := make([]int64, 1<<17)
	a := sumAgg{vals}
	tree := NewTree[int64](100).Extend(a, len(vals))
	if frac := float64(tree.OverheadBytes()) / float64(8*len(vals)); frac > 0.05 {
		t.Fatalf("node overhead %.2f%% exceeds 5%%", 100*frac)
	}
	if tree.Arity() != 100 {
		t.Fatalf("arity = %d", tree.Arity())
	}
}

// TestAggValsNoOverflow is a guard on the test helper itself:
// randomVals with a MaxInt64/2 base must not overflow into negatives,
// or the extreme-timestamp cases above would silently test nothing.
func TestAggValsNoOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, v := range randomVals(rng, 1000, math.MaxInt64/2) {
		if v < 0 {
			t.Fatal("value overflowed")
		}
	}
}

// TestAggFromLevelsRoundTrip: a tree adopted from another's Levels
// answers every query like the original, and extending the adopted
// tree never writes the adopted arrays (store views are read-only
// mappings) while still matching a build over all leaves.
func TestAggFromLevelsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, arity := range []int{2, 7, 64} {
		for _, total := range []int{0, 1, 2, 64, 65, 1000} {
			vals := randomVals(rng, total+300, 0)
			a := sumAgg{vals}
			orig := NewTree[int64](arity).Extend(a, total)
			adopted := make([][]int64, len(orig.Levels()))
			for l, lv := range orig.Levels() {
				adopted[l] = append([]int64(nil), lv...)
			}
			rt, err := FromLevels(arity, total, adopted)
			if err != nil {
				t.Fatalf("arity=%d total=%d: FromLevels: %v", arity, total, err)
			}
			for lo := 0; lo <= total; lo += 1 + total/37 {
				for hi := lo; hi <= total; hi += 1 + total/41 {
					g, gok := rt.Query(a, lo, hi)
					w, wok := orig.Query(a, lo, hi)
					if g != w || gok != wok {
						t.Fatalf("arity=%d total=%d: adopted Query(%d,%d) = %d,%v want %d,%v", arity, total, lo, hi, g, gok, w, wok)
					}
				}
			}
			ext := rt.Extend(a, total+300)
			for l := range adopted {
				if !reflect.DeepEqual(adopted[l], orig.levels[l]) {
					t.Fatalf("arity=%d total=%d: Extend wrote adopted level %d", arity, total, l)
				}
				if len(ext.levels[l]) > len(adopted[l]) && &ext.levels[l][0] == &adopted[l][0] {
					t.Fatalf("arity=%d total=%d: level %d grew inside adopted memory", arity, total, l)
				}
			}
			if want := NewTree[int64](arity).Extend(a, total+300); !reflect.DeepEqual(ext.levels, want.levels) {
				t.Fatalf("arity=%d total=%d: extended adopted tree differs from a build", arity, total)
			}
		}
	}
}

// TestAggFromLevelsRejectsBadShapes: every shape relation a later
// Query or Extend indexes by is checked at adoption — the floor shape,
// complete blocks only, so a level holding the node of a block the
// leaves do not fill (the shape pyramids were stored in before) is an
// error — and adopted levels are clipped to their length in place.
func TestAggFromLevelsRejectsBadShapes(t *testing.T) {
	a := sumAgg{make([]int64, 1000)}
	good := NewTree[int64](10).Extend(a, 1000).Levels() // 100, 10, 1
	cases := []struct {
		name     string
		arity, n int
		levels   [][]int64
	}{
		{"arity below 2", 1, 1000, good},
		{"negative leaf count", 10, -1, nil},
		{"missing top level", 10, 1000, good[:2]},
		{"extra level", 10, 1000, append(good[:3:3], []int64{0})},
		{"a level for fewer leaves than arity", 10, 9, good[2:]},
		{"short level", 10, 1000, [][]int64{good[0][:99], good[1], good[2]}},
		{"long level", 10, 1000, [][]int64{good[0], make([]int64, 11), good[2]}},
		{"the node of a partial block", 10, 1005, [][]int64{make([]int64, 101), good[1], good[2]}},
		{"the partial blocks' shape", 10, 1005, [][]int64{make([]int64, 101), make([]int64, 11), make([]int64, 2), good[2]}},
		{"leaf count disagrees", 10, 1010, good},
	}
	for _, c := range cases {
		if _, err := FromLevels(c.arity, c.n, c.levels); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// A partial block at the end of the leaves has no node to check.
	for _, n := range []int{1000, 1009} {
		roomy := make([][]int64, len(good))
		for l, lv := range good {
			roomy[l] = append(slices.Clone(lv), 0)[:len(lv)]
		}
		tr, err := FromLevels(10, n, roomy)
		if err != nil {
			t.Fatalf("valid levels over %d leaves rejected: %v", n, err)
		}
		for l, lv := range tr.Levels() {
			if cap(lv) != len(lv) || cap(roomy[l]) != len(lv) {
				t.Fatalf("adopted level %d has room for %d nodes past its %d: an Extend would write into it", l, cap(lv)-len(lv), len(lv))
			}
		}
	}
}

// FuzzAggExtend: whatever the arity (2 to 100) and the steps a chain
// grows by, its head is the one-shot build level for level, every
// generation keeps the floor shape, and every generation, queried after
// the last Extend over the windows the input gives, answers what brute
// force over its own prefix answers.
func FuzzAggExtend(f *testing.F) {
	f.Add(uint8(0), []byte{1, 1, 2, 3, 5, 8, 13}, []byte{0, 255, 3, 4, 100, 101})
	f.Add(uint8(1), []byte{2, 0, 9, 27, 255}, []byte{255, 0, 1, 200})
	f.Add(uint8(62), []byte{63, 1, 64, 128, 255, 255}, []byte{64, 128, 0, 254})
	f.Add(uint8(98), []byte{99, 1, 255, 255, 255, 255}, []byte{1, 2, 99, 100, 0, 255})
	f.Add(uint8(5), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, arity uint8, steps, windows []byte) {
		ar := 2 + int(arity)%99
		steps = steps[:min(len(steps), 64)]
		total := 0
		for _, s := range steps {
			total += int(s)
		}
		vals := make([]int64, total)
		for i := range vals {
			vals[i] = int64(i*2654435761%2001) - 1000
		}
		a := sumAgg{vals}
		var gens []Tree[int64]
		head := NewTree[int64](ar)
		for _, s := range steps {
			head = head.Extend(a, head.Len()+int(s))
			gens = append(gens, head)
		}
		if want := NewTree[int64](ar).Extend(a, total); head.Len() != total || !reflect.DeepEqual(head.levels, want.levels) {
			t.Fatalf("arity %d: the chain's head over %d leaves differs from a one-shot build", ar, head.Len())
		}
		for g, tr := range gens {
			ctx := fmt.Sprintf("arity %d, generation %d", ar, g)
			checkFloorShape(t, ctx, tr)
			// Each pair of bytes is a window, scaled to the generation.
			var ws [][2]int
			for i := 0; i+1 < len(windows); i += 2 {
				ws = append(ws, [2]int{int(windows[i]) * (tr.Len() + 1) / 255, int(windows[i+1]) * (tr.Len() + 1) / 255})
			}
			checkGeneration(t, ctx, tr, a, vals, ws)
		}
	})
}

package agg

import (
	"math"
	"math/rand"
	"reflect"
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

// TestAggExtendPreservesOld: pre-extension trees keep answering
// queries correctly after the chain moved on (snapshot readers hold
// older generations while the writer appends).
func TestAggExtendPreservesOld(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vals := randomVals(rng, 900, 0)
	a := sumAgg{vals}
	old := NewTree[int64](10).Extend(a, 500)
	_ = old.Extend(a, 900)
	if old.Len() != 500 {
		t.Fatalf("old tree Len = %d after Extend, want 500", old.Len())
	}
	for q := 0; q < 100; q++ {
		lo := rng.Intn(501)
		hi := rng.Intn(501)
		if lo > hi {
			lo, hi = hi, lo
		}
		got, _ := old.Query(a, lo, hi)
		var want int64
		for _, v := range vals[lo:hi] {
			want += v
		}
		if got != want {
			t.Fatalf("old tree Query(%d,%d) = %d, want %d after Extend", lo, hi, got, want)
		}
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
				if &ext.levels[l][0] == &adopted[l][0] {
					t.Fatalf("arity=%d total=%d: extended level %d aliases adopted memory", arity, total, l)
				}
			}
			if want := NewTree[int64](arity).Extend(a, total+300); !reflect.DeepEqual(ext.levels, want.levels) {
				t.Fatalf("arity=%d total=%d: extended adopted tree differs from a build", arity, total)
			}
		}
	}
}

// TestAggFromLevelsRejectsBadShapes: every shape relation a later
// Query or Extend indexes by is checked at adoption.
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
		{"levels for one leaf", 10, 1, good[2:]},
		{"short level", 10, 1000, [][]int64{good[0][:99], good[1], good[2]}},
		{"long level", 10, 1000, [][]int64{good[0], make([]int64, 11), good[2]}},
		{"leaf count disagrees", 10, 1001, good},
	}
	for _, c := range cases {
		if _, err := FromLevels(c.arity, c.n, c.levels); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := FromLevels(10, 1000, good); err != nil {
		t.Fatalf("valid levels rejected: %v", err)
	}
}

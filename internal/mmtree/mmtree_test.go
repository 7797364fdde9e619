package mmtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/openstream/aftermath/internal/agg"
)

// randomSamples returns n samples with non-decreasing times.
func randomSamples(rng *rand.Rand, n int) []Sample {
	s := make([]Sample, n)
	t := int64(0)
	for i := range s {
		t += int64(rng.Intn(10))
		s[i] = Sample{Time: t, Value: int64(rng.Intn(2000) - 1000)}
	}
	return s
}

func buildRandom(n int, arity int, seed int64) (*Tree, []Sample) {
	s := randomSamples(rand.New(rand.NewSource(seed)), n)
	return Build(agg.Over(s), arity), s
}

// rangeOf is the brute-force reference: the value range of s.
func rangeOf(s []Sample) (min, max int64, ok bool) {
	for _, x := range s {
		if !ok || x.Value < min {
			min = x.Value
		}
		if !ok || x.Value > max {
			max = x.Value
		}
		ok = true
	}
	return min, max, ok
}

// naiveMinMax is the brute-force reference: the value range of the
// samples with time in [t0, t1).
func naiveMinMax(s []Sample, t0, t1 int64) (min, max int64, ok bool) {
	for _, x := range s {
		if x.Time < t0 || x.Time >= t1 {
			continue
		}
		if !ok || x.Value < min {
			min = x.Value
		}
		if !ok || x.Value > max {
			max = x.Value
		}
		ok = true
	}
	return min, max, ok
}

func TestMinMaxMatchesNaive(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 99, 100, 101, 1000, 12345} {
		for _, arity := range []int{2, 3, 10, 100} {
			tree, s := buildRandom(n, arity, int64(n*31+arity))
			maxT := int64(0)
			if n > 0 {
				maxT = s[n-1].Time
			}
			rng := rand.New(rand.NewSource(99))
			for q := 0; q < 200; q++ {
				a := rng.Int63n(maxT + 10)
				b := rng.Int63n(maxT + 10)
				if a > b {
					a, b = b, a
				}
				m1, x1, ok1 := tree.MinMax(a, b)
				m2, x2, ok2 := naiveMinMax(s, a, b)
				if ok1 != ok2 || m1 != m2 || x1 != x2 {
					t.Fatalf("n=%d arity=%d [%d,%d): tree (%d,%d,%v) != naive (%d,%d,%v)",
						n, arity, a, b, m1, x1, ok1, m2, x2, ok2)
				}
			}
		}
	}
}

func TestMinMaxFullRange(t *testing.T) {
	tree, s := buildRandom(5000, 100, 7)
	min, max, ok := tree.MinMaxIndex(0, tree.Len())
	wantMin, wantMax, _ := rangeOf(s)
	if !ok || min != wantMin || max != wantMax {
		t.Errorf("full range = (%d,%d,%v), want (%d,%d)", min, max, ok, wantMin, wantMax)
	}
}

func TestEmptyAndOutOfRange(t *testing.T) {
	for _, tree := range []*Tree{Build(agg.Leaves[Sample]{}, 100), Rates(100)} {
		if _, _, ok := tree.MinMax(0, 100); ok || tree.Len() != 0 {
			t.Error("empty tree must report no samples")
		}
	}
	tree, s := buildRandom(10, 100, 1)
	if _, _, ok := tree.MinMax(-100, -50); ok {
		t.Error("interval before all samples must be empty")
	}
	if _, _, ok := tree.MinMax(s[9].Time+1, s[9].Time+100); ok {
		t.Error("interval after all samples must be empty")
	}
	if _, _, ok := tree.MinMaxIndex(5, 5); ok {
		t.Error("empty index range must report no samples")
	}
}

func TestSingleSample(t *testing.T) {
	col := agg.Over([]Sample{{Time: 42, Value: -7}})
	tree := Build(col, 100)
	min, max, ok := tree.MinMax(0, 100)
	if !ok || min != -7 || max != -7 {
		t.Errorf("single sample: got (%d,%d,%v)", min, max, ok)
	}
	// One sample is no pair: its rate tree is empty.
	if rt := Rates(100).Append(col, nil); rt.Len() != 0 {
		t.Errorf("rate tree over one sample has %d entries", rt.Len())
	}
}

// Section VI-B-c: with the default arity of 100, what a value tree owns
// stays below 5% of the counter data it indexes.
func TestOverheadBelowFivePercent(t *testing.T) {
	for _, n := range []int{1000, 100000, 1000000} {
		tree, _ := buildRandom(n, DefaultArity, 3)
		frac := float64(tree.OverheadBytes()) / float64(tree.DataBytes())
		if frac > 0.05 {
			t.Errorf("n=%d: overhead %.2f%% exceeds 5%%", n, 100*frac)
		}
	}
}

// A rate tree holds one entry per pair of consecutive samples: rates
// that do not pair up the column, or rates handed to a value tree, are
// a caller's bug and panic instead of indexing out of range later.
func TestMismatchedLengthsPanic(t *testing.T) {
	col := agg.Over([]Sample{{Time: 1}, {Time: 2}, {Time: 3}})
	for name, f := range map[string]func(){
		"one rate short":    func() { Rates(100).Append(col, []int64{1}) },
		"one rate too many": func() { Rates(100).Append(col, []int64{1, 2, 3}) },
		"rates on values":   func() { Values(100).Append(col, []int64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestInvalidArityFallsBack(t *testing.T) {
	col := agg.Over([]Sample{{Time: 1}, {Time: 2}, {Time: 3}})
	for _, tree := range []*Tree{Build(col, 0), Rates(1).Append(col, []int64{0, 0})} {
		if tree.Arity() != DefaultArity {
			t.Errorf("arity = %d, want %d", tree.Arity(), DefaultArity)
		}
	}
}

// Property: for random sample sets and random index ranges, the tree
// result equals a naive scan.
func TestMinMaxProperty(t *testing.T) {
	f := func(seed int64, loFrac, hiFrac uint16, aritySel uint8) bool {
		n := 500
		arity := []int{2, 7, 100}[int(aritySel)%3]
		tree, s := buildRandom(n, arity, seed)
		lo := int(loFrac) % (n + 1)
		hi := int(hiFrac) % (n + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		m1, x1, ok1 := tree.MinMaxIndex(lo, hi)
		m2, x2, ok2 := rangeOf(s[lo:hi])
		return ok1 == ok2 && m1 == m2 && x1 == x2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Adopt is the store's way in: a pyramid or rates that do not describe
// one tree over the column are an error, never a later index panic.
func TestAdoptChecksColumnLengths(t *testing.T) {
	tree, s := buildRandom(1000, 10, 5)
	col, short := agg.Over(s), agg.Over(s[:999])
	_, pyramid := tree.Columns()
	if vt, err := Adopt(col, pyramid); err != nil || vt.Len() != tree.Len() {
		t.Fatalf("Adopt(Columns()) = %v, %v", vt, err)
	}
	if _, err := Adopt(short, pyramid); err == nil {
		t.Error("pyramid over more leaves than samples accepted")
	}
	rates := make([]int64, len(s)-1)
	rt := Rates(10).Append(col, rates)
	_, rp := rt.Columns()
	if got, err := AdoptRates(col, rates, rp); err != nil || got.Len() != len(s)-1 {
		t.Fatalf("AdoptRates(Columns()) = %v, %v", got, err)
	}
	if _, err := AdoptRates(col, rates[1:], rp); err == nil {
		t.Error("short rates column accepted")
	}
	if _, err := AdoptRates(short, rates, rp); err == nil {
		t.Error("rates over more pairs than samples accepted")
	}
}

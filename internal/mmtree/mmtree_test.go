package mmtree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildRandom(n int, arity int, seed int64) *Tree {
	rng := rand.New(rand.NewSource(seed))
	times := make([]int64, n)
	values := make([]int64, n)
	t := int64(0)
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(10) + 1)
		times[i] = t
		values[i] = int64(rng.Intn(2000) - 1000)
	}
	return Build(times, values, arity)
}

// naiveMinMax is the brute-force reference: a scan of every sample with
// time in [t0, t1).
func naiveMinMax(t *Tree, t0, t1 int64) (min, max int64, ok bool) {
	for i, at := range t.times {
		if at < t0 || at >= t1 {
			continue
		}
		v := t.values[i]
		if !ok || v < min {
			min = v
		}
		if !ok || v > max {
			max = v
		}
		ok = true
	}
	return min, max, ok
}

func TestMinMaxMatchesNaive(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 99, 100, 101, 1000, 12345} {
		for _, arity := range []int{2, 3, 10, 100} {
			tree := buildRandom(n, arity, int64(n*31+arity))
			maxT := int64(0)
			if n > 0 {
				maxT = tree.times[n-1]
			}
			rng := rand.New(rand.NewSource(99))
			for q := 0; q < 200; q++ {
				a := rng.Int63n(maxT + 10)
				b := rng.Int63n(maxT + 10)
				if a > b {
					a, b = b, a
				}
				m1, x1, ok1 := tree.MinMax(a, b)
				m2, x2, ok2 := naiveMinMax(tree, a, b)
				if ok1 != ok2 || m1 != m2 || x1 != x2 {
					t.Fatalf("n=%d arity=%d [%d,%d): tree (%d,%d,%v) != naive (%d,%d,%v)",
						n, arity, a, b, m1, x1, ok1, m2, x2, ok2)
				}
			}
		}
	}
}

func TestMinMaxFullRange(t *testing.T) {
	tree := buildRandom(5000, 100, 7)
	min, max, ok := tree.MinMaxIndex(0, tree.Len())
	if !ok {
		t.Fatal("expected samples")
	}
	wantMin, wantMax := tree.values[0], tree.values[0]
	for _, v := range tree.values {
		if v < wantMin {
			wantMin = v
		}
		if v > wantMax {
			wantMax = v
		}
	}
	if min != wantMin || max != wantMax {
		t.Errorf("full range = (%d,%d), want (%d,%d)", min, max, wantMin, wantMax)
	}
}

func TestEmptyAndOutOfRange(t *testing.T) {
	tree := Build(nil, nil, 100)
	if _, _, ok := tree.MinMax(0, 100); ok {
		t.Error("empty tree must report no samples")
	}
	tree = buildRandom(10, 100, 1)
	if _, _, ok := tree.MinMax(-100, -50); ok {
		t.Error("interval before all samples must be empty")
	}
	if _, _, ok := tree.MinMax(tree.times[9]+1, tree.times[9]+100); ok {
		t.Error("interval after all samples must be empty")
	}
	if _, _, ok := tree.MinMaxIndex(5, 5); ok {
		t.Error("empty index range must report no samples")
	}
}

func TestSingleSample(t *testing.T) {
	tree := Build([]int64{42}, []int64{-7}, 100)
	min, max, ok := tree.MinMax(0, 100)
	if !ok || min != -7 || max != -7 {
		t.Errorf("single sample: got (%d,%d,%v)", min, max, ok)
	}
}

// Section VI-B-c: with the default arity of 100, the tree overhead
// stays below 5% of the counter data.
func TestOverheadBelowFivePercent(t *testing.T) {
	for _, n := range []int{1000, 100000, 1000000} {
		tree := buildRandom(n, DefaultArity, 3)
		frac := float64(tree.OverheadBytes()) / float64(tree.DataBytes())
		if frac > 0.05 {
			t.Errorf("n=%d: overhead %.2f%% exceeds 5%%", n, 100*frac)
		}
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Build([]int64{1}, []int64{1, 2}, 100)
}

func TestInvalidArityFallsBack(t *testing.T) {
	tree := Build([]int64{1, 2, 3}, []int64{1, 2, 3}, 0)
	if tree.Arity() != DefaultArity {
		t.Errorf("arity = %d, want %d", tree.Arity(), DefaultArity)
	}
}

// Property: for random sample sets and random index ranges, the tree
// result equals a naive scan.
func TestMinMaxProperty(t *testing.T) {
	f := func(seed int64, loFrac, hiFrac uint16, aritySel uint8) bool {
		n := 500
		arity := []int{2, 7, 100}[int(aritySel)%3]
		tree := buildRandom(n, arity, seed)
		lo := int(loFrac) % (n + 1)
		hi := int(hiFrac) % (n + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		m1, x1, ok1 := tree.MinMaxIndex(lo, hi)
		if lo == hi {
			return !ok1
		}
		wantMin, wantMax := tree.values[lo], tree.values[lo]
		for _, v := range tree.values[lo:hi] {
			if v < wantMin {
				wantMin = v
			}
			if v > wantMax {
				wantMax = v
			}
		}
		return ok1 && m1 == wantMin && x1 == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Adopt is the store's way in: columns that do not describe one tree
// are an error, never a later index panic.
func TestAdoptChecksColumnLengths(t *testing.T) {
	tree := buildRandom(1000, 10, 5)
	times, values, pyramid := tree.Columns()
	if rt, err := Adopt(times, values, pyramid); err != nil || rt.Len() != tree.Len() {
		t.Fatalf("Adopt(Columns()) = %v, %v", rt, err)
	}
	if _, err := Adopt(times[:999], values, pyramid); err == nil {
		t.Error("short times column accepted")
	}
	if _, err := Adopt(times[:999], values[:999], pyramid); err == nil {
		t.Error("pyramid over more leaves than samples accepted")
	}
}

package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-2, -1, 0, 1, 2}, 0},
	}
	for _, c := range cases {
		if got := Median(c.xs); !almostEqual(got, c.want) {
			t.Errorf("Median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	// Input must not be reordered.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median reordered its input: %v", xs)
	}
}

func TestQuartiles(t *testing.T) {
	q1, q3 := Quartiles([]float64{1, 2, 3, 4, 5})
	if !almostEqual(q1, 2) || !almostEqual(q3, 4) {
		t.Errorf("Quartiles(1..5) = %g, %g, want 2, 4", q1, q3)
	}
	q1, q3 = Quartiles(nil)
	if q1 != 0 || q3 != 0 {
		t.Errorf("Quartiles(nil) = %g, %g", q1, q3)
	}
	q1, q3 = Quartiles([]float64{7})
	if !almostEqual(q1, 7) || !almostEqual(q3, 7) {
		t.Errorf("Quartiles([7]) = %g, %g", q1, q3)
	}
}

func TestMAD(t *testing.T) {
	// Median 3, absolute deviations {2,1,0,1,2} -> MAD 1.
	if got := MAD([]float64{1, 2, 3, 4, 5}); !almostEqual(got, 1) {
		t.Errorf("MAD(1..5) = %g, want 1", got)
	}
	if got := MAD([]float64{4, 4, 4}); got != 0 {
		t.Errorf("MAD(constant) = %g, want 0", got)
	}
	if got := MAD(nil); got != 0 {
		t.Errorf("MAD(nil) = %g, want 0", got)
	}
	// An outlier barely moves the MAD — the property the detectors
	// rely on.
	base := MAD([]float64{1, 2, 3, 4, 5})
	spiked := MAD([]float64{1, 2, 3, 4, 1e9})
	if spiked > 2*base {
		t.Errorf("MAD not robust: %g vs %g", spiked, base)
	}
}

func TestRobustSpread(t *testing.T) {
	// Normal-ish data: scaled MAD.
	if got := RobustSpread([]float64{1, 2, 3, 4, 5}); !almostEqual(got, 1.4826) {
		t.Errorf("RobustSpread(1..5) = %g, want 1.4826", got)
	}
	// More than half identical (MAD 0): falls back to the IQR.
	xs := []float64{5, 5, 5, 5, 5, 1, 2, 9}
	if got := RobustSpread(xs); got <= 0 {
		t.Errorf("RobustSpread(%v) = %g, want > 0 (IQR fallback)", xs, got)
	}
	// No spread information at all.
	if got := RobustSpread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("RobustSpread(constant) = %g, want 0", got)
	}
}

func TestRobustZ(t *testing.T) {
	if got := RobustZ(10, 4, 2); !almostEqual(got, 3) {
		t.Errorf("RobustZ(10,4,2) = %g, want 3", got)
	}
	if got := RobustZ(1, 4, 2); !almostEqual(got, -1.5) {
		t.Errorf("RobustZ(1,4,2) = %g, want -1.5", got)
	}
	if got := RobustZ(10, 4, 0); got != 0 {
		t.Errorf("RobustZ with zero spread = %g, want 0", got)
	}
}

// sortMedian and sortMAD are Median and MAD by their definitions: the
// order statistics read off a copy sorted by sort.Float64s.
func sortMedian(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return sortedQuantile(s, 0.5)
}

func sortMAD(xs []float64) float64 {
	med := sortMedian(xs)
	dev := make([]float64, len(xs))
	for i, v := range xs {
		if dev[i] = v - med; dev[i] < 0 {
			dev[i] = -dev[i]
		}
	}
	return sortMedian(dev)
}

// sameFloat reports whether a and b have the same bits, or are both NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestSelectionMatchesSort holds Median and MAD, which take their order
// statistics by selection, to the sort-based definitions bit for bit
// (any NaN for a NaN) on random inputs of 1 to 2 000 values: continuous
// values, a few distinct ones with ±0 among them (ties), NaNs and ±Inf
// sprinkled in, and runs already sorted either way or all equal, which a
// quickselect's pivots handle worst.
func TestSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	few := []float64{-2, -1, math.Copysign(0, -1), 0, 1, 2, 3}
	gens := map[string]func(i, n int) float64{
		"normal":     func(int, int) float64 { return rng.NormFloat64() * 1e3 },
		"ties":       func(int, int) float64 { return few[rng.Intn(len(few))] },
		"zeros":      func(int, int) float64 { return few[2+rng.Intn(2)] },
		"ascending":  func(i, _ int) float64 { return float64(i / 3) },
		"descending": func(i, n int) float64 { return float64(n - i) },
		"equal":      func(int, int) float64 { return 7 },
		"organ":      func(i, n int) float64 { return float64(min(i, n-i)) },
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	var sizes []int
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for range 40 {
		sizes = append(sizes, 65+rng.Intn(2000-64))
	}
	sizes = append(sizes, 2000)
	for name, gen := range gens {
		for _, n := range sizes {
			for _, rate := range []float64{0, 0.05, 0.6} {
				xs := make([]float64, n)
				for i := range xs {
					if xs[i] = gen(i, n); rng.Float64() < rate {
						xs[i] = specials[rng.Intn(len(specials))]
					}
				}
				in := slices.Clone(xs)
				if got, want := Median(xs), sortMedian(xs); !sameFloat(got, want) {
					t.Fatalf("%s, n=%d, specials %.2f: Median = %v (%#x), sorted %v (%#x)", name, n, rate, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if got, want := MAD(xs), sortMAD(xs); !sameFloat(got, want) {
					t.Fatalf("%s, n=%d, specials %.2f: MAD = %v (%#x), sorted %v (%#x)", name, n, rate, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if !slices.EqualFunc(xs, in, sameFloat) {
					t.Fatalf("%s, n=%d: the input was modified", name, n)
				}
			}
		}
	}
}

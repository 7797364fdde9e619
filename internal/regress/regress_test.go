package regress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPerfectLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	fit, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 1e-12 || math.Abs(fit.Intercept+7) > 1e-12 {
		t.Errorf("fit = %+v, want slope 3 intercept -7", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
	if p := fit.Predict(10); math.Abs(p-23) > 1e-12 {
		t.Errorf("Predict(10) = %v, want 23", p)
	}
}

func TestNoisyLineR2(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var xs, ys []float64
	for i := 0; i < 2000; i++ {
		x := rng.Float64() * 10
		xs = append(xs, x)
		ys = append(ys, 2*x+1+rng.NormFloat64()*0.8)
	}
	fit, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope < 1.9 || fit.Slope > 2.1 {
		t.Errorf("slope = %v, want ~2", fit.Slope)
	}
	if fit.R2 < 0.9 || fit.R2 > 1 {
		t.Errorf("R2 = %v, want 0.9..1", fit.R2)
	}
	// More noise lowers R2.
	var ys2 []float64
	for _, x := range xs {
		ys2 = append(ys2, 2*x+1+rng.NormFloat64()*6)
	}
	fit2, err := Linear(xs, ys2)
	if err != nil {
		t.Fatal(err)
	}
	if fit2.R2 >= fit.R2 {
		t.Errorf("noisier fit R2 %v should be below %v", fit2.R2, fit.R2)
	}
}

func TestDegenerateInputs(t *testing.T) {
	if _, err := Linear([]float64{1}, []float64{2}); err != ErrDegenerate {
		t.Errorf("single point: %v", err)
	}
	if _, err := Linear([]float64{2, 2, 2}, []float64{1, 2, 3}); err != ErrDegenerate {
		t.Errorf("zero x variance: %v", err)
	}
	if _, err := Linear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch must error")
	}
	// Constant y: exact horizontal fit.
	fit, err := Linear([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.R2 != 1 {
		t.Errorf("constant y fit = %+v", fit)
	}
}

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("mean = %v", m)
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("single-value stddev must be 0")
	}
	sd := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(sd-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", sd)
	}
}

// Property: R2 equals the squared Pearson correlation for any
// non-degenerate input.
func TestR2EqualsPearsonSquared(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ys[i] = xs[i]*rng.Float64() + rng.NormFloat64()*3
		}
		fit, err := Linear(xs, ys)
		if err != nil {
			return true
		}
		r := pearson(xs, ys)
		return math.Abs(fit.R2-r*r) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the least-squares line minimizes the residual sum of
// squares against small perturbations.
func TestLeastSquaresOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 100
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 0.5*xs[i] + rng.NormFloat64()*2
	}
	fit, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	rss := func(slope, intercept float64) float64 {
		var s float64
		for i := range xs {
			r := ys[i] - (slope*xs[i] + intercept)
			s += r * r
		}
		return s
	}
	best := rss(fit.Slope, fit.Intercept)
	for _, d := range []float64{-0.01, 0.01} {
		if rss(fit.Slope+d, fit.Intercept) < best {
			t.Errorf("perturbed slope beats fit")
		}
		if rss(fit.Slope, fit.Intercept+d) < best {
			t.Errorf("perturbed intercept beats fit")
		}
	}
}

// pearson is the Pearson correlation coefficient of two equally long,
// non-constant samples, from its definition.
func pearson(xs, ys []float64) float64 {
	mx, my := Mean(xs), Mean(ys)
	var sxx, syy, sxy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

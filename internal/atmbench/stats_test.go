package atmbench

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// TestTailPercentile pins "the highest percentile with at least ten
// samples beyond it" at the ladder's edges.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = p%v, want p%v", c.n, got, c.want)
		}
		p := TailPercentile(c.n)
		if beyond := c.n - rank(c.n, p); p > 50 && beyond < tailBeyond {
			t.Errorf("n=%d: p%v leaves only %d samples beyond", c.n, p, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for p, want := range map[float64]float64{50: 50, 90: 90, 95: 95, 99: 99, 100: 100, 0: 1} {
		if got := Percentile(s, p); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", p, got, want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// TestMedianQuartiles compares against Python's statistics.median and
// statistics.quantiles(v, n=4), the functions the acceptance driver
// computes run-to-run spread with.
func TestMedianQuartiles(t *testing.T) {
	for _, c := range []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 3}, 2, 0.5, 3.5},
		{[]float64{1, 2, 3}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{seq(10), 5.5, 2.75, 8.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11, 30}, 6, 4, 10.5},
	} {
		if got := Median(c.v); got != c.med {
			t.Errorf("Median(%v) = %v, want %v", c.v, got, c.med)
		}
		q1, q3 := Quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSummarize(t *testing.T) {
	v := seq(200)
	v[0], v[199] = v[199], v[0] // unsorted input
	s := Summarize(v, 90)
	if s.N != 200 || s.P50 != 100.5 || s.Tail != 180 || s.Beyond != 20 || s.Max != 200 {
		t.Errorf("Summarize(1..200, p90) = %+v", s)
	}
	if auto := Summarize(v, 0); auto.TailPct != 95 || auto.Beyond != 10 {
		t.Errorf("automatic tail of 200 samples = p%v with %d beyond, want p95 with 10", auto.TailPct, auto.Beyond)
	}
	if (Summarize(nil, 90) != Summary{}) {
		t.Error("summary of nothing is not empty")
	}
}

// TestOpCount: an operation begun and never ended — the driver gave up
// mid-way — counts as failed, like one that ended badly.
func TestOpCount(t *testing.T) {
	var c opCount
	for i := 0; i < 5; i++ {
		c.begin()
		c.end(i != 2)
	}
	if c.Attempted() != 5 || c.Failed() != 1 {
		t.Fatalf("5 closed, 1 bad: attempted %d failed %d", c.Attempted(), c.Failed())
	}
	c.begin() // left open
	if c.Attempted() != 6 || c.Failed() != 2 {
		t.Errorf("one left open: attempted %d failed %d, want 6 and 2", c.Attempted(), c.Failed())
	}
	c.spoil()
	if c.Failed() != 3 {
		t.Errorf("after a deferred check failed: %d failed, want 3", c.Failed())
	}
	for i := 0; i < 10; i++ {
		c.spoil()
	}
	if c.Failed() > c.Attempted() {
		t.Errorf("%d failed of %d attempted", c.Failed(), c.Attempted())
	}
}

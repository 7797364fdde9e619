package tmath

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestMulDivSmall(t *testing.T) {
	cases := []struct{ a, b, den, want int64 }{
		{0, 0, 1, 0},
		{10, 3, 4, 7},
		{100, 99, 100, 99},
		{7, 7, 49, 1},
		{1 << 40, 1 << 20, 1 << 10, 1 << 50},
	}
	for _, c := range cases {
		if got := MulDiv(c.a, c.b, c.den); got != c.want {
			t.Errorf("MulDiv(%d, %d, %d) = %d, want %d", c.a, c.b, c.den, got, c.want)
		}
	}
}

// TestMulDivExtreme covers products beyond 2^63, where the naive
// a*b/den expression silently wraps.
func TestMulDivExtreme(t *testing.T) {
	span := int64(math.MaxInt64/2 + 12345)
	width := int64(1920)
	for _, x := range []int64{0, 1, 31, 32, 960, 1919, 1920} {
		want := new(big.Int).Mul(big.NewInt(span), big.NewInt(x))
		want.Div(want, big.NewInt(width))
		if got := MulDiv(span, x, width); got != want.Int64() {
			t.Errorf("MulDiv(%d, %d, %d) = %d, want %s", span, x, width, got, want)
		}
		// The naive expression must actually differ somewhere, or this
		// test proves nothing about the fix.
		if x == 1919 && span*x/width == want.Int64() {
			t.Error("naive arithmetic unexpectedly exact — extreme case too tame")
		}
	}
}

func TestMulDivRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		den := rng.Int63n(1<<20) + 1
		b := rng.Int63n(den + 1) // b <= den keeps the quotient <= a
		a := rng.Int63()
		want := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		want.Div(want, big.NewInt(den))
		if got := MulDiv(a, b, den); got != want.Int64() {
			t.Fatalf("MulDiv(%d, %d, %d) = %d, want %s", a, b, den, got, want)
		}
	}
}

func TestSatAddSub(t *testing.T) {
	const max, min = int64(math.MaxInt64), int64(math.MinInt64)
	addCases := []struct{ a, b, want int64 }{
		{0, 0, 0},
		{1, 2, 3},
		{-5, 3, -2},
		{max, 1, max},
		{max, max, max},
		{max - 1, 1, max},
		{min, -1, min},
		{min, min, min},
		{min + 1, -1, min},
		{max, min, -1},
		{min, max, -1},
	}
	for _, c := range addCases {
		if got := SatAdd(c.a, c.b); got != c.want {
			t.Errorf("SatAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	subCases := []struct{ a, b, want int64 }{
		{0, 0, 0},
		{3, 2, 1},
		{2, 3, -1},
		{max, -1, max},
		{max, min, max},
		{min, 1, min},
		{min, max, min},
		{0, min, max},  // -MinInt64 is not representable
		{-1, min, max}, // exactly representable: -1 - min == max
		{max, max, 0},
		{min, min, 0},
	}
	for _, c := range subCases {
		if got := SatSub(c.a, c.b); got != c.want {
			t.Errorf("SatSub(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestSatRandomized checks both helpers against big.Int arithmetic.
func TestSatRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clamp := func(v *big.Int) int64 {
		if v.IsInt64() {
			return v.Int64()
		}
		if v.Sign() > 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	for i := 0; i < 20000; i++ {
		a := rng.Uint64()
		b := rng.Uint64()
		x, y := int64(a), int64(b)
		sum := new(big.Int).Add(big.NewInt(x), big.NewInt(y))
		if got, want := SatAdd(x, y), clamp(sum); got != want {
			t.Fatalf("SatAdd(%d, %d) = %d, want %d", x, y, got, want)
		}
		diff := new(big.Int).Sub(big.NewInt(x), big.NewInt(y))
		if got, want := SatSub(x, y), clamp(diff); got != want {
			t.Fatalf("SatSub(%d, %d) = %d, want %d", x, y, got, want)
		}
	}
}

func TestMulDivPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("negative a", func() { MulDiv(-1, 2, 3) })
	mustPanic("negative b", func() { MulDiv(1, -2, 3) })
	mustPanic("zero den", func() { MulDiv(1, 2, 0) })
}

// TestColumns: Window's columns start where the plot does and end where
// it ends, never empty; LastBy inverts Window; and a Cursor asked about
// columns in any order — the next one, a jump forward, a step back —
// answers what Window does. Plots are narrower and wider than their
// span in cycles (whose columns widen and overlap), near both ends of
// int64 and as wide as an int64 span gets.
func TestColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		span := rng.Int63n(5000) + 1
		switch round % 4 {
		case 1:
			span = rng.Int63n(math.MaxInt64/2) + 1
		case 2:
			span = math.MaxInt64 - rng.Int63n(3)
		}
		start := min([]int64{0, math.MinInt64, math.MaxInt64, rng.Int63n(1 << 40)}[rng.Intn(4)], math.MaxInt64-span)
		c := Columns{Start: start, End: start + span, W: 1 + rng.Intn(4000)}
		if t0, _ := c.Window(0); t0 != c.Start {
			t.Fatalf("%+v: column 0 starts at %d", c, t0)
		}
		if _, t1 := c.Window(c.W - 1); t1 != c.End {
			t.Fatalf("%+v: the last column ends at %d", c, t1)
		}
		k := c.Cursor()
		for q, x := 0, 0; q < 200; q++ {
			switch rng.Intn(4) {
			case 0:
				x = rng.Intn(c.W)
			case 1:
				x = max(x-1, 0)
			default:
				x = min(x+1, c.W-1)
			}
			t0, t1 := c.Window(x)
			if k0, k1 := k.Window(x); k0 != t0 || k1 != t1 || t1 <= t0 {
				t.Fatalf("%+v: column %d is [%d, %d), the cursor says [%d, %d)", c, x, t0, t1, k0, k1)
			}
			// The last column ending by until, and the first not to.
			until := SatAdd(t1, rng.Int63n(3)-1)
			last := c.LastBy(until)
			endsBy := func(x int) bool { _, e := c.Window(x); return e <= until }
			if last >= 0 && !endsBy(last) || last+1 < c.W && endsBy(last+1) {
				t.Fatalf("%+v: LastBy(%d) = %d", c, until, last)
			}
		}
	}
}

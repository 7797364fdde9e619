package atmbench

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99}

// tailBeyond is how many samples must lie beyond a percentile for it
// to be a measurement rather than an anecdote.
const tailBeyond = 10

// rank returns the 1-based nearest-rank index of the p-th percentile
// among n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Percentile returns the nearest-rank p-th percentile of sorted
// (ascending) samples; 0 when there are none.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// TailPercentile returns the highest percentile of the ladder that
// still has at least ten of n samples beyond it; with too few samples
// for any tail it returns the median.
func TailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-rank(n, p) >= tailBeyond {
			best = p
		}
	}
	return best
}

// Median returns the median of sorted samples, averaging the middle
// pair of an even count.
func Median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf returns the median of unsorted samples.
func medianOf(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Median(s)
}

// Quartiles returns the first and third quartile of sorted samples by
// the exclusive method (the default of Python's statistics.quantiles,
// which the acceptance driver uses for run-to-run spread). Fewer than
// two samples have no spread: both quartiles equal the median.
func Quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		m := Median(sorted)
		return m, m
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based ranks: the pair (j, j+1) is
		// clamped into the data and interpolated with exact integer
		// weights, extrapolating past a clamped pair as Python does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - 4*j
		return (sorted[j-1]*float64(4-d) + sorted[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// Summary condenses one timing's samples. Tail is the TailPct-th
// percentile; Beyond is how many samples lie past it.
type Summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	Beyond  int     `json:"beyond"`
	Max     float64 `json:"max"`
}

// Summarize sorts a copy of samples and reports them at tailPct; a
// tailPct of 0 selects TailPercentile(len(samples)).
func Summarize(samples []float64, tailPct float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if tailPct == 0 {
		tailPct = TailPercentile(len(s))
	}
	q1, q3 := Quartiles(s)
	return Summary{
		N:       len(s),
		P50:     Median(s),
		Q1:      q1,
		Q3:      q3,
		Tail:    Percentile(s, tailPct),
		TailPct: tailPct,
		Beyond:  len(s) - rank(len(s), tailPct),
		Max:     s[len(s)-1],
	}
}

// opCount is the open/closed accounting of a workload's operations. An
// operation is attempted when begun; one that is begun and never
// ended — the driver gave up mid-way — counts as failed, like one
// that ended with a violated check.
type opCount struct {
	begun, ended, bad int
}

func (c *opCount) begin()      { c.begun++ }
func (c *opCount) end(ok bool) { c.ended++; c.bad += b2i(!ok) }

// spoil fails one operation that had ended well: a check deferred out
// of the measured phase found it wanting.
func (c *opCount) spoil() {
	if c.bad < c.ended {
		c.bad++
	}
}

// Attempted returns the operations begun.
func (c *opCount) Attempted() int { return c.begun }

// Failed returns the operations that ended badly or never ended.
func (c *opCount) Failed() int { return c.bad + c.begun - c.ended }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

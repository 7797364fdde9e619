// Package tmath provides overflow-safe integer arithmetic on trace
// timestamps. Trace times are CPU cycles and real traces reach well
// into the upper half of int64, so the naive pixel<->time mappings
// (span*x/width and offset*width/span) overflow 64-bit intermediates
// long before the operands themselves do; MulDiv keeps the
// intermediate product in 128 bits.
package tmath

import (
	"math"
	"math/bits"
)

// MulDiv returns a*b/den (floor division) with the product computed in
// 128 bits, so it is exact whenever the mathematical result fits in
// int64. All of a and b must be non-negative and den positive; the
// callers' mappings guarantee the quotient fits (either b <= den or
// a <= den, bounding the quotient by the other operand). Violating
// either precondition panics, like the native operators would.
func MulDiv(a, b, den int64) int64 {
	if a < 0 || b < 0 {
		panic("tmath: MulDiv operands must be non-negative")
	}
	if den <= 0 {
		panic("tmath: MulDiv divisor must be positive")
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi == 0 && lo < 1<<63 {
		// Fast path: the product fits in int64.
		return int64(lo) / den
	}
	// bits.Div64 panics on hi >= den (quotient overflow), matching
	// native overflow semantics.
	q, _ := bits.Div64(hi, lo, uint64(den))
	return int64(q)
}

// SatAdd returns a+b clamped to the int64 range. Window arithmetic on
// viewer links (zoom out, pan, "the instant after t") runs on raw
// timestamps that may already sit near MaxInt64; a wrapped sum would
// produce an inverted window the parameter layer rejects.
func SatAdd(a, b int64) int64 {
	s := a + b
	// Overflow iff both operands share a sign the sum lost.
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
		if a >= 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return s
}

// SatSub returns a-b clamped to the int64 range.
func SatSub(a, b int64) int64 {
	d := a - b
	// Overflow iff the operands differ in sign and the difference lost
	// a's sign.
	if (a >= 0) != (b >= 0) && (d >= 0) != (a >= 0) {
		if a >= 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return d
}

// Columns is a plot of W pixel columns over the time window
// [Start, End): the one column<->time mapping of the timeline, its
// counter overlay, the ASCII renderer and the dominance walk that
// answers a row of columns (internal/mragg). End-Start must fit in an
// int64 and W be positive.
type Columns struct {
	Start, End int64
	W          int
}

// Window returns the time window [t0, t1) of column x. The 128-bit
// multiply keeps it exact where span*x overflows int64, which real
// cycle-count timestamps reach; a column narrower than a cycle widens
// to one. Windows tile the plot unless columns are narrower than a
// cycle, where a widened one overlaps the next.
func (c Columns) Window(x int) (t0, t1 int64) {
	span := c.End - c.Start
	t0 = c.Start + MulDiv(span, int64(x), int64(c.W))
	t1 = c.Start + MulDiv(span, int64(x+1), int64(c.W))
	if t1 <= t0 {
		t1 = SatAdd(t0, 1)
	}
	return t0, t1
}

// Cursor yields the windows of a plot's columns: Window's, in O(1)
// and without a division for the column after the last one asked
// about. The starts of consecutive columns differ by span/W or by one
// more, and a running remainder of span·x/W tells which. A plot of one
// column may span more than 2^63-1 cycles: its window is [Start, End).
type Cursor struct {
	c    Columns
	q, r int64 // span = q·W + r
	x    int   // the column t starts
	t    int64 // the start of column x, before any widening
	acc  int64 // span·x mod W
}

// Cursor returns a cursor over c's columns.
func (c Columns) Cursor() Cursor {
	span, w := c.End-c.Start, int64(c.W)
	return Cursor{c: c, q: span / w, r: span % w, t: c.Start}
}

// LastBy is Columns.LastBy.
func (k *Cursor) LastBy(until int64) int { return k.c.LastBy(until) }

// Window returns column x's window, as Columns.Window does.
func (k *Cursor) Window(x int) (t0, t1 int64) {
	w := int64(k.c.W)
	if x != k.x {
		hi, lo := bits.Mul64(uint64(k.c.End-k.c.Start), uint64(x))
		q, rem := bits.Div64(hi, lo, uint64(w))
		k.x, k.t, k.acc = x, k.c.Start+int64(q), int64(rem)
	}
	t0 = k.t
	k.x, k.t, k.acc = x+1, k.t+k.q, k.acc+k.r
	if k.acc >= w {
		k.t, k.acc = k.t+1, k.acc-w
	}
	if t1 = k.t; t1 <= t0 {
		t1 = SatAdd(t0, 1)
	}
	return t0, t1
}

// LastBy returns the last column whose window ends at or before until,
// or -1 when not even column 0's does: the inverse of Window. until
// must lie past Start.
func (c Columns) LastBy(until int64) int {
	if until >= c.End {
		return c.W - 1
	}
	// The column until falls into. Every later one starts at or past
	// until, so it ends past it; this one or the one before is the
	// answer, and Window itself (rounding, and the widening of columns
	// narrower than a cycle) says which.
	x := int(MulDiv(until-c.Start, int64(c.W), c.End-c.Start))
	for ; x >= 0; x-- {
		if _, t1 := c.Window(x); t1 <= until {
			break
		}
	}
	return x
}

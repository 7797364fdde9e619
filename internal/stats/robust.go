package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Robust location/spread estimators used by the anomaly detectors:
// outlier scoring must not be pulled around by the very outliers it is
// supposed to find, so medians and median absolute deviations replace
// means and standard deviations (Drebes et al., "Automatic Detection
// of Performance Anomalies in Task-Parallel Programs").

// madScale converts a median absolute deviation into a standard
// deviation estimate for normally distributed data (1/Φ⁻¹(0.75)).
const madScale = 1.4826

// iqrScale converts an interquartile range into a standard deviation
// estimate for normally distributed data.
const iqrScale = 1.349

// Median returns the median of xs (0 for an empty slice). xs is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(append([]float64(nil), xs...))
}

// Quartiles returns the first and third quartile of xs using linear
// interpolation between order statistics. xs is not modified.
func Quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, 0.25), sortedQuantile(s, 0.75)
}

// MAD returns the median absolute deviation of xs around its median.
// xs is not modified.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// The deviations replace the values in the copy the median reordered:
	// a median does not depend on the order it is given its values in.
	s := append([]float64(nil), xs...)
	med := median(s)
	for i, v := range s {
		d := v - med
		if d < 0 {
			d = -d
		}
		s[i] = d
	}
	return median(s)
}

// RobustSpread estimates the standard deviation of xs resistant to
// outliers: the scaled MAD, falling back to the scaled IQR when more
// than half of the values are identical (MAD 0), and 0 only when the
// values carry no spread information at all.
func RobustSpread(xs []float64) float64 {
	if mad := MAD(xs); mad > 0 {
		return mad * madScale
	}
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / iqrScale
}

// RobustZ returns the robust z-score of v against the sample described
// by median and spread (as from Median and RobustSpread): the number
// of spread units v lies above the median. A zero spread degenerates
// to 0 when v equals the median and ±inf-like large scores otherwise
// are avoided by the caller providing a spread floor.
func RobustZ(v, median, spread float64) float64 {
	if spread <= 0 {
		return 0
	}
	return (v - median) / spread
}

// sortedQuantile returns the q-quantile (0..1) of an ascending-sorted
// non-empty slice using linear interpolation.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + (s[i+1]-s[i])*frac
}

// median returns the median of a non-empty s as sortedQuantile reads it
// off s sorted by sort.Float64s, bit for bit, reordering s: the two order
// statistics it interpolates between are found by selection, not by a
// sort. Of equal values only ±0 differ in their bits, and a median
// interpolated between zeros is +0 whichever zero comes first.
func median(s []float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := 0.5 * float64(len(s)-1)
	i := int(pos)
	nth(s, i)
	next := s[i+1]
	for _, v := range s[i+2:] {
		next = min(next, v)
	}
	return s[i] + (next-s[i])*(pos-float64(i))
}

// nth reorders s so that s[k] holds what sort.Float64s puts there, with
// nothing after it ordered before it: NaNs first, then the rest by <.
// It is a quickselect on a median-of-three pivot that sorts what is
// left once it has taken twice as many rounds as a balanced one would.
func nth(s []float64, k int) {
	nan := 0 // NaNs to the front, where sort.Float64s puts them
	for i, v := range s {
		if math.IsNaN(v) {
			s[i], s[nan] = s[nan], v
			nan++
		}
	}
	if k < nan {
		return
	}
	lo, hi := nan, len(s)-1
	for rounds := 2 * bits.Len(uint(len(s))); lo < hi; rounds-- {
		if rounds == 0 {
			sort.Float64s(s[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		p := max(min(s[lo], s[mid]), min(max(s[lo], s[mid]), s[hi]))
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i, j = i+1, j-1
			}
		}
		// s[lo:j+1] <= p <= s[i:hi+1], and what lies between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

package stats

import "sort"

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
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, 0.5)
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
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, v := range xs {
		d := v - med
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	return Median(dev)
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

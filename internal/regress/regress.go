// Package regress provides the statistics the paper computes with
// SciPy in Section V: least-squares linear regression with the
// coefficient of determination, plus means and standard deviations.
package regress

import (
	"errors"
	"math"
)

// ErrDegenerate reports that the input does not determine a fit
// (fewer than two points, or zero variance in x).
var ErrDegenerate = errors.New("regress: degenerate input")

// Fit is a least-squares line y = Slope*x + Intercept with its
// coefficient of determination.
type Fit struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit, the
	// correlation metric used in the paper's Figure 19.
	R2 float64
	N  int
}

// Linear fits a least-squares line through (xs[i], ys[i]).
func Linear(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, errors.New("regress: length mismatch")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return Fit{}, ErrDegenerate
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, ErrDegenerate
	}
	slope := sxy / sxx
	fit := Fit{Slope: slope, Intercept: my - slope*mx, N: len(xs)}
	if syy == 0 {
		// All y equal: the horizontal fit is exact.
		fit.R2 = 1
		return fit, nil
	}
	// R^2 = 1 - SS_res/SS_tot; for simple linear regression this
	// equals the squared Pearson correlation.
	fit.R2 = (sxy * sxy) / (sxx * syy)
	return fit, nil
}

// Predict evaluates the fitted line at x.
func (f Fit) Predict(x float64) float64 { return f.Slope*x + f.Intercept }

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation (0 for fewer than
// two values).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

//go:build race

package core

// raceEnabled reports whether the tests run under the race detector.
// Its instrumentation keeps the compiler from fusing slices.Grow's
// append(s, make([]E, n)...) into one allocation, so there every
// column that grows allocates twice, and the allocation pins say how
// many more that makes.
const raceEnabled = true

//go:build race

package anomaly

// raceEnabled reports whether the tests run under the race detector,
// whose instrumentation allocates beside the code the allocation pins
// count.
const raceEnabled = true

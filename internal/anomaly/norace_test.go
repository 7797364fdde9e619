//go:build !race

package anomaly

// raceEnabled reports whether the tests run under the race detector
// (race_test.go).
const raceEnabled = false

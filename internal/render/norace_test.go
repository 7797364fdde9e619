//go:build !race

package render

// raceEnabled reports whether the tests run under the race detector
// (race_test.go).
const raceEnabled = false

//go:build race

package render

// raceEnabled reports whether the tests run under the race detector.
// Its instrumentation moves some of the encoder's buffers to the heap,
// so allocation counts pinned for the plain build do not hold there.
const raceEnabled = true

// Package leakcheck is a TestMain-level goroutine-leak guard for
// packages that spawn background goroutines (live ingest's spill
// compactions, the viewer's SSE broadcasters, par's worker pools). A
// test that returns while its goroutines still run poisons every
// later test in the binary — failures surface far from their cause,
// and the race detector attributes writes to the wrong test. The
// guard snapshots runtime.NumGoroutine before the tests run, lets the
// count settle afterwards (shutdown is asynchronous), and fails the
// binary with a full stack dump when goroutines outlive the run.
//
// Wire it up per package:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// The package deliberately imports only the standard library, so even
// the lowest layers (internal/par, which internal/atmtest transitively
// depends on) can use it without an import cycle.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settleTimeout bounds how long Main waits for goroutine teardown
// (deferred Closes, context cancellations) to finish after the last
// test returns.
const settleTimeout = 5 * time.Second

// Main runs the package's tests and fails the binary if goroutines
// started during the run outlive it. Call it from TestMain.
func Main(m *testing.M) {
	os.Exit(Run(m))
}

// Run is Main without the exit, for callers that need to run their
// own teardown afterwards. It returns the exit code: the tests' own
// code if they failed, 1 if they passed but leaked.
func Run(m *testing.M) int {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code != 0 {
		// The run already failed; a leak report would only bury the
		// real failure.
		return code
	}
	if err := Check(before); err != nil {
		fmt.Fprintf(os.Stderr, "leakcheck: %v\n", err)
		return 1
	}
	return code
}

// Check waits for the goroutine count to settle back to at most
// before, and returns an error carrying a full stack dump if it does
// not. Exported for tests that want a mid-run checkpoint.
func Check(before int) error {
	return check(before, settleTimeout)
}

func check(before int, settle time.Duration) error {
	deadline := time.Now().Add(settle)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after <= before {
		return nil
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	// os/signal's dispatch loop starts on the first signal.Notify (the
	// go test -fuzz coordinator makes one) and never exits: it belongs
	// to the runtime, not to a test.
	if after-bytes.Count(buf[:n], []byte("\nos/signal.loop()")) <= before {
		return nil
	}
	return fmt.Errorf("%d goroutine(s) leaked (%d before tests, %d after)\n\n%s",
		after-before, before, after, buf[:n])
}

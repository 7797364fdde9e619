package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestCheckClean(t *testing.T) {
	if err := Check(runtime.NumGoroutine()); err != nil {
		t.Fatalf("clean state reported as leak: %v", err)
	}
}

func TestCheckSettles(t *testing.T) {
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(done)
	}()
	// The goroutine is still running here; Check must wait it out.
	if err := Check(before); err != nil {
		t.Fatalf("short-lived goroutine reported as leak: %v", err)
	}
	<-done
}

// settledCount returns the goroutine count once it has held still for
// ten consecutive millisecond reads: goroutines that are still exiting
// when a test starts — an earlier test's tRunner, or the goroutine an
// earlier -count iteration unblocked — are gone by then. Read at once,
// the count includes them, and a baseline that high hides a leak.
func settledCount() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 10; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

func TestCheckReportsLeak(t *testing.T) {
	before := settledCount()
	stop := make(chan struct{})
	defer close(stop)
	started := make(chan struct{})
	go func() {
		close(started)
		<-stop
	}()
	<-started
	err := check(before, 100*time.Millisecond)
	if err == nil {
		t.Fatal("blocked goroutine not reported")
	}
	if !strings.Contains(err.Error(), "goroutine(s) leaked") ||
		!strings.Contains(err.Error(), "TestCheckReportsLeak") {
		t.Fatalf("leak report missing count or stack: %v", err)
	}
}

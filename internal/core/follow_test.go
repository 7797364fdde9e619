package core

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/openstream/aftermath/internal/trace"
)

// follow tails the native trace at path into lv, polling every
// millisecond: FollowDecoder as the ingest layer calls it for a native
// file.
func follow(t *testing.T, lv *Live, path string) *Follower {
	t.Helper()
	rc, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := FollowDecoder(lv, path, rc, trace.NewStreamReader(rc), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFollowerTailsAppends: appended records show up as new epochs.
func TestFollowerTailsAppends(t *testing.T) {
	data := liveTestBytes(t)
	half := len(data) / 2
	path := filepath.Join(t.TempDir(), "run.atm")
	if err := os.WriteFile(path, data[:half], 0o644); err != nil {
		t.Fatal(err)
	}
	lv := NewLive()
	f := follow(t, lv, path)
	defer f.Close()
	_, before := lv.Snapshot()

	w, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data[half:]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	waitFor(t, "appended records to publish", func() bool {
		_, epoch := lv.Snapshot()
		return epoch > before
	})
	waitFor(t, "full stream consumption", func() bool {
		return f.sr.Consumed() == int64(len(data))
	})
	want, err := FromReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := lv.Snapshot()
	compareTrace(t, "followed trace", snap, want)
	if lv.Err() != nil {
		t.Fatalf("healthy follow reports error: %v", lv.Err())
	}
}

// TestFollowerDetectsTruncation is the regression test for the silent
// rotation bug: the old poll loop kept reading at its stale offset
// after the file was truncated and rewritten, decoding garbage or
// hanging quietly. The follower must surface a sticky, descriptive
// ingest error instead.
func TestFollowerDetectsTruncation(t *testing.T) {
	data := liveTestBytes(t)
	path := filepath.Join(t.TempDir(), "run.atm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lv := NewLive()
	f := follow(t, lv, path)
	defer f.Close()
	waitFor(t, "initial consumption", func() bool {
		return f.sr.Consumed() == int64(len(data))
	})

	// Rotate: truncate and start rewriting a shorter file — the classic
	// logrotate copytruncate shape.
	if err := os.WriteFile(path, data[:len(data)/4], 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "truncation error", func() bool { return lv.Err() != nil })
	msg := lv.Err().Error()
	if !strings.Contains(msg, "truncated") || !strings.Contains(msg, path) {
		t.Fatalf("truncation error not descriptive: %q", msg)
	}
	// Sticky: still reported after the file grows past the old size
	// again (the rewritten bytes are a different stream).
	big := append(append([]byte{}, data...), data...)
	if err := os.WriteFile(path, big, 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if lv.Err() == nil || !strings.Contains(lv.Err().Error(), "truncated") {
		t.Fatal("truncation error did not stick")
	}
}

// TestFollowerDetectsDeletion: the watched file disappearing surfaces
// as a sticky error too.
func TestFollowerDetectsDeletion(t *testing.T) {
	data := liveTestBytes(t)
	path := filepath.Join(t.TempDir(), "run.atm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lv := NewLive()
	f := follow(t, lv, path)
	defer f.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "deletion error", func() bool { return lv.Err() != nil })
}

// TestFollowerCloseReleasesResources is the leak check: Close must
// stop the ticker goroutine and release the file handle, and be safe
// to call twice.
func TestFollowerCloseReleasesResources(t *testing.T) {
	data := liveTestBytes(t)
	path := filepath.Join(t.TempDir(), "run.atm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	const n = 8
	followers := make([]*Follower, 0, n)
	for i := 0; i < n; i++ {
		lv := NewLive()
		lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
		followers = append(followers, follow(t, lv, path))
	}
	for _, f := range followers {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+1
	})
	// The file handles are released: on Linux the open-fd count is
	// observable directly; elsewhere the goroutine check above is the
	// signal.
	if fds, err := os.ReadDir("/proc/self/fd"); err == nil {
		for _, fd := range fds {
			target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
			if err == nil && target == path {
				t.Fatalf("trace file %s still open after Close", path)
			}
		}
	}
}

package ui

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/ingest"
)

// TestHubCloseStopsFollowers is the hub-level leak check: followers
// registered with AddCloser stop polling on Close, their file handles
// close, and the live traces' spill workers drain.
func TestHubCloseStopsFollowers(t *testing.T) {
	data := liveTraceBytes(t)
	dir := t.TempDir()
	before := runtime.NumGoroutine()

	hub := NewHub()
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, "run"+itoa(i)+".atm")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lv := core.NewLive()
		lv.SetRetention(core.RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
		f, err := ingest.Follow(lv, path, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if err := hub.Add("run"+itoa(i), lv); err != nil {
			t.Fatal(err)
		}
		hub.AddCloser(f)
	}
	// The hub serves while the followers poll.
	srv := httptest.NewServer(hub)
	if resp, body := get(t, srv, "/t/run0/live"); resp.StatusCode != 200 {
		t.Fatalf("/live status %d: %s", resp.StatusCode, body)
	}
	srv.Close()

	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after hub Close: %d before, %d after", before, runtime.NumGoroutine())
}

// TestLiveSpillStatusOnLive: /live reports the spill state of a
// retention-enabled live trace.
func TestLiveSpillStatusOnLive(t *testing.T) {
	data := liveTraceBytes(t)
	path := filepath.Join(t.TempDir(), "run.atm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lv := core.NewLive()
	lv.SetRetention(core.RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	f, err := ingest.Follow(lv, path, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Wait for the initial feed's compaction, then one extra publish
	// so the spill is visible in the served snapshot.
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	lv.Publish()

	srv := httptest.NewServer(NewServer(lv, "run"))
	defer srv.Close()
	resp := getLive(t, srv)
	if !resp.Live {
		t.Fatal("live trace reported as batch")
	}
	if resp.Spill == nil || resp.Spill.Segments == 0 {
		t.Fatalf("/live does not report spill state: %+v", resp.Spill)
	}
	if resp.Spill.Error != "" {
		t.Fatalf("spill error: %s", resp.Spill.Error)
	}
	if resp.Events == 0 || resp.Samples == 0 {
		t.Fatalf("/live totals dropped spilled columns: events %d samples %d", resp.Events, resp.Samples)
	}
}

package core

import (
	"context"
	"testing"
	"time"

	"github.com/openstream/aftermath/internal/trace"
)

// recvEvent reads one event with a deadline, failing the test on
// timeout or channel close.
func recvEvent(t *testing.T, ch <-chan TraceEvent) TraceEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("watch channel closed unexpectedly")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a trace event")
	}
	panic("unreachable")
}

// TestWatchDelivers: every publish wakes a keeping-up subscriber with
// the new epoch.
func TestWatchDelivers(t *testing.T) {
	lv := NewLive()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := lv.Watch(ctx)
	for want := uint64(1); want <= 3; want++ {
		publish(t, lv, spillBatch(2, 10, int64(want)*10000))
		ev := recvEvent(t, ch)
		if ev.Epoch != want {
			t.Fatalf("event epoch = %d, want %d", ev.Epoch, want)
		}
		if ev.Err != nil {
			t.Fatalf("unexpected event error: %v", ev.Err)
		}
	}
}

// TestWatchCoalescing: a subscriber that does not read while many
// epochs publish wakes to exactly ONE event describing the latest
// epoch — never a backlog of stale ones. And the producer never waits
// on a subscriber: beside one that never reads at all, every publish
// returns.
func TestWatchCoalescing(t *testing.T) {
	lv := NewLive()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := lv.Watch(ctx)
	lv.Watch(ctx) // never read
	const rounds = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := lv.Append(spillBatch(2, 5, int64(i)*10000)); err != nil {
				done <- err
				return
			}
			lv.Publish()
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%d publishes beside a subscriber that never reads did not return within 10s", rounds)
	}
	ev := recvEvent(t, ch)
	if ev.Epoch != rounds {
		t.Fatalf("coalesced event epoch = %d, want %d (the latest)", ev.Epoch, rounds)
	}
	// Nothing published since the drain: the channel must be empty, or
	// the consumer would replay stale epochs.
	select {
	case stale := <-ch:
		t.Fatalf("second event %+v after coalescing drain, want none", stale)
	default:
	}
}

// TestWatchError: the first sticky ingest error is pushed, and the
// sticky error rides along on later epoch events.
func TestWatchError(t *testing.T) {
	lv := NewLive()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := lv.Watch(ctx)
	bad := &trace.RecordBatch{States: []trace.StateEvent{{CPU: -1}}}
	if err := lv.Append(bad); err == nil {
		t.Fatal("append of an implausible CPU id did not fail")
	}
	ev := recvEvent(t, ch)
	if ev.Err == nil {
		t.Fatalf("error event carries no error: %+v", ev)
	}
	publish(t, lv, spillBatch(1, 5, 0))
	ev = recvEvent(t, ch)
	if ev.Epoch != 1 || ev.Err == nil {
		t.Fatalf("post-error epoch event = %+v, want epoch 1 with the sticky error", ev)
	}
}

// TestWatchCancel: cancelling the context closes the channel and
// unregisters the watcher (later publishes do not block or panic).
func TestWatchCancel(t *testing.T) {
	lv := NewLive()
	ctx, cancel := context.WithCancel(context.Background())
	ch := lv.Watch(ctx)
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				publish(t, lv, spillBatch(1, 5, 0)) // must not panic
				return
			}
		case <-deadline:
			t.Fatal("watch channel not closed after context cancel")
		}
	}
}

// TestWatchSpillChanged: a background compaction pushes a spill event,
// and once Close has waited for it Live.SpillStats reflects the
// post-compaction state.
func TestWatchSpillChanged(t *testing.T) {
	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := lv.Watch(ctx)
	publishSettled(t, lv, spillBatch(2, 50, 0))
	ev := recvEvent(t, ch)
	if !ev.SpillChanged {
		t.Fatalf("event after a spill = %+v, want SpillChanged", ev)
	}
	st, ok := lv.SpillStats()
	if !ok || st.Segments == 0 {
		t.Fatalf("Live.SpillStats = (%+v, %v), want spilled segments", st, ok)
	}
	if st.Pending != 0 {
		t.Fatalf("compaction left %d pending segments after Close", st.Pending)
	}
}

// TestWatchConcurrent exercises notify vs. subscribe/cancel vs. a slow
// reader under the race detector.
func TestWatchConcurrent(t *testing.T) {
	lv := NewLive()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			publish(t, lv, spillBatch(2, 5, int64(i)*10000))
		}
	}()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ch := lv.Watch(ctx)
		select {
		case <-ch:
		case <-time.After(time.Millisecond):
		}
		cancel()
	}
	<-done
	// A final publish must still deliver to a fresh watcher.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := lv.Watch(ctx)
	publish(t, lv, spillBatch(2, 5, 20*10000))
	if ev := recvEvent(t, ch); ev.Epoch != 21 {
		t.Fatalf("final publish delivered epoch %d, want 21", ev.Epoch)
	}
}

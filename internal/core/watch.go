// Push notifications: the subscription side of a live trace. Viewers
// used to poll /live to discover new epochs; Watch turns the
// dependency around — every Publish (and every sticky ingest error or
// background spill compaction) wakes the subscribers, so a serving
// layer can hold an SSE stream open and push "epoch advanced" the
// moment it happens.
//
// Delivery contract: each watcher owns a one-slot channel. When the
// consumer keeps up, it sees every event; when it falls behind, newer
// events merge into the pending one (greatest epoch, sticky error,
// OR of the spill flag), so a slow consumer wakes to exactly one
// event describing the latest state instead of a backlog of stale
// epochs. Notification never blocks the publisher.
package core

import (
	"context"
	"sync"
)

// TraceEvent is one push notification from a live trace: the epoch
// current at notification time, the sticky ingest error (if any), and
// whether the spill/retention state changed without a publish (a
// background segment compaction finished or failed).
type TraceEvent struct {
	// Epoch is the published epoch as of the notification.
	Epoch uint64
	// Err is the sticky ingest error, nil while ingest is healthy.
	Err error
	// SpillChanged reports a spill-state change (compaction installed,
	// compaction failed) that did not come with a new epoch.
	SpillChanged bool
}

// merge folds a newer event into a pending undelivered one: the
// consumer wakes to the latest epoch, keeps the sticky error, and
// still learns that the spill state moved at some point.
func (e *TraceEvent) merge(n TraceEvent) {
	if n.Epoch > e.Epoch {
		e.Epoch = n.Epoch
	}
	if e.Err == nil {
		e.Err = n.Err
	}
	e.SpillChanged = e.SpillChanged || n.SpillChanged
}

// watcher is one subscription; ch has capacity 1 (the drop-to-latest
// buffer).
type watcher struct {
	ch chan TraceEvent
}

// watchState holds a Live's subscriber set. Its lock is a leaf: notify
// runs under it and may itself be called with or without Live.mu held
// (publish vs. noteErr), so nothing under watchMu may take Live.mu.
type watchState struct {
	mu       sync.Mutex
	watchers map[*watcher]struct{}
}

// Watch subscribes to the live trace's push notifications: epoch
// advances, the first sticky ingest error, and spill-state changes.
// The returned channel has capacity one and coalesces under a slow
// consumer (see TraceEvent.merge); it is closed when ctx is done.
// Subscribers needing the state current at subscription time should
// read Snapshot/Err themselves — Watch only delivers changes after it.
func (lv *Live) Watch(ctx context.Context) <-chan TraceEvent {
	w := &watcher{ch: make(chan TraceEvent, 1)}
	lv.watch.mu.Lock()
	if lv.watch.watchers == nil {
		lv.watch.watchers = make(map[*watcher]struct{})
	}
	lv.watch.watchers[w] = struct{}{}
	lv.watch.mu.Unlock()
	go func() {
		<-ctx.Done()
		lv.watch.mu.Lock()
		delete(lv.watch.watchers, w)
		// Close under the lock: notify sends only under the same lock,
		// so it can never race a send against this close.
		close(w.ch)
		lv.watch.mu.Unlock()
	}()
	return w.ch
}

// notifyWatchers delivers ev to every subscriber, never blocking: a
// full one-slot buffer is drained and merged, so the pending event a
// slow consumer eventually reads describes the latest state. Safe to
// call with or without Live.mu held.
func (lv *Live) notifyWatchers(ev TraceEvent) {
	lv.watch.mu.Lock()
	for w := range lv.watch.watchers {
		e := ev
		for {
			select {
			case w.ch <- e:
			default:
				// Buffer full: merge the undelivered event into ours and
				// retry. Only notifyWatchers sends (under this lock), so
				// after the drain the next send attempt must succeed.
				select {
				case old := <-w.ch:
					old.merge(e)
					e = old
				default:
				}
				continue
			}
			break
		}
	}
	lv.watch.mu.Unlock()
}

// SpillStats reports the live trace's CURRENT spill/retention state —
// including background compactions that finished after the last
// publish, which the published snapshot's own SpillStats cannot see.
// ok is false while nothing has spilled.
func (lv *Live) SpillStats() (SpillStats, bool) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if lv.spill == nil {
		return SpillStats{}, false
	}
	return lv.spill.stats(), true
}

package openstream

import (
	"container/heap"
	"math/rand"
)

// simulator is the deterministic discrete-event kernel the runtime
// simulation runs on: a virtual clock in CPU cycles, an event queue and
// a seeded random number generator. Determinism matters for
// reproducibility: two runs with the same seed produce byte-identical
// traces, which the test suite relies on. It is not safe for concurrent
// use; the simulated world is single-threaded by design.
type simulator struct {
	clock  int64
	events eventHeap
	seq    uint64
	rng    *rand.Rand
}

// event is a scheduled callback.
type event struct {
	at  int64
	seq uint64 // tie-break: FIFO among events at the same instant
	fn  func()
}

// eventHeap is a min-heap ordered by (at, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return ev
}

// newSimulator returns a simulator at time 0 with a deterministic RNG
// seeded with seed.
func newSimulator(seed int64) *simulator {
	return &simulator{rng: rand.New(rand.NewSource(seed))}
}

// now returns the current virtual time.
func (s *simulator) now() int64 { return s.clock }

// at schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (s *simulator) at(t int64, fn func()) {
	if t < s.clock {
		panic("sim: scheduling event in the past")
	}
	s.seq++
	heap.Push(&s.events, event{at: t, seq: s.seq, fn: fn})
}

// after schedules fn to run d cycles from now.
func (s *simulator) after(d int64, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	s.at(s.clock+d, fn)
}

// step dispatches the next event and returns true, or returns false if
// the queue is empty.
func (s *simulator) step() bool {
	if len(s.events) == 0 {
		return false
	}
	ev := heap.Pop(&s.events).(event)
	s.clock = ev.at
	ev.fn()
	return true
}

// run dispatches events until the queue is empty and returns the final
// virtual time.
func (s *simulator) run() int64 {
	for s.step() {
	}
	return s.clock
}

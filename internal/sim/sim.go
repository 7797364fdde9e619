// Package sim provides a deterministic discrete-event simulation
// kernel: a virtual clock, an event queue and a seeded random number
// generator.
//
// The OpenStream runtime simulator (internal/openstream) is built on
// this kernel. Determinism matters for reproducibility: two runs with
// the same seed produce byte-identical traces, which the test suite
// relies on.
package sim

import (
	"container/heap"
	"math/rand"
)

// Time is a point in virtual time, in CPU cycles.
type Time = int64

// event is a scheduled callback.
type event struct {
	at  Time
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
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return ev
}

// Simulator is a discrete-event simulator. It is not safe for
// concurrent use; the simulated world is single-threaded by design.
type Simulator struct {
	now    Time
	events eventHeap
	seq    uint64
	rng    *rand.Rand
}

// New returns a Simulator at time 0 with a deterministic RNG seeded
// with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random number generator.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		panic("sim: scheduling event in the past")
	}
	s.seq++
	heap.Push(&s.events, event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d cycles from now.
func (s *Simulator) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	s.At(s.now+d, fn)
}

// Step dispatches the next event and returns true, or returns false if
// the queue is empty.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	ev := heap.Pop(&s.events).(event)
	s.now = ev.at
	ev.fn()
	return true
}

// Run dispatches events until the queue is empty and returns the final
// virtual time.
func (s *Simulator) Run() Time {
	for s.Step() {
	}
	return s.now
}

package openstream

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrder(t *testing.T) {
	s := newSimulator(1)
	var got []int
	s.at(30, func() { got = append(got, 3) })
	s.at(10, func() { got = append(got, 1) })
	s.at(20, func() { got = append(got, 2) })
	if end := s.run(); end != 30 {
		t.Errorf("final time = %d, want 30", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", got)
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	s := newSimulator(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.at(5, func() { got = append(got, i) })
	}
	s.run()
	if !sort.IntsAreSorted(got) {
		t.Error("events at the same instant must dispatch in scheduling order")
	}
}

func TestAfterAndNow(t *testing.T) {
	s := newSimulator(1)
	var at int64
	s.after(100, func() {
		at = s.now()
		s.after(50, func() { at = s.now() })
	})
	s.run()
	if at != 150 {
		t.Errorf("nested After ended at %d, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := newSimulator(1)
	s.at(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for past scheduling")
			}
		}()
		s.at(50, func() {})
	})
	s.run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative delay")
		}
	}()
	newSimulator(1).after(-1, func() {})
}

func TestSimulatorDeterminism(t *testing.T) {
	run := func() []int64 {
		s := newSimulator(42)
		var trace []int64
		var step func()
		step = func() {
			trace = append(trace, s.now())
			if len(trace) < 50 {
				s.after(int64(s.rng.Intn(100)+1), step)
			}
		}
		s.at(0, step)
		s.run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %d != %d", i, a[i], b[i])
		}
	}
}

// Property: regardless of insertion order, events dispatch in
// non-decreasing time order.
func TestDispatchOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := newSimulator(7)
		var seen []int64
		for _, d := range delays {
			s.at(int64(d), func() { seen = append(seen, s.now()) })
		}
		s.run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	if end := s.Run(); end != 30 {
		t.Errorf("final time = %d, want 30", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", got)
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(got) {
		t.Error("events at the same instant must dispatch in scheduling order")
	}
}

func TestAfterAndNow(t *testing.T) {
	s := New(1)
	var at Time
	s.After(100, func() {
		at = s.Now()
		s.After(50, func() { at = s.Now() })
	})
	s.Run()
	if at != 150 {
		t.Errorf("nested After ended at %d, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for past scheduling")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative delay")
		}
	}()
	New(1).After(-1, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var trace []int64
		var step func()
		step = func() {
			trace = append(trace, s.Now())
			if len(trace) < 50 {
				s.After(int64(s.Rand().Intn(100)+1), step)
			}
		}
		s.At(0, step)
		s.Run()
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
		s := New(7)
		var seen []Time
		for _, d := range delays {
			s.At(int64(d), func() { seen = append(seen, s.Now()) })
		}
		s.Run()
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

package atmbench

import (
	"math"
	"testing"
	"time"
)

// refAt builds a probe log without running the kernel: one probe every
// 100 ms from 0, each taking refNominalMs times its factor.
func refAt(factors ...float64) *speedRef {
	r := &speedRef{}
	for i, f := range factors {
		r.at = append(r.at, time.Duration(i)*100*time.Millisecond)
		r.ms = append(r.ms, refNominalMs*f)
	}
	return r
}

func TestSlowdownWindow(t *testing.T) {
	// 3 s quiet, then 3 s at 1.5x: probes 0..29 quiet, 30..59 slow.
	var f []float64
	for i := 0; i < 60; i++ {
		f = append(f, 1+0.5*float64(i/30))
	}
	r := refAt(f...)
	at := func(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }
	for _, c := range []struct {
		from, to, want float64
	}{
		{1.0, 1.0, 1},     // ±1 s around 1 s: all quiet
		{4.5, 4.5, 1.5},   // all slow
		{0.5, 5.5, 1.25},  // the whole log: half and half, median between
		{2.9, 2.9, 1},     // 20 probes either side, one more quiet than slow
		{-9, -8, 1},       // before every probe: the three nearest
		{20, 21, 1.5},     // after every probe: the three nearest
		{3.2, 3.2, 1.5},   // mostly slow
		{5.85, 5.95, 1.5}, // fewer after than before, still only slow ones
	} {
		if got := r.slowdown(at(c.from), at(c.to)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("slowdown(%v s, %v s) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := (&speedRef{}).slowdown(0, time.Second); got != 1 {
		t.Errorf("slowdown without probes = %v, want 1", got)
	}
	// One probe is better than none.
	if got := refAt(2).slowdown(at(7), at(8)); got != 2 {
		t.Errorf("slowdown with one probe = %v, want 2", got)
	}
}

// A timing taken while the machine ran 1.5x slow reads the same, at
// reference speed, as the same work timed while it was quiet; an
// outlying probe does not move it.
func TestNormalized(t *testing.T) {
	f := make([]float64, 60)
	for i := range f {
		f[i] = 1
		if i >= 30 {
			f[i] = 1.5
		}
	}
	f[10], f[45] = 9, 9 // two probes hit by a hiccup
	r := refAt(f...)
	series := timed{
		ms: []float64{20, 30, 200, 300},
		at: []time.Duration{1500 * time.Millisecond, 4500 * time.Millisecond, 1200 * time.Millisecond, 4800 * time.Millisecond},
	}
	got := r.normalized(series)
	for i, want := range []float64{20, 20, 200, 200} {
		if math.Abs(got[i]-want) > 1e-9 {
			t.Errorf("normalized[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// The kernel is deterministic work: it must log what it ran, count its
// own allocations, and give the heap back.
func TestSpeedRefKernel(t *testing.T) {
	r := newSpeedRef()
	if r.mallocs <= 0 {
		t.Errorf("a probe allocates %v objects: the JSON decode alone makes hundreds", r.mallocs)
	}
	r.last = stamp() - refEvery
	r.tick()
	r.tick() // too soon after the first: no second probe
	if len(r.ms) != 1 || len(r.at) != 1 || !(r.ms[0] > 0) {
		t.Fatalf("after one due tick: %d probes %v", len(r.ms), r.ms)
	}
	if got, want := r.allocated(), r.mallocs; got != want {
		t.Errorf("allocated() = %v after one probe of %v", got, want)
	}
	r.release()
	if r.table != nil || r.img != nil || r.doc != nil {
		t.Error("release kept the kernel's data")
	}
	if s := r.slowdown(0, stamp()); !(s > 0) {
		t.Errorf("slowdown after release = %v", s)
	}
}

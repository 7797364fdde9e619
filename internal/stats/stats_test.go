package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/openstream"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1.5, 1.6, 2.5, 9.5}, 10, 0, 10)
	if h.Total != 5 {
		t.Errorf("total = %d", h.Total)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[2] != 1 || h.Counts[9] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if f := h.Fraction(1); math.Abs(f-0.4) > 1e-12 {
		t.Errorf("fraction = %v", f)
	}
	if c := h.BinCenter(0); math.Abs(c-0.5) > 1e-12 {
		t.Errorf("bin center = %v", c)
	}
}

func TestHistogramOutOfRangeAndAuto(t *testing.T) {
	h := NewHistogram([]float64{-5, 5, 15}, 10, 0, 10)
	if h.Under != 1 || h.Over != 1 {
		t.Errorf("under/over = %d/%d", h.Under, h.Over)
	}
	// Auto range adapts to the data.
	h = NewHistogram([]float64{2, 4, 6}, 4, 0, 0)
	if h.Min != 2 || h.Max != 6 {
		t.Errorf("auto range = [%v,%v]", h.Min, h.Max)
	}
	if h.Under != 0 || h.Over != 0 {
		t.Error("auto range must cover all values")
	}
	// Max value lands in the last bin, not Over.
	if h.Counts[3] != 1 {
		t.Errorf("max value bin: %v", h.Counts)
	}
	// Degenerate data.
	h = NewHistogram([]float64{3, 3, 3}, 4, 0, 0)
	if h.Total != 3 || h.Under+h.Over != 0 {
		t.Errorf("degenerate histogram: %+v", h)
	}
}

// Property: histogram conserves the number of values.
func TestHistogramConservation(t *testing.T) {
	f := func(vals []float64, bins uint8) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		h := NewHistogram(clean, int(bins%20)+1, 0, 0)
		sum := h.Under + h.Over
		for _, c := range h.Counts {
			sum += c
		}
		return sum == len(clean) && h.Total == len(clean)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramPeaks(t *testing.T) {
	h := &Histogram{Min: 0, Max: 10, Counts: []int{1, 5, 1, 1, 7, 1, 0, 3}, Total: 19}
	peaks := h.Peaks(2)
	if len(peaks) != 3 || peaks[0] != 1 || peaks[1] != 4 || peaks[2] != 7 {
		t.Errorf("peaks = %v, want [1 4 7]", peaks)
	}
	if got := h.Peaks(6); len(got) != 1 || got[0] != 4 {
		t.Errorf("peaks(6) = %v", got)
	}
}

func TestStateTimesBounded(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 2, openstream.SchedRandom)
	st := StateTimes(tr, tr.Span.Start, tr.Span.End)
	var total int64
	for _, v := range st {
		if v < 0 {
			t.Fatal("negative state time")
		}
		total += v
	}
	limit := tr.Span.Duration() * int64(tr.NumCPUs())
	if total > limit {
		t.Errorf("state total %d exceeds cpus*span %d", total, limit)
	}
	if st[0] == 0 {
		t.Error("no idle time found")
	}
}

func TestDurationHistogramFiltered(t *testing.T) {
	tr := atmtest.KMeansTrace(t, 8, 1000, 3, false)
	dist := filter.ByTypeNames(tr, apps.KMeansDistanceType)
	h := NewHistogram(filter.Durations(tr, dist), 20, 0, 0)
	if h.Total == 0 {
		t.Fatal("no tasks binned")
	}
	all := NewHistogram(filter.Durations(tr, nil), 20, 0, 0)
	if all.Total <= h.Total {
		t.Errorf("unfiltered histogram (%d) not larger than filtered (%d)", all.Total, h.Total)
	}
}

// The communication matrix of a NUMA-aware run must be more diagonal
// than a random-stealing run (the Figure 15 contrast).
func TestCommMatrixLocalityContrast(t *testing.T) {
	rnd := atmtest.SeidelTrace(t, 6, 4, openstream.SchedRandom)
	numa := atmtest.SeidelTrace(t, 6, 4, openstream.SchedNUMA)
	mr := CommMatrixOf(rnd, ReadsAndWrites, rnd.Span.Start, rnd.Span.End+1)
	mn := CommMatrixOf(numa, ReadsAndWrites, numa.Span.Start, numa.Span.End+1)
	if mr.Total() == 0 || mn.Total() == 0 {
		t.Fatal("empty communication matrix")
	}
	fr, fn := mr.LocalFraction(), mn.LocalFraction()
	if fn <= fr {
		t.Errorf("NUMA-aware locality %.3f not above random %.3f", fn, fr)
	}
	if fn < 0.5 {
		t.Errorf("NUMA-aware locality %.3f below 0.5", fn)
	}
}

func TestCommMatrixKinds(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 2, openstream.SchedRandom)
	r := CommMatrixOf(tr, Reads, tr.Span.Start, tr.Span.End+1)
	w := CommMatrixOf(tr, Writes, tr.Span.Start, tr.Span.End+1)
	both := CommMatrixOf(tr, ReadsAndWrites, tr.Span.Start, tr.Span.End+1)
	if r.Total()+w.Total() != both.Total() {
		t.Errorf("reads %d + writes %d != both %d", r.Total(), w.Total(), both.Total())
	}
	if r.Total() == 0 || w.Total() == 0 {
		t.Error("expected both read and write traffic")
	}
	if both.MaxCell() <= 0 {
		t.Error("max cell must be positive")
	}
}

func TestLocalityFraction(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 2, openstream.SchedNUMA)
	f := LocalityFraction(tr, ReadsAndWrites, tr.Span.Start, tr.Span.End+1)
	if f < 0 || f > 1 {
		t.Errorf("locality fraction %v outside [0,1]", f)
	}
}

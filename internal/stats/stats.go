// Package stats implements Aftermath's statistical views (paper
// Section II-A, interface group 2): task duration histograms, average
// parallelism, per-state time aggregation, and the NUMA communication
// incidence matrix of Figure 15.
package stats

import (
	"math"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/trace"
)

// Histogram is a fixed-range histogram over float64 values.
type Histogram struct {
	Min, Max float64
	Counts   []int
	Total    int
	// Under and Over count values outside [Min, Max].
	Under, Over int
}

// NewHistogram bins values into `bins` equal-width bins over
// [min, max]. If min == max, the range is derived from the data.
func NewHistogram(values []float64, bins int, min, max float64) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if min == max {
		for i, v := range values {
			if i == 0 || v < min {
				min = v
			}
			if i == 0 || v > max {
				max = v
			}
		}
		if min == max {
			max = min + 1
		}
	}
	h := &Histogram{Min: min, Max: max, Counts: make([]int, bins)}
	width := (max - min) / float64(bins)
	for _, v := range values {
		switch {
		case v < min:
			h.Under++
		case v > max:
			h.Over++
		default:
			f := (v - min) / width
			i := int(f)
			if math.IsNaN(f) || i < 0 {
				i = 0
			}
			if i >= bins {
				i = bins - 1
			}
			h.Counts[i]++
		}
		h.Total++
	}
	return h
}

// Fraction returns the fraction of all values in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + w*(float64(i)+0.5)
}

// Peaks returns the indexes of local maxima with count above minCount.
func (h *Histogram) Peaks(minCount int) []int {
	var peaks []int
	for i, c := range h.Counts {
		if c < minCount {
			continue
		}
		left := 0
		if i > 0 {
			left = h.Counts[i-1]
		}
		right := 0
		if i+1 < len(h.Counts) {
			right = h.Counts[i+1]
		}
		if c >= left && c > right || c > left && c >= right {
			peaks = append(peaks, i)
		}
	}
	return peaks
}

// StateTimes aggregates the time spent in each worker state across all
// CPUs over [t0, t1): per CPU and state, the sum of the intervals'
// clipped covers, which one core.DomCPU.StateTimes call per CPU answers
// for every state — one sweep over a narrow window's events, the
// states' prefix sums over a wider one (a scan on a CPU it could not
// index) — so the cost follows the CPU count, not the events in the
// window.
func StateTimes(tr *core.Trace, t0, t1 trace.Time) []trace.Time {
	out := new([trace.NumWorkerStates]trace.Time)
	if t1 <= t0 {
		return out[:]
	}
	dom := tr.DomIndex()
	for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
		dom.CPU(tr, cpu).StateTimes(t0, t1, out)
	}
	return out[:]
}

// CommMatrix is the NUMA communication incidence matrix (Figure 15):
// Bytes[accessor*N+home] accumulates the bytes moved between the
// accessing worker's node and the node holding the data.
type CommMatrix struct {
	N     int
	Bytes []int64
}

// At returns the bytes between accessor node a and home node h.
func (m *CommMatrix) At(a, h int) int64 { return m.Bytes[a*m.N+h] }

// Total returns all accounted bytes.
func (m *CommMatrix) Total() int64 {
	var s int64
	for _, b := range m.Bytes {
		s += b
	}
	return s
}

// LocalFraction returns the fraction of bytes on the diagonal — the
// instantly readable signature of good locality in Figure 15b.
func (m *CommMatrix) LocalFraction() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	var d int64
	for i := 0; i < m.N; i++ {
		d += m.At(i, i)
	}
	return float64(d) / float64(t)
}

// MaxCell returns the largest cell value.
func (m *CommMatrix) MaxCell() int64 {
	var mx int64
	for _, b := range m.Bytes {
		if b > mx {
			mx = b
		}
	}
	return mx
}

// CommKinds selects which access kinds enter a locality statistic.
type CommKinds int

const (
	// Reads selects read accesses.
	Reads CommKinds = 1 << iota
	// Writes selects write accesses.
	Writes
	// ReadsAndWrites selects both.
	ReadsAndWrites = Reads | Writes
)

// CommMatrixOf accumulates the communication matrix over [t0, t1).
// The home node of each access is its address's region's (Section
// VI-A); accesses to unknown regions are skipped. Per CPU the bytes per
// home node come from core.HomeBytes. On a loaded trace it reads them
// off checkpointed prefix sums and walks only the accesses at the
// window's two edges, reading their homes off the trace's home-node
// column, so the cost follows the CPU count, not the accesses in the
// window, and no access is searched in the region table twice. On a
// live snapshot it searches the region table for every access of the
// window.
func CommMatrixOf(tr *core.Trace, kinds CommKinds, t0, t1 trace.Time) *CommMatrix {
	return commMatrixOf(tr, kinds, t0, t1, par.Workers())
}

func commMatrixOf(tr *core.Trace, kinds CommKinds, t0, t1 trace.Time, workers int) *CommMatrix {
	n := tr.NumNodes()
	m := &CommMatrix{N: n, Bytes: make([]int64, n*n)}
	// Per-CPU communication windows are independent: fill one row of
	// bytes per (read | write, home node) per CPU in parallel, then add
	// each to its accessor's matrix row (integer adds, so the merge order
	// cannot change the result).
	nCPU, w := tr.NumCPUs(), 2*n
	rows := make([]int64, nCPU*w)
	par.Do(workers, nCPU, func(c int) {
		tr.HomeBytes(int32(c), t0, t1, rows[c*w:(c+1)*w])
	})
	for c := 0; c < nCPU; c++ {
		accessor := int(tr.NodeOfCPU(int32(c)))
		if accessor >= n {
			continue
		}
		row, cells := rows[c*w:(c+1)*w], m.Bytes[accessor*n:(accessor+1)*n]
		for home := range cells {
			if kinds&Reads != 0 {
				cells[home] += row[home]
			}
			if kinds&Writes != 0 {
				cells[home] += row[n+home]
			}
		}
	}
	return m
}

// LocalityFraction returns the fraction of accessed bytes homed on the
// accessing worker's own node over [t0, t1): the diagonal of
// CommMatrixOf, at its cost.
func LocalityFraction(tr *core.Trace, kinds CommKinds, t0, t1 trace.Time) float64 {
	return CommMatrixOf(tr, kinds, t0, t1).LocalFraction()
}

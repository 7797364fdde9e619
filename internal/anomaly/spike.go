package anomaly

import (
	"fmt"
	"math"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/stats"
)

// SpikeDetector finds hardware-counter excursions: windows in which a
// monotonic counter's rate on one CPU (cache misses, branch
// mispredictions, system time, ...) far exceeds the counter's typical
// rate across all CPUs and windows. Window rates come from the counter
// deltas at window boundaries, read in one forward walk over each CPU's
// samples (core.Counter.ValuesAt); the peak instantaneous rate quoted in
// the explanation is answered by the trace's shared min/max rate tree
// index (Section VI-B-c) without scanning samples. Consecutive
// anomalous windows on the same (counter, CPU) merge.
type SpikeDetector struct{}

// Name implements Detector.
func (SpikeDetector) Name() string { return "counter-spike" }

// Detect implements Detector.
func (SpikeDetector) Detect(tr *core.Trace, cfg Config) []Anomaly {
	counters := make([]*core.Counter, 0, len(tr.Counters))
	for _, c := range tr.Counters {
		if c.Desc.Monotonic && len(c.PerCPU) > 0 {
			counters = append(counters, c)
		}
	}
	// Counters are independent; scan them in parallel, one slot each.
	perCounter := make([][]Anomaly, len(counters))
	par.Do(cfg.Workers, len(counters), func(i int) {
		perCounter[i] = scanCounter(tr, counters[i], cfg)
	})
	var out []Anomaly
	for _, as := range perCounter {
		out = append(out, as...)
	}
	return out
}

func scanCounter(tr *core.Trace, c *core.Counter, cfg Config) []Anomaly {
	bs := windowBounds(cfg.Window, cfg.Windows)
	nCPU, nw := tr.NumCPUs(), cfg.Windows

	// Per-(cpu, window) mean rates, and the pooled sample for the
	// baseline. Rates are per kilocycle to keep magnitudes readable.
	// Windows the counter's samples do not cover stay NaN and enter
	// neither the baseline nor the scoring: pooling them as zero would
	// collapse the baseline for counters sampled over only part of
	// the scan window. The counter's values at the bounds are read in
	// one forward walk per CPU, into one buffer; the rows share one
	// array.
	sampled := 0
	for cpu := 0; cpu < nCPU; cpu++ {
		if c.NumSamples(int32(cpu)) >= 2 {
			sampled++
		}
	}
	rates := make([][]float64, nCPU)
	slab, vals := make([]float64, sampled*nw), make([]int64, len(bs))
	pooled := make([]float64, 0, sampled*nw)
	for cpu := 0; cpu < nCPU; cpu++ {
		if c.NumSamples(int32(cpu)) < 2 {
			continue
		}
		row := slab[:nw:nw]
		slab = slab[nw:]
		from := c.ValuesAt(int32(cpu), bs, vals)
		for w := range row {
			row[w] = math.NaN()
			// A window before the first sample has no value to start at.
			if t0, t1 := bs[w], bs[w+1]; t1 > t0 && w >= from {
				row[w] = float64(vals[w+1]-vals[w]) * 1000 / float64(t1-t0)
				pooled = append(pooled, row[w])
			}
		}
		rates[cpu] = row
	}
	if len(pooled) < minGroupSize {
		return nil
	}
	med := stats.Median(pooled)
	spread := stats.RobustSpread(pooled)
	// Floor the spread at 1% of the median rate (and an absolute
	// epsilon) so flat counters with measurement jitter do not flag.
	if floor := med * 0.01; spread < floor {
		spread = floor
	}
	if spread <= 0 {
		return nil
	}

	ci := tr.CounterIndex()
	var out []Anomaly
	for cpu := 0; cpu < nCPU; cpu++ {
		if rates[cpu] == nil {
			continue
		}
		first := len(out)
		var cur *Anomaly
		for w := 0; w < cfg.Windows; w++ {
			if math.IsNaN(rates[cpu][w]) {
				cur = nil
				continue
			}
			z := stats.RobustZ(rates[cpu][w], med, spread)
			if z < cfg.MinScore {
				cur = nil
				continue
			}
			if cur != nil && cur.Window.End == bs[w] {
				cur.Window.End = bs[w+1]
				if z > cur.Score {
					cur.Score = z
				}
				continue
			}
			out = append(out, Anomaly{
				Kind:    KindCounterSpike,
				Score:   z,
				Window:  core.Interval{Start: bs[w], End: bs[w+1]},
				CPU:     tr.CPUs[cpu].ID,
				Counter: c.Desc.Name,
			})
			cur = &out[len(out)-1]
		}
		// The CPU's findings have stopped growing: explain each once.
		for i := first; i < len(out); i++ {
			out[i].Explanation = spikeExplanation(tr, ci, c, int32(cpu), out[i].Window, med)
		}
	}
	return out
}

// spikeExplanation quotes the window's peak instantaneous rate on row
// cpu from the shared min/max rate tree.
func spikeExplanation(tr *core.Trace, ci *core.CounterIndex, c *core.Counter, cpu int32, win core.Interval, med float64) string {
	peak := 0.0
	if _, mx, ok := ci.RateTree(c, cpu).MinMax(win.Start, win.End); ok {
		peak = float64(mx) / core.RateScale
	}
	return fmt.Sprintf("%s rate on cpu %d peaked at %.2f/kcycle against a machine-wide median of %.2f/kcycle",
		c.Desc.Name, tr.CPUs[cpu].ID, peak, med)
}

package anomaly

import (
	"fmt"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/metrics"
	"github.com/openstream/aftermath/internal/trace"
)

// ImbalanceDetector finds load-imbalance windows: intervals in which
// at least one CPU was (nearly) idle while the machine as a whole was
// busy executing tasks — the pattern behind the idle-worker phases of
// Figure 3. The scan interval is divided into cfg.Windows windows; per
// window the busy (task-executing) fraction of every CPU is computed
// with the WorkersInState-style accounting of internal/metrics, and a
// window is anomalous when the gap between the mean busy fraction and
// the least-busy CPU is large while the machine is meaningfully
// loaded. Consecutive anomalous windows blaming the same CPU merge
// into one finding.
type ImbalanceDetector struct{}

// Name implements Detector.
func (ImbalanceDetector) Name() string { return "load-imbalance" }

// busyThreshold is the mean busy fraction below which a window is
// considered ramp-up/ramp-down rather than imbalanced.
const busyThreshold = 0.5

// Detect implements Detector.
func (ImbalanceDetector) Detect(tr *core.Trace, cfg Config) []Anomaly {
	nCPU := tr.NumCPUs()
	if nCPU < 2 {
		return nil
	}
	busy := metrics.InStateFractions(tr, trace.StateTaskExec, cfg.Windows, cfg.Window.Start, cfg.Window.End)
	bs := windowBounds(cfg.Window, cfg.Windows)

	var out []Anomaly
	var cur *Anomaly
	for w := 0; w < cfg.Windows; w++ {
		var sum, lo float64
		loCPU := int32(0)
		for c := 0; c < nCPU; c++ {
			f := busy[c][w]
			sum += f
			if c == 0 || f < lo {
				lo, loCPU = f, tr.CPUs[c].ID
			}
		}
		mean := sum / float64(nCPU)
		gap := mean - lo
		// Score a fully idle CPU against a fully busy machine as 10,
		// scaling down with either partial idleness or partial load.
		score := 10 * gap
		if mean < busyThreshold || score < cfg.MinScore {
			cur = nil
			continue
		}
		if cur != nil && cur.CPU == loCPU && cur.Window.End == bs[w] {
			cur.Window.End = bs[w+1]
			if score > cur.Score {
				cur.Score = score
				cur.Explanation = imbalanceExplanation(loCPU, lo, mean)
			}
			continue
		}
		out = append(out, Anomaly{
			Kind:        KindLoadImbalance,
			Score:       score,
			Window:      core.Interval{Start: bs[w], End: bs[w+1]},
			CPU:         loCPU,
			Explanation: imbalanceExplanation(loCPU, lo, mean),
		})
		cur = &out[len(out)-1]
	}
	return out
}

func imbalanceExplanation(cpu int32, lo, mean float64) string {
	return fmt.Sprintf("cpu %d executed tasks %.0f%% of the window while the machine averaged %.0f%% busy",
		cpu, 100*lo, 100*mean)
}

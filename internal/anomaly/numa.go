package anomaly

import (
	"fmt"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/hw"
	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/stats"
)

// numaMinBytes is the least data a task must touch before its access
// locality is judged; tiny tasks yield meaningless fractions.
const numaMinBytes = 4096

// NUMADetector finds tasks whose memory accesses are far more
// node-remote than the trace baseline — the anomaly the NUMA timeline
// modes of Section IV visualize. The baseline is the trace-wide remote
// fraction of accessed bytes, so a uniformly remote (badly scheduled)
// program does not flag every task, only those markedly worse than
// their surroundings. The score scales with how far the task's remote
// fraction exceeds the baseline; the explanation estimates the cycle
// penalty with the hardware cost model.
type NUMADetector struct {
	// HW is the cost model used to estimate remote-access penalties
	// in explanations; the zero value selects hw.Default().
	HW hw.Model
}

// Name implements Detector.
func (NUMADetector) Name() string { return "numa-remote" }

// Detect implements Detector.
func (d NUMADetector) Detect(tr *core.Trace, cfg Config) []Anomaly {
	if tr.NumNodes() < 2 {
		return nil // single-node machines have no remote accesses
	}
	model := d.HW
	if model.CacheLineBytes == 0 {
		model = hw.Default()
	}
	// The trace-global baseline: CommMatrixOf inside LocalityFraction
	// answers full-coverage windows from the incrementally maintained
	// totals when the trace carries them, from the event scan
	// otherwise.
	baseline := 1 - stats.LocalityFraction(tr, stats.ReadsAndWrites, cfg.Window.Start, cfg.Window.End)

	// Per-task locality summaries: the trace-carried index (aligned
	// with Tasks, maintained from appended events only) replaces the
	// per-task communication scan when present. LocSum is a pure
	// per-task quantity, so the index applies under any filter or
	// window.
	loc := tr.TaskLocality()
	if len(loc) != len(tr.Tasks) {
		loc = nil
	}

	// Task chunks are scored in parallel and merged in chunk order.
	bounds := par.Chunks(cfg.Workers, len(tr.Tasks))
	nChunks := len(bounds) - 1
	perChunk := make([][]Anomaly, nChunks)
	par.Do(cfg.Workers, nChunks, func(c int) {
		var out []Anomaly
		for i := bounds[c]; i < bounds[c+1]; i++ {
			t := &tr.Tasks[i]
			if t.ExecCPU < 0 || !cfg.Filter.Match(tr, t) {
				continue
			}
			if !cfg.Window.Overlaps(t.ExecStart, t.ExecEnd) {
				continue
			}
			var ls core.LocSum
			if loc != nil {
				ls = loc[i]
			} else {
				ls = core.TaskLocalityOf(tr, t)
			}
			if a, ok := scoreTaskLocality(tr, model, t, ls, baseline); ok {
				out = append(out, a)
			}
		}
		perChunk[c] = out
	})
	var out []Anomaly
	for _, as := range perChunk {
		out = append(out, as...)
	}
	return out
}

// scoreTaskLocality scores a task's remote-access summary (computed by
// core.TaskLocalityOf, directly or via the trace-carried index)
// against the baseline: a task 100% remote against a fully local
// baseline scores 10.
func scoreTaskLocality(tr *core.Trace, model hw.Model, t *core.TaskInfo, ls core.LocSum, baseline float64) (Anomaly, bool) {
	if ls.Total < numaMinBytes {
		return Anomaly{}, false
	}
	frac := float64(ls.Remote) / float64(ls.Total)
	excess := frac - baseline
	if excess <= 0 {
		return Anomaly{}, false
	}
	execNode := tr.NodeOfCPU(t.ExecCPU)
	dist := int(tr.Distance(execNode, ls.WorstNode))
	if dist < 1 {
		dist = 1
	}
	penalty := model.MemCost(ls.Remote, dist, 0) - model.MemCost(ls.Remote, 0, 0)
	return Anomaly{
		Kind:   KindNUMARemote,
		Score:  excess * 10,
		Window: core.Interval{Start: t.ExecStart, End: t.ExecEnd},
		CPU:    t.ExecCPU,
		TaskID: t.ID,
		Explanation: fmt.Sprintf("task %d (%s) on node %d accessed %.0f%% of %d bytes remotely (baseline %.0f%%), mostly node %d; ~%d cycles of remote-access penalty",
			t.ID, tr.TypeName(t.Type), execNode, 100*frac, ls.Total, 100*baseline, ls.WorstNode, penalty),
	}, true
}

func init() { Register(NUMADetector{}) }

package anomaly

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/trace"
)

// minGroupSize is the smallest per-type sample for which duration
// statistics are meaningful.
const minGroupSize = 8

// DurationDetector finds tasks that ran far longer than is typical for
// their task type, scoring each task's execution duration as a robust
// z-score against the type's median and MAD (the per-task-type
// duration histograms of Figure 16, automated).
type DurationDetector struct{}

// Name implements Detector.
func (DurationDetector) Name() string { return "duration-outlier" }

// Detect implements Detector.
func (DurationDetector) Detect(tr *core.Trace, cfg Config) []Anomaly {
	// Group the matching tasks the window holds by type.
	byType := make(map[trace.TypeID][]*core.TaskInfo)
	var typeOrder []trace.TypeID
	tr.EachTaskIn(cfg.Window.Start, cfg.Window.End, func(t *core.TaskInfo) {
		if !cfg.Filter.Match(tr, t) {
			return
		}
		if _, ok := byType[t.Type]; !ok {
			typeOrder = append(typeOrder, t.Type)
		}
		byType[t.Type] = append(byType[t.Type], t)
	})
	slices.Sort(typeOrder)

	// Type groups are independent; score them in parallel, one result
	// slot per type.
	perType := make([][]Anomaly, len(typeOrder))
	par.Do(cfg.Workers, len(typeOrder), func(i int) {
		perType[i] = scoreTypeDurations(tr, typeOrder[i], byType[typeOrder[i]], cfg.MinScore)
	})
	var out []Anomaly
	for _, as := range perType {
		out = append(out, as...)
	}
	return out
}

// taskOrder orders tasks of one table by their position in it, where
// pointers into one array compare as their indices do.
func taskOrder(a, b *core.TaskInfo) int {
	return cmp.Compare(uintptr(unsafe.Pointer(a)), uintptr(unsafe.Pointer(b)))
}

// scoreTypeDurations scores one type group, in any order, against its
// own median and robust spread, building a finding only for a score of
// at least minScore; the findings come in task order.
func scoreTypeDurations(tr *core.Trace, typ trace.TypeID, tasks []*core.TaskInfo, minScore float64) []Anomaly {
	if len(tasks) < minGroupSize {
		return nil
	}
	durs := make([]float64, len(tasks))
	for i, t := range tasks {
		durs[i] = float64(t.Duration())
	}
	med := stats.Median(durs)
	spread := stats.RobustSpread(durs)
	// Floor the spread so near-constant groups do not inflate tiny
	// absolute jitter into huge scores: an outlier must stand out by
	// at least ~1% of the median duration per score unit.
	if floor := med * 0.01; spread < floor {
		spread = floor
	}
	if spread <= 0 {
		return nil
	}
	var kept []*core.TaskInfo
	for i, t := range tasks {
		if z := stats.RobustZ(durs[i], med, spread); z > 0 && z >= minScore {
			kept = append(kept, t)
		}
	}
	slices.SortFunc(kept, taskOrder)
	out := make([]Anomaly, len(kept))
	for i, t := range kept {
		dur := float64(t.Duration())
		out[i] = Anomaly{
			Kind:   KindDurationOutlier,
			Score:  stats.RobustZ(dur, med, spread),
			Window: core.Interval{Start: t.ExecStart, End: t.ExecEnd},
			CPU:    t.ExecCPU,
			TaskID: t.ID,
			Explanation: fmt.Sprintf("task %d (%s) ran %.0f cycles, %.1fx the type median of %.0f (n=%d)",
				t.ID, tr.TypeName(typ), dur, dur/maxf(med, 1), med, len(tasks)),
		}
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

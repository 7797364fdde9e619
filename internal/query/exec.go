// Executors: run a Query against one immutable snapshot. These are
// the single entry points the HTTP viewer, the Hub server and the
// public Query* API all delegate to, so parameter semantics (window
// defaulting, filter construction, metric kinds, anomaly selection)
// are defined exactly once.
package query

import (
	"fmt"
	"io"

	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/export"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/metrics"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/trace"
)

// WindowOf resolves the query window against the snapshot: unset
// bounds default to the trace span; set bounds pass through verbatim
// (the URL layer, not this resolver, owns the t0=0&t1=0-means-unset
// convention — see FromValues — so an explicit Window(0, 0) selects
// nothing).
func WindowOf(tr *core.Trace, q *Query) (t0, t1 trace.Time) {
	t0, t1 = tr.Span.Start, tr.Span.End
	if q.hasT0 {
		t0 = q.t0
	}
	if q.hasT1 {
		t1 = q.t1
	}
	return t0, t1
}

// FilterOf builds the task filter the query describes: Types resolved
// against the snapshot's type table, Durations, ReadNodes and
// WriteNodes. Returns nil when the query filters nothing (matching
// every task). The filter shares the query's node lists and must not
// be modified.
func FilterOf(tr *core.Trace, q *Query) *filter.TaskFilter {
	durs := q.minDur > 0 || q.maxDur > 0
	if len(q.types) == 0 && !durs && q.rnodes == nil && q.wnodes == nil {
		return nil
	}
	f := &filter.TaskFilter{ReadNodes: q.rnodes, WriteNodes: q.wnodes}
	if len(q.types) > 0 {
		f.Types = filter.ByTypeNames(tr, q.types...).Types
	}
	if durs {
		f.MinDuration, f.MaxDuration = q.minDur, q.maxDur
	}
	return f
}

// SeriesOf computes the derived metric series the query selects:
// "idle" (idle workers per interval), "avgdur" (mean duration of
// running tasks), or a counter name (machine-wide rate). An empty
// metric defaults to "idle"; an unknown one is an error.
func SeriesOf(tr *core.Trace, q *Query) (metrics.Series, error) {
	if err := sampleable(tr.Span); err != nil {
		return metrics.Series{}, err
	}
	n := q.intervals
	if n <= 0 {
		n = 200
	}
	n = coarsen(n, q.level)
	switch m := q.metric; m {
	case "", "idle":
		return metrics.WorkersInState(tr, trace.StateIdle, n), nil
	case "avgdur":
		return metrics.AverageTaskDuration(tr, n, FilterOf(tr, q)), nil
	default:
		if c, ok := tr.CounterByName(m); ok {
			return metrics.Derivative(metrics.AggregateCounter(tr, c, n)), nil
		}
		return metrics.Series{}, fmt.Errorf("unknown metric %q (want idle, avgdur or a counter name)", m)
	}
}

// coarsen divides a positive pixel resolution by 2^level (floor 1) —
// the progressive-refinement reduction. Zero and negative values keep
// meaning "use the executor's default" and pass through untouched.
func coarsen(n, level int) int {
	if n <= 0 || level <= 0 {
		return n
	}
	if level > 30 {
		level = 30
	}
	if n >>= uint(level); n < 1 {
		return 1
	}
	return n
}

// StatsResult is the statistics-panel summary for one window: the
// values of the paper's interface group 2, with a stable JSON schema.
type StatsResult struct {
	// Start and End echo the summarized window.
	Start trace.Time `json:"start"`
	End   trace.Time `json:"end"`
	// Tasks is the number of matching tasks overlapping the window.
	Tasks int `json:"tasks"`
	// AvgParallelism is the mean number of concurrently executing
	// tasks.
	AvgParallelism float64 `json:"avg_parallelism"`
	// StateCycles aggregates per-state time across CPUs; states with
	// zero time are omitted.
	StateCycles map[string]int64 `json:"state_cycles"`
	// LocalFraction is the fraction of accessed bytes that were
	// NUMA-node-local.
	LocalFraction float64 `json:"local_fraction"`
	// DurationHist bins the durations of matching tasks; HistMin and
	// HistMax are the bin range.
	DurationHist []int   `json:"duration_hist"`
	HistMin      float64 `json:"hist_min"`
	HistMax      float64 `json:"hist_max"`
}

// StatsOf computes the statistics panel for the query's window and
// filter. The matching tasks are visited once, by filter.Durations
// under the window — which reads the task window index and never
// ranges over tr.Tasks, and admits only executed tasks — for both the
// count and the histogram's durations; the state cycles come from one
// stats.StateTimes, whose task-execution entry is also the average
// parallelism's numerator; the locality fraction reads each CPU's
// bytes per home node off core.HomeBytes' prefix sums, and the homes of
// the accesses at the window's edges off the home-node column. On a
// loaded trace nothing here walks the window's events or searches the
// region table; on a live snapshot, which keeps neither sums nor
// column, the locality fraction searches it for every access of the
// window.
func StatsOf(tr *core.Trace, q *Query) StatsResult {
	t0, t1 := WindowOf(tr, q)
	durs := filter.Durations(tr, FilterOf(tr, q).WithWindow(t0, t1))
	resp := StatsResult{
		Start: t0, End: t1,
		Tasks:         len(durs),
		StateCycles:   map[string]int64{},
		LocalFraction: stats.LocalityFraction(tr, stats.ReadsAndWrites, t0, t1),
	}
	times := stats.StateTimes(tr, t0, t1)
	if t1 > t0 {
		// The width as unsigned: a window more than 2^63-1 cycles wide
		// wraps t1-t0 negative.
		resp.AvgParallelism = float64(times[trace.StateTaskExec]) / float64(uint64(t1-t0))
	}
	for st, v := range times {
		if v > 0 {
			resp.StateCycles[trace.WorkerState(st).String()] = v
		}
	}
	h := stats.NewHistogram(durs, 20, 0, 0)
	resp.DurationHist = h.Counts
	resp.HistMin, resp.HistMax = h.Min, h.Max
	return resp
}

// TimelineConfigOf translates the query into a timeline rendering
// configuration against the snapshot. An unset mode renders state
// mode.
func TimelineConfigOf(tr *core.Trace, q *Query) render.TimelineConfig {
	t0, t1 := WindowOf(tr, q)
	mode := render.ModeState
	if q.modeSet {
		mode = q.mode
	}
	// A coarsened width must stay renderable: level only divides the
	// plot resolution, it must not shrink the tile below the label
	// gutter the renderer still has to draw.
	w := coarsen(q.width, q.level)
	if q.level > 0 {
		if min := render.MinTimelineWidth(!q.labelsOff); w > 0 && w < min {
			w = min
		}
	}
	return render.TimelineConfig{
		Width: w, Height: q.height,
		Start: t0, End: t1,
		CPUs:    q.cpus,
		Mode:    mode,
		HeatMin: q.heatMin, HeatMax: q.heatMax,
		Shades: q.shades,
		Filter: FilterOf(tr, q),
		Labels: !q.labelsOff,
	}
}

// TimelineOf renders the timeline the query describes, including the
// counter overlay when one is selected.
func TimelineOf(tr *core.Trace, q *Query) (*render.Framebuffer, render.Stats, error) {
	cfg := TimelineConfigOf(tr, q)
	fb, st, err := render.Timeline(tr, cfg)
	if err != nil {
		return nil, st, err
	}
	if q.counter != "" {
		if c, ok := tr.CounterByName(q.counter); ok {
			render.OverlayCounter(fb, tr, cfg, render.OverlayConfig{
				Counter: c,
				Rate:    !q.rateOff,
				Color:   render.CategoryColor(7),
			}, tr.CounterIndex())
		}
	}
	return fb, st, nil
}

// HistogramOf bins the durations of the executed tasks TasksOf
// selects.
func HistogramOf(tr *core.Trace, q *Query) *stats.Histogram {
	bins := q.bins
	if bins <= 0 {
		bins = 20
	}
	return stats.NewHistogram(filter.Durations(tr, taskFilterOf(tr, q)), bins, 0, 0)
}

// CommMatrixOf accumulates the node-to-node communication matrix over
// the query window.
func CommMatrixOf(tr *core.Trace, q *Query) *stats.CommMatrix {
	t0, t1 := WindowOf(tr, q)
	kinds := stats.ReadsAndWrites
	if q.kindsSet {
		kinds = q.kinds
	}
	return stats.CommMatrixOf(tr, kinds, t0, t1)
}

// SelectAnomalies applies the query's result selection (AnomalyKind,
// Limit) to ranked scan findings.
func SelectAnomalies(found []anomaly.Anomaly, q *Query) ([]anomaly.Anomaly, error) {
	var wantKind anomaly.Kind
	haveKind := false
	if q.anomKind != "" {
		k, ok := anomaly.ParseKind(q.anomKind)
		if !ok {
			return nil, &BadParamError{Param: "kind", Reason: fmt.Sprintf("unknown anomaly kind %q", q.anomKind)}
		}
		wantKind, haveKind = k, true
	}
	out := make([]anomaly.Anomaly, 0, len(found))
	for _, a := range found {
		if haveKind && a.Kind != wantKind {
			continue
		}
		if q.limit > 0 && len(out) >= q.limit {
			break
		}
		out = append(out, a)
	}
	return out, nil
}

// AnomaliesOf scans the snapshot and returns the ranked findings the
// query selects. The window is attached only when the query sets one,
// preserving the scan's own "zero window means full span" defaulting.
func AnomaliesOf(tr *core.Trace, q *Query) ([]anomaly.Anomaly, error) {
	cfg := anomaly.Config{
		Windows:    q.windows,
		MinScore:   q.minScore,
		MaxPerKind: q.maxPerKind,
		Filter:     FilterOf(tr, q),
	}
	scanned := tr.Span // what the scan samples: the window clamped to the span, if that holds time
	if q.hasT0 || q.hasT1 {
		t0, t1 := WindowOf(tr, q)
		cfg.Window = core.Interval{Start: t0, End: t1}
		if in := (core.Interval{Start: max(t0, tr.Span.Start), End: min(t1, tr.Span.End)}); cfg.Window.Duration() > 0 && in.Duration() > 0 {
			scanned = in
		}
	}
	if err := sampleable(scanned); err != nil {
		return nil, err
	}
	return SelectAnomalies(anomaly.Scan(tr, cfg), q)
}

// sampleable refuses an interval more than 2^63-1 cycles wide, such as
// the span of a trace with times near both ends of int64: series and
// scans cut it into windows by its width as an int64.
func sampleable(iv core.Interval) error {
	if iv.End-iv.Start < 0 {
		return fmt.Errorf("query: interval [%d, %d) is more than 2^63-1 cycles wide", iv.Start, iv.End)
	}
	return nil
}

// taskFilterOf is FilterOf restricted, when the query sets a window,
// to the tasks whose execution overlaps it: the task selection of
// TasksOf, TasksCSVTo, HistogramOf and TaskDeltasOf.
func taskFilterOf(tr *core.Trace, q *Query) *filter.TaskFilter {
	f := FilterOf(tr, q)
	if q.hasT0 || q.hasT1 {
		t0, t1 := WindowOf(tr, q)
		f = f.WithWindow(t0, t1)
	}
	return f
}

// TasksOf returns the tasks matching the query's filter. A window set
// on the query restricts to tasks overlapping it.
func TasksOf(tr *core.Trace, q *Query) []*core.TaskInfo {
	return filter.Tasks(tr, taskFilterOf(tr, q))
}

// TasksCSVTo writes the matching tasks (with counter attribution for
// the given counters) as CSV.
func TasksCSVTo(w io.Writer, tr *core.Trace, q *Query, counters []*core.Counter) error {
	return export.TasksCSV(w, tr, taskFilterOf(tr, q), counters)
}

// TaskDeltasOf attributes the counter the query names (Counter) to the
// executed tasks TasksOf selects: each task's counter increase over
// its execution. An unknown counter name is an error.
func TaskDeltasOf(tr *core.Trace, q *Query) ([]metrics.TaskDelta, error) {
	c, ok := tr.CounterByName(q.counter)
	if !ok {
		return nil, fmt.Errorf("unknown counter %q", q.counter)
	}
	return metrics.CounterDeltaPerTask(tr, c, taskFilterOf(tr, q)), nil
}

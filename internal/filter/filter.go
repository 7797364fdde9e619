// Package filter implements Aftermath's task filters (paper Section
// II-A, interface group 3): the timeline and all statistical views can
// be restricted to tasks of specific types, tasks whose execution
// duration lies in a range, or tasks that read from or write to
// specific NUMA nodes. The group's CPU criterion is the row selection
// (query.Query.CPUs, render.TimelineConfig.CPUs), not a filter field.
//
// Filters compose by conjunction: a task matches when it satisfies
// every configured criterion. The zero value matches every task.
package filter

import (
	"slices"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/trace"
)

// TaskFilter selects tasks. Nil set fields and zero bounds are
// inactive criteria.
type TaskFilter struct {
	// Types restricts to tasks of these types.
	Types map[trace.TypeID]bool
	// MinDuration and MaxDuration bound the execution duration in
	// cycles; MaxDuration 0 means unbounded above.
	MinDuration trace.Time
	MaxDuration trace.Time
	// ReadNodes restricts to tasks that read data homed on at least
	// one of these NUMA nodes.
	ReadNodes []int32
	// WriteNodes restricts to tasks that write data homed on at
	// least one of these NUMA nodes.
	WriteNodes []int32
	// Window restricts to tasks whose execution overlaps the
	// interval.
	Window *core.Interval
}

// ByTypeNames returns a filter matching tasks whose type name is one
// of names.
func ByTypeNames(tr *core.Trace, names ...string) *TaskFilter {
	types := make(map[trace.TypeID]bool, len(names))
	for _, n := range names {
		for _, tt := range tr.Types {
			if tt.Name == n {
				types[tt.ID] = true
			}
		}
	}
	return &TaskFilter{Types: types}
}

// WithDuration returns a copy of f bounded to [min, max] duration.
func (f *TaskFilter) WithDuration(min, max trace.Time) *TaskFilter {
	g := f.clone()
	g.MinDuration, g.MaxDuration = min, max
	return g
}

// WithWindow returns a copy of f restricted to executions overlapping
// [start, end).
func (f *TaskFilter) WithWindow(start, end trace.Time) *TaskFilter {
	g := f.clone()
	g.Window = &core.Interval{Start: start, End: end}
	return g
}

func (f *TaskFilter) clone() *TaskFilter {
	if f == nil {
		return &TaskFilter{}
	}
	g := *f
	return &g
}

// Match reports whether the task satisfies every active criterion.
// A nil filter matches everything.
func (f *TaskFilter) Match(tr *core.Trace, t *core.TaskInfo) bool {
	if f == nil {
		return true
	}
	if f.Types != nil && !f.Types[t.Type] {
		return false
	}
	if t.ExecCPU < 0 {
		// Tasks without execution intervals can only match the
		// criteria that do not need one.
		return f.MinDuration == 0 && f.MaxDuration == 0 &&
			f.ReadNodes == nil && f.WriteNodes == nil && f.Window == nil
	}
	d := t.Duration()
	if f.MinDuration > 0 && d < f.MinDuration {
		return false
	}
	if f.MaxDuration > 0 && d > f.MaxDuration {
		return false
	}
	if f.Window != nil && !f.Window.Overlaps(t.ExecStart, t.ExecEnd) {
		return false
	}
	if f.ReadNodes != nil || f.WriteNodes != nil {
		readOK := f.ReadNodes == nil
		writeOK := f.WriteNodes == nil
		for ev, home := range tr.TaskAccesses(t).Homes() {
			if ev.Task != t.ID {
				continue
			}
			if ev.Kind == trace.CommRead {
				readOK = readOK || slices.Contains(f.ReadNodes, home)
			} else {
				writeOK = writeOK || slices.Contains(f.WriteNodes, home)
			}
			if readOK && writeOK {
				break
			}
		}
		if !readOK || !writeOK {
			return false
		}
	}
	return true
}

// Each calls visit for every task in tr matching f. A windowed filter
// is answered from the trace's task window index (core.Trace.EachTaskIn),
// so it costs what the window holds and visits in no particular order:
// for counts, extrema and bins, which need none. Without a window every
// task is a candidate, visited in task order.
func Each(tr *core.Trace, f *TaskFilter, visit func(*core.TaskInfo)) {
	if f != nil && f.Window != nil {
		// Match admits no unexecuted task under a window, and the index
		// holds none.
		tr.EachTaskIn(f.Window.Start, f.Window.End, func(t *core.TaskInfo) {
			if f.Match(tr, t) {
				visit(t)
			}
		})
		return
	}
	for i := range tr.Tasks {
		if t := &tr.Tasks[i]; f.Match(tr, t) {
			visit(t)
		}
	}
}

// Tasks returns pointers to all tasks in tr matching f, in task order.
func Tasks(tr *core.Trace, f *TaskFilter) []*core.TaskInfo {
	var out []*core.TaskInfo
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		if f.Match(tr, t) {
			out = append(out, t)
		}
	}
	return out
}

// Durations returns the execution durations of the executed tasks
// matching f, visited as Each visits them: in task order without a
// window, so means over them are reproducible to the last bit.
func Durations(tr *core.Trace, f *TaskFilter) []float64 {
	var out []float64
	Each(tr, f, func(t *core.TaskInfo) {
		if t.ExecCPU >= 0 {
			out = append(out, float64(t.Duration()))
		}
	})
	return out
}

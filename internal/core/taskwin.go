package core

import (
	"math"
	"math/bits"
	"sort"

	"github.com/openstream/aftermath/internal/trace"
)

// taskBucketBits sizes the task window index: 1<<taskBucketBits
// buckets at most, and more than half as many once the tasks' starts
// span that many cycles.
const taskBucketBits = 10

// taskWindows finds the executed tasks overlapping a window without
// walking the task table: task indices counting-sorted into equal-width
// buckets by ExecStart, plus the running maximum of ExecEnd over the
// buckets. A window [t0, t1) can only admit tasks from the bucket where
// that maximum first passes t0 to the bucket t1-1 falls into, and those
// lie contiguous in order. Nothing is assumed about the placements
// themselves (they may overlap, or end before they start): the buckets
// only bound the candidates, Interval.Overlaps decides.
//
// Built in O(tasks) without a comparison sort, at four bytes a task
// plus twelve a bucket; the zero value indexes no tasks.
type taskWindows struct {
	// lo is the least ExecStart; a task falls into bucket
	// (ExecStart-lo)>>shift, the difference taken in uint64, where it is
	// exact for any two int64.
	lo    trace.Time
	shift uint
	// order lists the executed tasks' indices into Trace.Tasks bucket by
	// bucket: bucket b is order[off[b]:off[b+1]].
	order []int32
	off   []int32
	// maxEnd[b] is the greatest ExecEnd among buckets 0..b.
	maxEnd []trace.Time
}

func buildTaskWindows(tasks []TaskInfo) *taskWindows {
	w := &taskWindows{}
	var hi trace.Time
	n := 0
	for i := range tasks {
		t := &tasks[i]
		if t.ExecCPU < 0 {
			continue
		}
		if n == 0 || t.ExecStart < w.lo {
			w.lo = t.ExecStart
		}
		if n == 0 || t.ExecStart > hi {
			hi = t.ExecStart
		}
		n++
	}
	if n == 0 {
		return w
	}
	width := uint64(hi) - uint64(w.lo)
	w.shift = uint(max(bits.Len64(width)-taskBucketBits, 0))
	nb := int(width>>w.shift) + 1

	w.off = make([]int32, nb+1)
	for i := range tasks {
		if t := &tasks[i]; t.ExecCPU >= 0 {
			w.off[w.bucket(t.ExecStart)+1]++
		}
	}
	for b := 0; b < nb; b++ {
		w.off[b+1] += w.off[b]
	}
	w.order = make([]int32, n)
	w.maxEnd = make([]trace.Time, nb)
	for b := range w.maxEnd {
		w.maxEnd[b] = math.MinInt64
	}
	next := append([]int32(nil), w.off[:nb]...)
	for i := range tasks {
		t := &tasks[i]
		if t.ExecCPU < 0 {
			continue
		}
		b := w.bucket(t.ExecStart)
		w.order[next[b]] = int32(i)
		next[b]++
		w.maxEnd[b] = max(w.maxEnd[b], t.ExecEnd)
	}
	for b := 1; b < nb; b++ {
		w.maxEnd[b] = max(w.maxEnd[b], w.maxEnd[b-1])
	}
	return w
}

// bucket returns the bucket of an instant at or after lo; instants past
// the last ExecStart fall past the last bucket.
func (w *taskWindows) bucket(t trace.Time) uint64 {
	return (uint64(t) - uint64(w.lo)) >> w.shift
}

// candidates returns the indices of a superset of the executed tasks
// overlapping [t0, t1).
func (w *taskWindows) candidates(t0, t1 trace.Time) []int32 {
	nb := len(w.maxEnd)
	if nb == 0 || t1 <= w.lo {
		return nil
	}
	// A task admitted by the window starts before t1, so in a bucket no
	// later than t1-1's, and ends after t0, so not in the leading
	// buckets whose every task has ended by then.
	last := nb - 1
	if b := w.bucket(t1 - 1); b < uint64(last) {
		last = int(b)
	}
	first := sort.Search(last+1, func(b int) bool { return w.maxEnd[b] > t0 })
	return w.order[w.off[first]:w.off[last+1]]
}

// EachTaskIn calls visit for every executed task whose execution
// overlaps [t0, t1) — exactly the tasks Interval.Overlaps admits, for
// any window (empty and inverted ones included) and any placements —
// in unspecified order. It reads the trace's task window index, built
// on first use, so a narrow window costs what it holds rather than a
// walk over Tasks.
func (tr *Trace) EachTaskIn(t0, t1 trace.Time, visit func(*TaskInfo)) {
	tr.taskWinOnce.Do(func() { tr.taskWin = buildTaskWindows(tr.Tasks) })
	win := Interval{Start: t0, End: t1}
	for _, i := range tr.taskWin.candidates(t0, t1) {
		if t := &tr.Tasks[i]; win.Overlaps(t.ExecStart, t.ExecEnd) {
			visit(t)
		}
	}
}

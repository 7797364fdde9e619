package core

import (
	"cmp"
	"slices"
	"unsafe"

	"github.com/openstream/aftermath/internal/agg"
	"github.com/openstream/aftermath/internal/trace"
)

// Column is one per-CPU event array or one (counter, CPU) sample array,
// sorted by timestamp: the array Section VI-B-c of the paper keeps per
// event family per CPU. Its records carry no key the column implies:
// Comm has no CPU, Sample no counter or CPU. A live trace that has
// spilled keeps the older events of the array in parts, oldest first,
// each a run of rows on a disk-backed segment (spill.go), and Rows
// holds the RAM-resident events after them. Every other column — batch
// load, OpenStore, an unspilled live snapshot, a hand-built trace — has
// no parts and is its Rows. The Trace and Counter accessors read the
// whole array either way.
//
// A published Column is a value over shared, immutable storage: copy
// it freely, never write through it.
type Column[T any] struct {
	Rows  []T
	parts []colPart[T]
}

// colPart is one spilled run of a column: the events that left the RAM
// tail together at one freeze, and the segment that carries them. rows
// is the heap slice the tail was until the segment file is installed,
// then a view into the segment's mapping (which the seg pointer keeps
// alive for as long as any snapshot holds the part).
type colPart[T any] struct {
	seg  *spillSeg
	rows []T
}

// runs returns the number of sorted runs of the column, and run the
// k-th of them: the parts, oldest first, then Rows.
func (c Column[T]) runs() int { return len(c.parts) + 1 }

func (c Column[T]) run(k int) []T {
	if k < len(c.parts) {
		return c.parts[k].rows
	}
	return c.Rows
}

// len returns the event count of the column.
func (c Column[T]) len() int {
	n := len(c.Rows)
	for _, p := range c.parts {
		n += len(p.rows)
	}
	return n
}

// all returns the whole column as one slice: Rows itself when the
// column has no parts, else a fresh concatenation of its runs.
func (c Column[T]) all() []T {
	if len(c.parts) == 0 {
		return c.Rows
	}
	out := make([]T, 0, c.len())
	for k := range c.runs() {
		out = append(out, c.run(k)...)
	}
	return out
}

// leaves returns the column as one view, the way the indexes read it:
// no allocation for a column without parts.
func (c Column[T]) leaves() agg.Leaves[T] {
	if len(c.parts) == 0 {
		return agg.Over(c.Rows)
	}
	cols := make([][]T, 0, c.runs())
	for k := range c.runs() {
		cols = append(cols, c.run(k))
	}
	return agg.Over(cols...)
}

// win returns the events of the column in the [lo, hi) window that
// search finds in each of its runs for [t0, t1): a view into the
// column when the window lies in one run (always so without parts, and
// the common case with them — viewer windows are small), a fresh
// concatenation when it crosses a part boundary. Returns nil for an
// empty window.
func (c Column[T]) win(search func([]T, trace.Time, trace.Time) (int, int), t0, t1 trace.Time) []T {
	var one []T
	total, nonEmpty := 0, 0
	for k := range c.runs() {
		s := c.run(k)
		if lo, hi := search(s, t0, t1); lo < hi {
			one, total, nonEmpty = s[lo:hi], total+hi-lo, nonEmpty+1
		}
	}
	if nonEmpty <= 1 {
		return one
	}
	out := make([]T, 0, total)
	for k := range c.runs() {
		s := c.run(k)
		if lo, hi := search(s, t0, t1); lo < hi {
			out = append(out, s[lo:hi]...)
		}
	}
	return out
}

// liveCol is the builder side of one column — a CPU's states, discrete
// or communication events, or one (counter, CPU) sample array: the
// Column it publishes, whose Rows is the RAM tail new events are pushed
// onto, with the state of its order check. Every builder operation on
// every event family is a method of this one type.
//
// A snapshot captures the column as the Column value it is at publish
// and must keep reading exactly those events while the writer goes on,
// so no operation ever writes at an index a captured value covers:
// push appends past the tail's length, freeze appends past the part
// list's length and starts a new tail, and install, drop, unspill and
// sort replace this column's part list (or tail) with a fresh one
// instead of editing it. That is the whole argument for readers of
// older epochs being race-free; it involves no other column.
//
// The format guarantees per-CPU timestamp order. A producer that breaks
// it marks the column disordered, and the next publish sorts it once —
// the repair a batch load performs — after which it is an ordered
// column like any other.
//
// All fields are guarded by Live.mu.
type liveCol[T any] struct {
	Column[T]
	// last is the greatest timestamp pushed. seen arms the order check
	// with the first push and keeps it armed while the tail is empty
	// after a freeze. disordered marks a push behind last since the
	// last publish.
	last       trace.Time
	seen       bool
	disordered bool
}

// push appends v, whose ordering timestamp is t. An event behind the
// column's last marks it disordered and unspills it: the sort at the
// next publish needs the whole array in RAM.
func (c *liveCol[T]) push(v T, t trace.Time) {
	if c.seen && t < c.last {
		c.disordered = true
		c.unspill()
	}
	c.last, c.seen = max(c.last, t), true
	c.Rows = append(c.Rows, v)
}

// sort replaces a disordered column with a stably sorted copy of itself
// and reports whether it did. The stable sort of a column in (time,
// arrival) order plus later events is the stable sort of the whole
// stream, so the column is what a batch load of it holds.
func (c *liveCol[T]) sort(key func(*T) trace.Time) bool {
	if !c.disordered {
		return false
	}
	rows := slices.Clone(c.Rows)
	slices.SortStableFunc(rows, func(a, b T) int { return cmp.Compare(key(&a), key(&b)) })
	c.Rows, c.disordered = rows, false
	return true
}

// tailBytes returns the size of the RAM tail.
func (c *liveCol[T]) tailBytes() int64 { return int64(len(c.Rows)) * c.rowBytes() }

func (c *liveCol[T]) rowBytes() int64 {
	var v T
	return int64(unsafe.Sizeof(v))
}

// freeze moves a non-empty tail into a new part of seg — a slice-header
// move, no event is copied — charges it to the segment, grows the
// segment's time range to [lo of the first row, hi of the last] and
// returns the moved rows for the compaction writer, or nil for an empty
// tail. Only a publish freezes, after its sort, so the tail is in order.
func (c *liveCol[T]) freeze(seg *spillSeg, lo, hi func(*T) trace.Time) []T {
	rows := c.Rows
	if len(rows) == 0 {
		return nil
	}
	c.parts = append(c.parts, colPart[T]{seg, rows})
	c.Rows = nil
	seg.bytes += int64(len(rows)) * c.rowBytes()
	seg.cover(lo(&rows[0]), hi(&rows[len(rows)-1]))
	return rows
}

// install swaps the heap rows of the part frozen into seg for view,
// the same rows mapped back from the written segment file, and reports
// whether it did. Snapshots that captured the old part list keep the
// heap rows. A column that was unspilled or lost the part to retention
// meanwhile is left alone.
func (c *liveCol[T]) install(seg *spillSeg, view []T) bool {
	for i := range c.parts {
		if c.parts[i].seg == seg && len(view) == len(c.parts[i].rows) {
			parts := append([]colPart[T](nil), c.parts...)
			parts[i].rows = view
			c.parts = parts
			return true
		}
	}
	return false
}

// drop ages out the leading parts frozen into segments older than
// segment id keep and returns how many events left the column. Every
// logical index shifts down by that count.
func (c *liveCol[T]) drop(keep int) (removed int) {
	k := 0
	for k < len(c.parts) && c.parts[k].seg.id < keep {
		removed += len(c.parts[k].rows)
		k++
	}
	if k > 0 {
		// A fresh list, not a reslice: the dropped parts (and their
		// mappings) must not stay reachable through the backing array.
		c.parts = append([]colPart[T](nil), c.parts[k:]...)
	}
	return removed
}

// unspill pulls every part back in front of the tail, crediting the
// rows to their segments.
func (c *liveCol[T]) unspill() {
	if len(c.parts) == 0 {
		return
	}
	for _, p := range c.parts {
		p.seg.bytes -= int64(len(p.rows)) * c.rowBytes()
	}
	c.Column = Column[T]{Rows: c.all()}
}

// Ordering timestamps of the four event families, and the end of a
// state.
func stateTime(e *trace.StateEvent) trace.Time       { return e.Start }
func discreteTime(e *trace.DiscreteEvent) trace.Time { return e.Time }
func commTime(e *Comm) trace.Time                    { return e.Time }
func sampleTime(e *Sample) trace.Time                { return e.Time }
func stateEnd(e *trace.StateEvent) trace.Time        { return e.End }

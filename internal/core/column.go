package core

import (
	"sort"
	"unsafe"

	"github.com/openstream/aftermath/internal/agg"
	"github.com/openstream/aftermath/internal/trace"
)

// colPart is one spilled run of a column: the events that left the RAM
// tail together at one freeze, and the segment that carries them. rows
// is the heap slice the tail was until the segment file is installed,
// then a view into the segment's mapping (which the seg pointer keeps
// alive for as long as any snapshot holds the part).
type colPart[T any] struct {
	seg  *spillSeg
	rows []T
}

// liveCol is the builder side of one time-sorted event array — a CPU's
// states, discrete or communication events, or one (counter, CPU)
// sample array. The logical array is the spilled parts, oldest first,
// followed by the RAM tail, in stream order. Every builder operation
// on every event family is a method of this one type.
//
// A snapshot captures a column as the value (parts, tail) at publish
// and must keep reading exactly those events while the writer goes on,
// so no operation ever writes at an index a captured value covers:
// push appends past the tail's length, freeze appends past the part
// list's length and starts a new tail, and install, drop and unspill
// replace this column's part list (or tail) with a fresh one instead
// of editing it. That is the whole argument for readers of older
// epochs being race-free; it involves no other column.
//
// The format guarantees per-CPU timestamp order, so dirty stays false
// in practice; a producer that violates it costs the column a copy and
// stable sort per snapshot, the repair a batch load performs once.
//
// All fields are guarded by Live.mu.
type liveCol[T any] struct {
	parts []colPart[T]
	tail  []T
	// nPart counts the events in parts: the tail's logical offset.
	nPart int
	// last is the latest pushed timestamp. seen arms the order check
	// with the first push and keeps it armed while the tail is empty
	// after a freeze.
	last  trace.Time
	seen  bool
	dirty bool
}

// push appends v, whose ordering timestamp is t, and reports whether
// this event took the column from clean to dirty. The caller then
// unspills it: the snapshot repair sorts the whole array, so the whole
// array has to be in RAM.
func (c *liveCol[T]) push(v T, t trace.Time) (wentDirty bool) {
	if c.seen && t < c.last && !c.dirty {
		c.dirty, wentDirty = true, true
	}
	c.last, c.seen = t, true
	c.tail = append(c.tail, v)
	return wentDirty
}

// len returns the logical event count.
func (c *liveCol[T]) len() int { return c.nPart + len(c.tail) }

// tailBytes returns the size of the RAM tail.
func (c *liveCol[T]) tailBytes() int64 { return int64(len(c.tail)) * c.rowBytes() }

func (c *liveCol[T]) rowBytes() int64 {
	var v T
	return int64(unsafe.Sizeof(v))
}

// freeze moves a clean, non-empty tail into a new part of seg — a
// slice-header move, no event is copied — charges it to the segment
// and returns the moved rows for the compaction writer. Dirty columns
// never freeze, and return nil like empty ones.
func (c *liveCol[T]) freeze(seg *spillSeg) []T {
	rows := c.tail
	if c.dirty || len(rows) == 0 {
		return nil
	}
	c.parts = append(c.parts, colPart[T]{seg, rows})
	c.nPart += len(rows)
	c.tail = nil
	seg.bytes += int64(len(rows)) * c.rowBytes()
	return rows
}

// install swaps the heap rows of the part frozen into seg for view,
// the same rows mapped back from the written segment file. Snapshots
// that captured the old part list keep the heap rows. A column that
// was unspilled or lost the part to retention meanwhile is left alone.
func (c *liveCol[T]) install(seg *spillSeg, view []T) {
	for i := range c.parts {
		if c.parts[i].seg == seg && len(view) == len(c.parts[i].rows) {
			parts := append([]colPart[T](nil), c.parts...)
			parts[i].rows = view
			c.parts = parts
			return
		}
	}
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
		c.nPart -= removed
	}
	return removed
}

// unspill pulls every part back in front of the tail, crediting the
// rows to their segments. Called once, when the column goes dirty.
func (c *liveCol[T]) unspill() {
	if len(c.parts) == 0 {
		return
	}
	merged := make([]T, 0, c.len())
	for _, p := range c.parts {
		merged = append(merged, p.rows...)
		p.seg.bytes -= int64(len(p.rows)) * c.rowBytes()
	}
	c.tail = append(merged, c.tail...)
	c.parts, c.nPart = nil, 0
}

// snapshot captures the column for a published trace. A dirty column
// (all in the tail, see push) is captured as a repaired copy: sorted
// stably by key, leaving the builder's stream-order tail untouched.
func (c *liveCol[T]) snapshot(key func(*T) trace.Time) ([]colPart[T], []T) {
	if !c.dirty {
		return c.parts, c.tail
	}
	s := append([]T(nil), c.tail...)
	sort.SliceStable(s, func(a, b int) bool { return key(&s[a]) < key(&s[b]) })
	return nil, s
}

// Ordering timestamps of the four event families.
func stateTime(e *trace.StateEvent) trace.Time       { return e.Start }
func discreteTime(e *trace.DiscreteEvent) trace.Time { return e.Time }
func commTime(e *trace.CommEvent) trace.Time         { return e.Time }
func sampleTime(e *trace.CounterSample) trace.Time   { return e.Time }

// leavesOf returns the rows of parts followed by tail as one view, the
// way the indexes read a column: no allocation for an unspilled one.
func leavesOf[T any](parts []colPart[T], tail []T) agg.Leaves[T] {
	if len(parts) == 0 {
		return agg.Over(tail)
	}
	cols := make([][]T, 0, len(parts)+1)
	for _, p := range parts {
		cols = append(cols, p.rows)
	}
	return agg.Over(append(cols, tail)...)
}

// stitchWin collects the window slices of a column's spilled parts and
// RAM tail into one slice: zero-copy when the window touches a single
// part (the overwhelmingly common case — viewer windows are small), a
// copy-concat when it crosses a part boundary. win returns the
// [lo, hi) window of one sorted run. Returns nil for an empty window.
func stitchWin[T any](parts []colPart[T], tail []T, win func([]T) (int, int)) []T {
	var single []T
	var runs [][]T
	total := 0
	add := func(s []T) {
		if len(s) == 0 {
			return
		}
		lo, hi := win(s)
		if lo >= hi {
			return
		}
		p := s[lo:hi]
		switch {
		case total == 0:
			single = p
		case runs == nil:
			runs = [][]T{single, p}
		default:
			runs = append(runs, p)
		}
		total += len(p)
	}
	for _, p := range parts {
		add(p.rows)
	}
	add(tail)
	if runs == nil {
		return single
	}
	out := make([]T, 0, total)
	for _, p := range runs {
		out = append(out, p...)
	}
	return out
}

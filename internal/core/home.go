package core

import (
	"iter"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/trace"
)

// homeIndex is the trace's lazily built per-CPU index of where its
// accesses land, beside DomIndex's pyramids and the counter trees
// each Counter holds per row. Over each CPU's communication column it
// keeps two things:
//
//   - the home-node column: one byte per access, NodeOfAddr of the
//     access's address, so every reader that places an access on a node
//     (Section VI-A) reads a byte instead of searching the region table
//     (see Accesses);
//   - checkpointed prefix sums of the accessed bytes per (read | write,
//     home node). Every stride events there is one row of 2·NumNodes
//     running totals, so HomeBytes answers a window as the difference of
//     two rows plus the fewer than 2·stride events at its edges. Sums
//     subtract, so there is no pyramid above the rows.
//
// Both are filled by the first reader of the CPU, in one pass: the
// column's bytes are resolved through the region table, once per
// access over the trace's lifetime, and the rows are summed from them.
// A topology whose node ids do not fit a byte (more than 128 nodes)
// keeps no column; its readers and its row build search.
//
// A home node is NodeOfAddr through the region table, so the column and
// the rows are valid for one region table and one topology only. The
// index therefore exists only on traces whose tables are final —
// newTrace: batch loads and OpenStore. A snapshot of a live trace has
// none (a producer still grows its region table, a topology record
// replaces its nodes, and a build per epoch would cost the history per
// publish); its readers search the region table access by access, and
// no caller can tell.
//
// Nothing is built at load and nothing is stored in a snapshot file.
//
// The same rule, and the same pointer, carry the trace's fourth index:
// one TaskHome row per task of Tasks, which TaskHomes reads. Its rows are
// resolved for the whole table by the first TaskHomes call, one pass
// over the tasks shared by the workers.
type homeIndex struct {
	once sync.Once
	cpus []homeCPU

	taskOnce sync.Once
	tasks    []TaskHome
}

type homeCPU struct {
	once sync.Once
	// nodes is the home-node column, parallel to the CPU's Comm.Rows:
	// NodeOfAddr of each read and write, -1 for every other kind. nil
	// when the topology has more than maxColumnNodes nodes.
	nodes []int8
	// sums holds len(Comm)/stride rows of 2·NumNodes totals; row k-1 is
	// the total over the column's first k·stride events (the all-zero
	// row 0 is not stored). Totals wrap modulo 2⁶⁴ exactly as a running
	// sum over the events does.
	sums []int64
}

// maxColumnNodes is the most nodes whose ids, and -1, fit the column's
// int8.
const maxColumnNodes = math.MaxInt8 + 1

// homeStride returns the number of events between two rows on a machine
// of n nodes: the least power of two at which a row of 2n int64 is at
// most a twentieth of the events it follows (the paper's bound for its
// counter tree, Section VI-B-c) — 64 on an 8-node machine, 256 on a
// 32-node one.
func homeStride(n int) int {
	rowBytes := 2 * n * int(unsafe.Sizeof(int64(0)))
	evBytes := int(unsafe.Sizeof(Comm{}))
	least := max((20*rowBytes+evBytes-1)/evBytes, 1)
	return 1 << bits.Len(uint(least-1))
}

// cpu returns a CPU's whole communication column with its homes, and
// its checkpoint rows, building the home-node column and the rows on
// first use. A trace with the index has final tables, so it is no live
// snapshot and its columns have no spilled parts: a column is its Rows.
func (hi *homeIndex) cpu(tr *Trace, cpu int32) (Accesses, []int64) {
	hi.once.Do(func() { hi.cpus = make([]homeCPU, len(tr.CPUs)) })
	c := &hi.cpus[cpu]
	evs := tr.CPUs[cpu].Comm.Rows
	c.once.Do(func() {
		if tr.NumNodes() <= maxColumnNodes {
			c.nodes = make([]int8, len(evs))
			var searched int64
			for i := range evs {
				c.nodes[i] = -1
				if k := evs[i].Kind; k == trace.CommRead || k == trace.CommWrite {
					c.nodes[i] = int8(tr.NodeOfAddr(evs[i].Addr))
					searched++
				}
			}
			tr.searched.Add(searched)
		}
		all := Accesses{Events: evs, homes: c.nodes, tr: tr}
		w := 2 * tr.NumNodes()
		stride := homeStride(w / 2)
		c.sums = make([]int64, len(evs)/stride*w)
		for k := 0; w > 0 && (k+1)*w <= len(c.sums); k++ {
			row := c.sums[k*w : (k+1)*w]
			if k > 0 {
				copy(row, c.sums[(k-1)*w:])
			}
			tr.addHomeBytes(all.Slice(k*stride, (k+1)*stride), row)
		}
	})
	return Accesses{Events: evs, homes: c.nodes, tr: tr}, c.sums
}

// Accesses is a window of one CPU's communication events, in time
// order, that knows the home node of each read and write. It is how
// every reader places an access on a NUMA node (Section VI-A): the home
// bytes and TaskHomes here, the numa-heat mode, the NUMA detector's
// per-task scores, the read/write node filter and /task's access list.
// The zero value holds no events.
type Accesses struct {
	// Events are the window's events, steals and pushes included; they
	// alias trace storage and must not be modified.
	Events []Comm
	// homes is the home-node column over Events; nil where the trace
	// keeps none, and Homes searches the region table instead.
	homes []int8
	tr    *Trace
}

// Slice returns the accesses among Events[lo:hi].
func (a Accesses) Slice(lo, hi int) Accesses {
	a.Events = a.Events[lo:hi]
	if a.homes != nil {
		a.homes = a.homes[lo:hi]
	}
	return a
}

// Homes yields each read and write among Events, in order, with its
// home node: NodeOfAddr's answer, -1 for an access it cannot place.
// Other kinds are skipped. The home is read off the trace's column
// where it keeps one and resolved through the region table where it
// does not; the answer is the same.
func (a Accesses) Homes() iter.Seq2[*Comm, int32] {
	return func(yield func(*Comm, int32) bool) {
		var searched int64
		for i := range a.Events {
			ev := &a.Events[i]
			if ev.Kind != trace.CommRead && ev.Kind != trace.CommWrite {
				continue
			}
			var home int32
			if a.homes != nil {
				home = int32(a.homes[i])
			} else {
				home = a.tr.NodeOfAddr(ev.Addr)
				searched++
			}
			if !yield(ev, home) {
				break
			}
		}
		if searched > 0 {
			a.tr.searched.Add(searched)
		}
	}
}

// AccessesIn returns the communication events on row cpu with time in
// [t0, t1), read like CommIn, with their homes. On a batch-loaded or
// store-opened trace the first call for a CPU builds its home-node
// column (see homeIndex).
func (tr *Trace) AccessesIn(cpu int32, t0, t1 trace.Time) Accesses {
	return tr.accessWin(cpu, commWindow, t0, t1)
}

// TaskAccesses returns the communication events on a task's CPU with
// time in its execution window, both ends included — reads are recorded
// at the start, writes at completion, which may be MaxInt64 — with their
// homes. Other tasks' events may be among them: a reader of the task's
// own accesses checks ev.Task. An unexecuted task has none.
func (tr *Trace) TaskAccesses(t *TaskInfo) Accesses {
	return tr.accessWin(tr.RowOf(t.ExecCPU), commThrough, t.ExecStart, t.ExecEnd)
}

// accessWin returns the accesses of cpu's column in the window search
// finds for [t0, t1): off the home-node column on a trace that keeps
// one, the column's events alone on a live snapshot.
func (tr *Trace) accessWin(cpu int32, search func([]Comm, trace.Time, trace.Time) (int, int), t0, t1 trace.Time) Accesses {
	if cpu < 0 || int(cpu) >= len(tr.CPUs) {
		return Accesses{}
	}
	if tr.home == nil {
		return Accesses{Events: tr.CPUs[cpu].Comm.win(search, t0, t1), tr: tr}
	}
	all, _ := tr.home.cpu(tr, cpu)
	lo, hi := search(all.Events, t0, t1)
	return all.Slice(lo, hi)
}

// addHomeBytes adds the sizes of the reads and writes among a to row,
// at the access's home node — row[home] for a read, row[n+home] for a
// write, n = len(row)/2 = NumNodes. Accesses NodeOfAddr cannot place
// are skipped. The scan of a window and the build of the sums both run
// it.
func (tr *Trace) addHomeBytes(a Accesses, row []int64) {
	n := len(row) / 2
	for ev, home := range a.Homes() {
		if home < 0 {
			continue
		}
		at := int(home)
		if ev.Kind == trace.CommWrite {
			at += n
		}
		row[at] += int64(ev.Size)
	}
}

// HomeBytes adds to row the bytes row cpu accessed with time in [t0, t1),
// by home node: row[h] the bytes read from node h, row[NumNodes+h] the
// bytes written to it; row must hold 2·NumNodes entries. Accesses whose
// address lies in no region, or in a region homed outside the topology,
// are not counted. Any cpu and any window are valid (an empty or
// inverted window adds nothing); like CommIn, a window ending at
// MaxInt64 includes accesses at MaxInt64.
//
// On a batch-loaded or store-opened trace a window that spans two of
// the CPU's checkpoint rows (any window of two strides, see homeIndex)
// is answered from their difference and only its edges are walked,
// reading the home-node column; a live snapshot walks every access, run
// by run of the column, and searches each. The result is the same to
// the bit.
func (tr *Trace) HomeBytes(cpu int32, t0, t1 trace.Time, row []int64) {
	w := 2 * tr.NumNodes()
	if cpu < 0 || int(cpu) >= len(tr.CPUs) || w <= 0 {
		return
	}
	row = row[:w]
	stride := homeStride(w / 2)
	col := &tr.CPUs[cpu].Comm
	for k := range col.runs() {
		run, sums := Accesses{Events: col.run(k), tr: tr}, []int64(nil)
		if tr.home != nil {
			run, sums = tr.home.cpu(tr, cpu)
		}
		lo, hi := commWindow(run.Events, t0, t1)
		// Rows a and b are the first at or after lo and the last at or
		// before hi; a window that holds no two of them, and a live
		// snapshot, walk the window alone.
		if a, b := (lo+stride-1)/stride, hi/stride; tr.home != nil && a < b {
			tr.addHomeBytes(run.Slice(lo, a*stride), row)
			for i, s := range sums[(b-1)*w : b*w] {
				row[i] += s
			}
			if a > 0 {
				for i, s := range sums[(a-1)*w : a*w] {
					row[i] -= s
				}
			}
			lo = b * stride
		}
		tr.addHomeBytes(run.Slice(lo, hi), row)
	}
}

// TaskHome is what the NUMA read and write modes colour a task by
// (Section IV): the home node of most of the bytes it read, and of most
// of those it wrote.
type TaskHome struct {
	Read, Write int32
}

// TaskHomes returns the TaskHome of the task with the given ID. For each
// kind, its node is the one whose accesses of that kind among the task's
// own events (TaskAccesses) add up to the most bytes — sizes summed in int64,
// wrapping; ties to the lowest node; a node whose accesses are all of
// size 0 still counts when no other is seen — and -1 when NodeOfAddr
// places none. An unknown ID, or an unexecuted task, is (-1, -1).
//
// A batch-loaded or store-opened trace reads it off its row, eight bytes
// a task, all built by the first call (see homeIndex); a live snapshot
// resolves the task's accesses on every call. The result is the same.
func (tr *Trace) TaskHomes(id trace.TaskID) TaskHome {
	i, ok := tr.taskIndex(id)
	switch {
	case !ok:
		return TaskHome{-1, -1}
	case tr.home == nil:
		return tr.taskHomeOf(&tr.Tasks[i])
	}
	hi := tr.home
	hi.taskOnce.Do(func() {
		rows := make([]TaskHome, len(tr.Tasks))
		workers := par.Workers()
		bounds := par.Chunks(workers, len(rows))
		par.Do(workers, len(bounds)-1, func(c int) {
			for i := bounds[c]; i < bounds[c+1]; i++ {
				rows[i] = tr.taskHomeOf(&tr.Tasks[i])
			}
		})
		hi.tasks = rows
	})
	return hi.tasks[i]
}

// nodeBytes is one node's running byte count in taskHomeOf.
type nodeBytes struct {
	node  int32
	bytes int64
}

// taskHomeOf resolves a task's reads and writes to their home nodes and
// returns its TaskHome. The per-node counts live in small arrays on the
// stack, searched linearly: a task touches few nodes.
func (tr *Trace) taskHomeOf(t *TaskInfo) TaskHome {
	var buf [2][8]nodeBytes
	sums := [2][]nodeBytes{buf[0][:0], buf[1][:0]}
	for ev, home := range tr.TaskAccesses(t).Homes() {
		if ev.Task != t.ID || home < 0 {
			continue
		}
		k := 0
		if ev.Kind == trace.CommWrite {
			k = 1
		}
		at := slices.IndexFunc(sums[k], func(s nodeBytes) bool { return s.node == home })
		if at < 0 {
			at = len(sums[k])
			sums[k] = append(sums[k], nodeBytes{node: home})
		}
		sums[k][at].bytes += int64(ev.Size)
	}
	return TaskHome{dominantNode(sums[0]), dominantNode(sums[1])}
}

// dominantNode returns the node with the most bytes, ties to the lowest;
// -1 for none.
func dominantNode(sums []nodeBytes) int32 {
	best := nodeBytes{node: -1}
	for _, s := range sums {
		if best.node < 0 || s.bytes > best.bytes || (s.bytes == best.bytes && s.node < best.node) {
			best = s
		}
	}
	return best.node
}

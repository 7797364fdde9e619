package core

import (
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/trace"
)

// homeIndex is the trace's third lazily built per-CPU index, beside
// DomIndex and CounterIndex: over each CPU's communication column,
// checkpointed prefix sums of the accessed bytes per (read | write,
// home node). Every stride events it keeps one row of 2·NumNodes
// running totals, so HomeBytes answers a window as the difference of
// two rows plus the fewer than 2·stride events at its edges, resolved
// through the region table one by one. Sums subtract, so there is no
// pyramid above the rows.
//
// A home node is NodeOfAddr through the region table, so a row is
// valid for one region table and one topology only. The index therefore
// exists only on traces whose tables are final — newTrace: batch loads
// and OpenStore. A snapshot of a live trace has none (a producer still
// grows its region table, a topology record replaces its nodes, and a
// build per epoch would cost the history per publish) and answers from
// the same event loop that resolves the edges; no caller can tell.
//
// Nothing is built at load and nothing is stored in a snapshot file: a
// CPU's rows are summed by the first HomeBytes call that could use them,
// which walks the column once — what every call cost before the index
// existed.
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
	// sums holds len(Comm)/stride rows of 2·NumNodes totals; row k-1 is
	// the total over the column's first k·stride events (the all-zero
	// row 0 is not stored). Totals wrap modulo 2⁶⁴ exactly as a running
	// sum over the events does.
	sums []int64
}

// homeStride returns the number of events between two rows on a machine
// of n nodes: the least power of two at which a row of 2n int64 is at
// most a twentieth of the events it follows (the paper's bound for its
// counter tree, Section VI-B-c) — 64 on an 8-node machine, 256 on a
// 32-node one.
func homeStride(n int) int {
	rowBytes := 2 * n * int(unsafe.Sizeof(int64(0)))
	evBytes := int(unsafe.Sizeof(trace.CommEvent{}))
	least := max((20*rowBytes+evBytes-1)/evBytes, 1)
	return 1 << bits.Len(uint(least-1))
}

// rows returns the checkpoint rows of a CPU's communication column,
// summing them on first use. A trace with the index has final tables,
// so it is no live snapshot and its columns have no spilled parts: a
// column is its Rows.
func (hi *homeIndex) rows(tr *Trace, cpu int32, stride int) []int64 {
	hi.once.Do(func() { hi.cpus = make([]homeCPU, len(tr.CPUs)) })
	c := &hi.cpus[cpu]
	c.once.Do(func() {
		evs, w := tr.CPUs[cpu].Comm.Rows, 2*tr.NumNodes()
		c.sums = make([]int64, len(evs)/stride*w)
		for k := 0; (k+1)*w <= len(c.sums); k++ {
			row := c.sums[k*w : (k+1)*w]
			if k > 0 {
				copy(row, c.sums[(k-1)*w:])
			}
			tr.addHomeBytes(evs[k*stride:(k+1)*stride], row)
		}
	})
	return c.sums
}

// addHomeBytes adds the sizes of the reads and writes among evs to row,
// at the access's home node — row[home] for a read, row[n+home] for a
// write, n = len(row)/2 = NumNodes. Other kinds and accesses NodeOfAddr
// cannot place are skipped. This is the one loop that resolves an
// access to its home (Section VI-A): the scan of a window and the build
// of the sums both run it.
func (tr *Trace) addHomeBytes(evs []trace.CommEvent, row []int64) {
	n := len(row) / 2
	for i := range evs {
		ev := &evs[i]
		at := 0
		switch ev.Kind {
		case trace.CommRead:
		case trace.CommWrite:
			at = n
		default:
			continue
		}
		if home := tr.NodeOfAddr(ev.Addr); home >= 0 {
			row[at+int(home)] += int64(ev.Size)
		}
	}
}

// HomeBytes adds to row the bytes cpu accessed with time in [t0, t1),
// by home node: row[h] the bytes read from node h, row[NumNodes+h] the
// bytes written to it; row must hold 2·NumNodes entries. Accesses whose
// address lies in no region, or in a region homed outside the topology,
// are not counted. Any cpu and any window are valid (an empty or
// inverted window adds nothing); like CommIn, a window ending at
// MaxInt64 includes accesses at MaxInt64.
//
// On a batch-loaded or store-opened trace a window that spans two of
// the CPU's checkpoint rows (any window of two strides, see homeIndex)
// is answered from their difference and only its edges are walked; a
// live snapshot and a narrower window walk every access, run by run of
// the column. The result is the same to the bit.
func (tr *Trace) HomeBytes(cpu int32, t0, t1 trace.Time, row []int64) {
	w := 2 * tr.NumNodes()
	if cpu < 0 || int(cpu) >= len(tr.CPUs) || w <= 0 {
		return
	}
	row = row[:w]
	col := &tr.CPUs[cpu].Comm
	for k := range col.runs() {
		evs := col.run(k)
		lo, hi := commWindow(evs, t0, t1)
		if tr.home != nil {
			// The column is its Rows (homeIndex.rows). Rows a and b are
			// the first at or after lo and the last at or before hi; a
			// window that holds no two of them builds nothing.
			stride := homeStride(w / 2)
			if a, b := (lo+stride-1)/stride, hi/stride; a < b {
				sums := tr.home.rows(tr, cpu, stride)
				tr.addHomeBytes(evs[lo:a*stride], row)
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
		}
		tr.addHomeBytes(evs[lo:hi], row)
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
// events (TaskComm) add up to the most bytes — sizes summed in int64,
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
	for _, ev := range tr.execComm(t) {
		k := 0
		switch {
		case ev.Task != t.ID:
			continue
		case ev.Kind == trace.CommWrite:
			k = 1
		case ev.Kind != trace.CommRead:
			continue
		}
		home := tr.NodeOfAddr(ev.Addr)
		if home < 0 {
			continue
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

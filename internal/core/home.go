package core

import (
	"math/bits"
	"sync"
	"unsafe"

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
type homeIndex struct {
	once sync.Once
	cpus []homeCPU
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
// summing them on first use.
func (hi *homeIndex) rows(tr *Trace, cpu int32, stride int) []int64 {
	hi.once.Do(func() { hi.cpus = make([]homeCPU, len(tr.CPUs)) })
	c := &hi.cpus[cpu]
	c.once.Do(func() {
		evs, w := tr.CPUs[cpu].Comm, 2*tr.NumNodes()
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
// inverted window adds nothing).
//
// On a batch-loaded or store-opened trace a window that spans two of
// the CPU's checkpoint rows (any window of two strides, see homeIndex)
// is answered from their difference and only its edges are walked; a
// live snapshot, a spilled column and a narrower window walk every
// access. The result is the same to the bit.
func (tr *Trace) HomeBytes(cpu int32, t0, t1 trace.Time, row []int64) {
	w := 2 * tr.NumNodes()
	if cpu < 0 || int(cpu) >= len(tr.CPUs) || w <= 0 {
		return
	}
	row = row[:w]
	if int(cpu) < len(tr.spilled) {
		for _, p := range tr.spilled[cpu].comm {
			lo, hi := commWindow(p.rows, t0, t1)
			tr.addHomeBytes(p.rows[lo:hi], row)
		}
	}
	evs := tr.CPUs[cpu].Comm
	lo, hi := commWindow(evs, t0, t1)
	if tr.home != nil {
		// Rows a and b are the first at or after lo and the last at or
		// before hi; a window that holds no two of them builds nothing.
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

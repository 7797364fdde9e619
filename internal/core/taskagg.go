// Incrementally maintained trace-global aggregates. The anomaly
// detectors score every finding against trace-global baselines — the
// per-type duration populations (duration outliers), each task's
// remote-access summary and the machine-wide communication totals
// (NUMA anomalies). A cold scan derives those baselines by walking the
// whole trace; a live trace would pay that walk on every published
// epoch even though only the appended events can change them. The
// types here carry the baselines *inside* the snapshot: the live
// builder updates them from the appended data alone (see live.go) and
// seeds each snapshot, so consumers ask the trace first and fall back
// to the full walk only when no index was seeded (batch loads,
// hand-built traces).
//
// Every value is defined to be byte-identical to what the
// corresponding full walk computes — the live batch-equivalence
// harness (TestStreamEqualsBatch) compares indexed snapshots against
// cold scans, so any drift is a test failure, not a rendering quirk.
package core

import (
	"sort"

	"github.com/openstream/aftermath/internal/trace"
)

// LocSum summarizes one task's memory-access locality: the bytes it
// touched in known regions, the bytes homed away from its executing
// node, and the remote node holding the most of them (ties toward the
// lowest node id; -1 when nothing was remote). It is exactly the
// accumulation the NUMA detector performs per task, hoisted here so
// the incremental maintenance and the cold path share one definition.
type LocSum struct {
	Total     int64
	Remote    int64
	WorstNode int32
}

// TaskLocalityOf computes a task's LocSum by scanning its
// communication events — the single definition of the accumulation.
// The result is independent of event order: Total and Remote are sums,
// and WorstNode resolves to the argmax of the final per-node byte
// counts with ties toward the lowest node id, because a node can only
// take the lead when its running count strictly exceeds the leader's
// (or equals it with a lower id), and counts only grow.
func TaskLocalityOf(tr *Trace, t *TaskInfo) LocSum {
	if t.ExecCPU < 0 {
		return LocSum{WorstNode: -1}
	}
	execNode := tr.NodeOfCPU(t.ExecCPU)
	ls := LocSum{WorstNode: -1}
	var worstBytes int64
	var perNode map[int32]int64
	for _, ev := range tr.TaskComm(t) {
		if ev.Kind != trace.CommRead && ev.Kind != trace.CommWrite {
			continue
		}
		home := tr.NodeOfAddr(ev.Addr)
		if home < 0 {
			continue
		}
		n := int64(ev.Size)
		ls.Total += n
		if home != execNode {
			ls.Remote += n
			if perNode == nil {
				perNode = make(map[int32]int64)
			}
			perNode[home] += n
			if b := perNode[home]; b > worstBytes || (b == worstBytes && home < ls.WorstNode) {
				ls.WorstNode, worstBytes = home, b
			}
		}
	}
	return ls
}

// CommTotals is the trace-wide communication matrix, split by access
// kind so any kind selection can be served: Reads[a*N+h] (and Writes)
// accumulate the bytes CPU workers on node a accessed in regions homed
// on node h, over all communication events. TMin/TMax bound the event
// times accounted, so consumers can tell whether a window query covers
// every event (and the totals therefore answer it exactly).
type CommTotals struct {
	N      int
	Reads  []int64
	Writes []int64
	// Count is the number of communication events accounted, including
	// events skipped for an unknown home node.
	Count      int
	TMin, TMax trace.Time
}

// Covers reports whether the window [t0, t1) contains every
// communication event the totals accumulated, i.e. whether the totals
// equal a scan of that window.
func (ct *CommTotals) Covers(t0, t1 trace.Time) bool {
	return ct.Count == 0 || (t0 <= ct.TMin && t1 > ct.TMax)
}

// addComm accumulates one CPU's communication events [lo, len) into
// the totals, mirroring the per-event logic of the stats scan path
// (stats.CommMatrixScanOf) exactly: a CPU whose node is out of range
// contributes nothing, accesses to unknown or out-of-range homes are
// skipped, and bytes are plain int64 sums (so accumulation order can
// never change the result).
func (ct *CommTotals) addComm(tr *Trace, cpu int32, evs []trace.CommEvent, lo int) {
	accessor := int(tr.NodeOfCPU(cpu))
	for _, ev := range evs[lo:] {
		if ct.Count == 0 || ev.Time < ct.TMin {
			ct.TMin = ev.Time
		}
		if ct.Count == 0 || ev.Time > ct.TMax {
			ct.TMax = ev.Time
		}
		ct.Count++
		if accessor >= ct.N {
			continue
		}
		var mat []int64
		switch ev.Kind {
		case trace.CommRead:
			mat = ct.Reads
		case trace.CommWrite:
			mat = ct.Writes
		default:
			continue
		}
		home := tr.NodeOfAddr(ev.Addr)
		if home < 0 || int(home) >= ct.N {
			continue
		}
		mat[accessor*ct.N+int(home)] += int64(ev.Size)
	}
}

// clone returns a deep copy, so the builder can extend the totals
// while published snapshots keep theirs immutable.
func (ct *CommTotals) clone() *CommTotals {
	nc := *ct
	nc.Reads = append([]int64(nil), ct.Reads...)
	nc.Writes = append([]int64(nil), ct.Writes...)
	return &nc
}

// TaskAgg bundles the task-level aggregate baselines seeded into a
// snapshot: per-type sorted duration populations and per-task locality
// summaries.
type TaskAgg struct {
	// durs[typ] holds the execution durations of every executed task
	// of that type, ascending. Slices are copy-on-write: an epoch that
	// changes a type's population publishes a fresh slice.
	durs map[trace.TypeID][]float64
	// loc[i] is the LocSum of Trace.Tasks[i].
	loc []LocSum
}

// TaskDurations returns the sorted execution durations of every
// executed task of the given type, or nil when the trace carries no
// aggregate index (batch loads). The returned slice is shared and must
// not be modified.
func (tr *Trace) TaskDurations(typ trace.TypeID) []float64 {
	if tr.taskAgg == nil {
		return nil
	}
	return tr.taskAgg.durs[typ]
}

// TaskLocality returns the per-task locality summaries aligned with
// Tasks, or nil when the trace carries no aggregate index. The
// returned slice is shared and must not be modified.
func (tr *Trace) TaskLocality() []LocSum {
	if tr.taskAgg == nil {
		return nil
	}
	return tr.taskAgg.loc
}

// CommTotals returns the trace-wide communication totals, or nil when
// the trace carries no aggregate index. The returned value is shared
// and must not be modified.
func (tr *Trace) CommTotals() *CommTotals {
	return tr.commTotals
}

// mergeSorted merges a sorted population with sorted additions into a
// fresh slice.
func mergeSorted(s, add []float64) []float64 {
	out := make([]float64, 0, len(s)+len(add))
	i, j := 0, 0
	for i < len(s) && j < len(add) {
		if s[i] <= add[j] {
			out = append(out, s[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	out = append(out, s[i:]...)
	return append(out, add[j:]...)
}

// removeSorted removes one instance of each value in rem from the
// sorted population s, into a fresh slice. Values are exact (durations
// are integer cycle counts converted to float64), so bitwise equality
// finds them; a value not present is ignored.
func removeSorted(s, rem []float64) []float64 {
	out := append([]float64(nil), s...)
	for _, v := range rem {
		i := sort.SearchFloat64s(out, v)
		if i < len(out) && out[i] == v {
			out = append(out[:i], out[i+1:]...)
		}
	}
	return out
}

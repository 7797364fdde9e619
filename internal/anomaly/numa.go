package anomaly

import (
	"fmt"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/hw"
	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/stats"
)

// numaMinBytes is the least data a task must touch before its access
// locality is judged; tiny tasks yield meaningless fractions.
const numaMinBytes = 4096

// NUMADetector finds tasks whose memory accesses are far more
// node-remote than the trace baseline — the anomaly the NUMA timeline
// modes of Section IV visualize. The baseline is the trace-wide remote
// fraction of accessed bytes, so a uniformly remote (badly scheduled)
// program does not flag every task, only those markedly worse than
// their surroundings. The score scales with how far the task's remote
// fraction exceeds the baseline; the explanation estimates the cycle
// penalty with the hardware cost model.
type NUMADetector struct {
	// HW is the cost model used to estimate remote-access penalties
	// in explanations; the zero value selects hw.Default().
	HW hw.Model
}

// Name implements Detector.
func (NUMADetector) Name() string { return "numa-remote" }

// Detect implements Detector.
func (d NUMADetector) Detect(tr *core.Trace, cfg Config) []Anomaly {
	if tr.NumNodes() < 2 {
		return nil // single-node machines have no remote accesses
	}
	model := d.HW
	if model.CacheLineBytes == 0 {
		model = hw.Default()
	}
	baseline := 1 - stats.LocalityFraction(tr, stats.ReadsAndWrites, cfg.Window.Start, cfg.Window.End)

	// The window's tasks are scored in chunks, in parallel, and merged in
	// chunk order.
	var tasks []*core.TaskInfo
	tr.EachTaskIn(cfg.Window.Start, cfg.Window.End, func(t *core.TaskInfo) { tasks = append(tasks, t) })
	bounds := par.Chunks(cfg.Workers, len(tasks))
	nChunks := len(bounds) - 1
	perChunk := make([][]Anomaly, nChunks)
	par.Do(cfg.Workers, nChunks, func(c int) {
		var out []Anomaly
		for _, t := range tasks[bounds[c]:bounds[c+1]] {
			if !cfg.Filter.Match(tr, t) {
				continue
			}
			if a, ok := scoreTaskLocality(tr, model, t, taskLocalityOf(tr, t), baseline, cfg.MinScore); ok {
				out = append(out, a)
			}
		}
		perChunk[c] = out
	})
	var out []Anomaly
	for _, as := range perChunk {
		out = append(out, as...)
	}
	return out
}

// locSum summarizes one task's memory-access locality: the bytes it
// touched in known regions, the bytes homed away from its executing
// node, and the remote node holding the most of them (ties toward the
// lowest node id; -1 when nothing was remote).
type locSum struct {
	total     int64
	remote    int64
	worstNode int32
}

// taskLocalityOf computes a task's locSum by scanning its reads and
// writes, each placed on its home node by core.Accesses. The result is
// independent of event order: total and remote are sums, and worstNode
// resolves to the argmax of the final per-node byte counts with ties
// toward the lowest node id, because a node can only take the lead
// when its running count strictly exceeds the leader's (or equals it
// with a lower id), and counts only grow.
func taskLocalityOf(tr *core.Trace, t *core.TaskInfo) locSum {
	execNode := tr.NodeOfCPU(t.ExecCPU)
	ls := locSum{worstNode: -1}
	var worstBytes int64
	// The remote bytes per node, in a stack array for the few nodes a
	// task reaches, as core's task-home rows sum theirs.
	var buf [8]nodeBytes
	perNode := buf[:0]
	for ev, home := range tr.TaskAccesses(t).Homes() {
		if ev.Task != t.ID || home < 0 {
			continue
		}
		n := int64(ev.Size)
		ls.total += n
		if home != execNode {
			ls.remote += n
			at := 0
			for at < len(perNode) && perNode[at].node != home {
				at++
			}
			if at == len(perNode) {
				perNode = append(perNode, nodeBytes{node: home})
			}
			perNode[at].bytes += n
			if b := perNode[at].bytes; b > worstBytes || (b == worstBytes && home < ls.worstNode) {
				ls.worstNode, worstBytes = home, b
			}
		}
	}
	return ls
}

// nodeBytes is a number of bytes homed on one node.
type nodeBytes struct {
	node  int32
	bytes int64
}

// scoreTaskLocality scores a task's remote-access summary against the
// baseline: a task 100% remote against a fully local baseline scores
// 10. A score below minScore builds no finding.
func scoreTaskLocality(tr *core.Trace, model hw.Model, t *core.TaskInfo, ls locSum, baseline, minScore float64) (Anomaly, bool) {
	if ls.total < numaMinBytes {
		return Anomaly{}, false
	}
	frac := float64(ls.remote) / float64(ls.total)
	excess := frac - baseline
	if excess <= 0 || excess*10 < minScore {
		return Anomaly{}, false
	}
	execNode := tr.NodeOfCPU(t.ExecCPU)
	dist := int(tr.Distance(execNode, ls.worstNode))
	if dist < 1 {
		dist = 1
	}
	penalty := model.MemCost(ls.remote, dist, 0) - model.MemCost(ls.remote, 0, 0)
	return Anomaly{
		Kind:   KindNUMARemote,
		Score:  excess * 10,
		Window: core.Interval{Start: t.ExecStart, End: t.ExecEnd},
		CPU:    t.ExecCPU,
		TaskID: t.ID,
		Explanation: fmt.Sprintf("task %d (%s) on node %d accessed %.0f%% of %d bytes remotely (baseline %.0f%%), mostly node %d; ~%d cycles of remote-access penalty",
			t.ID, tr.TypeName(t.Type), execNode, 100*frac, ls.total, 100*baseline, ls.worstNode, penalty),
	}, true
}

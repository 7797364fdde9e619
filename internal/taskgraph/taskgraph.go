// Package taskgraph reconstructs the application's task graph from the
// memory accesses recorded in a trace and analyzes it (paper Section
// III-A): nodes are tasks, edges are inter-task data dependences
// derived from read and write accesses to shared memory regions. The
// depth of each task bounds the parallelism available at each step of
// the computation (Figure 5), and subsets of the graph can be exported
// in the DOT format for visualization with Graphviz (Figures 4, 6, 11).
package taskgraph

import (
	"fmt"
	"io"
	"sort"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/tmath"
	"github.com/openstream/aftermath/internal/trace"
)

// Graph is a reconstructed task dependence graph. Node indexes are
// task indexes into Trace.Tasks.
type Graph struct {
	Trace *core.Trace
	// Succ[i] lists the successors of task i (tasks reading data
	// task i wrote); Pred[i] its predecessors.
	Succ [][]int32
	Pred [][]int32
	// edges counts distinct dependence edges.
	edges int
}

// access is one memory access event on a region.
type access struct {
	time  trace.Time
	task  int32
	write bool
}

// Reconstruct derives the task graph: for every memory region, each
// read depends on the most recent write to the region that happened at
// or before it — exactly the information the paper requires in the
// trace ("the write accesses by t00 to memory regions read by t10").
func Reconstruct(tr *core.Trace) *Graph {
	taskIdx := make(map[trace.TaskID]int32, len(tr.Tasks))
	for i := range tr.Tasks {
		taskIdx[tr.Tasks[i].ID] = int32(i)
	}
	perRegion := make(map[uint64][]access)
	for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
		for _, ev := range tr.CommIn(cpu, tr.Span.Start, tmath.SatAdd(tr.Span.End, 1)) {
			if ev.Kind != trace.CommRead && ev.Kind != trace.CommWrite {
				continue
			}
			ti, ok := taskIdx[ev.Task]
			if !ok {
				continue
			}
			// Normalize the access address to its region base so
			// partial accesses (halos) join their region's history.
			addr := ev.Addr
			if r, ok := tr.RegionAt(ev.Addr); ok {
				addr = r.Addr
			}
			perRegion[addr] = append(perRegion[addr], access{
				time: ev.Time, task: ti, write: ev.Kind == trace.CommWrite,
			})
		}
	}

	g := &Graph{
		Trace: tr,
		Succ:  make([][]int32, len(tr.Tasks)),
		Pred:  make([][]int32, len(tr.Tasks)),
	}
	seen := make(map[[2]int32]bool)
	for _, accs := range perRegion {
		// Writes before reads at equal timestamps: a reader may
		// start exactly when its producer finished.
		sort.SliceStable(accs, func(i, j int) bool {
			if accs[i].time != accs[j].time {
				return accs[i].time < accs[j].time
			}
			return accs[i].write && !accs[j].write
		})
		lastWriter := int32(-1)
		for _, a := range accs {
			if a.write {
				lastWriter = a.task
				continue
			}
			if lastWriter < 0 || lastWriter == a.task {
				continue
			}
			key := [2]int32{lastWriter, a.task}
			if seen[key] {
				continue
			}
			seen[key] = true
			g.Succ[lastWriter] = append(g.Succ[lastWriter], a.task)
			g.Pred[a.task] = append(g.Pred[a.task], lastWriter)
			g.edges++
		}
	}
	return g
}

// NumEdges returns the number of distinct dependence edges.
func (g *Graph) NumEdges() int { return g.edges }

// Depths returns each task's depth: the number of edges on the longest
// path from any task without input dependences (Section III-A's
// definition). The graph must be acyclic; tasks on cycles (which a
// well-formed trace cannot produce) get depth -1.
func (g *Graph) Depths() []int32 {
	n := len(g.Succ)
	depth := make([]int32, n)
	indeg := make([]int32, n)
	for i := 0; i < n; i++ {
		indeg[i] = int32(len(g.Pred[i]))
		depth[i] = -1
	}
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			depth[i] = 0
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for _, s := range g.Succ[t] {
			if d := depth[t] + 1; d > depth[s] {
				depth[s] = d
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return depth
}

// ParallelismByDepth returns the number of tasks at each depth — the
// upper bound on available parallelism plotted in Figure 5.
func (g *Graph) ParallelismByDepth() []int {
	depths := g.Depths()
	var maxD int32 = -1
	for _, d := range depths {
		if d > maxD {
			maxD = d
		}
	}
	out := make([]int, maxD+1)
	for _, d := range depths {
		if d >= 0 {
			out[d]++
		}
	}
	return out
}

// CriticalPathLength returns the largest depth plus one (the length of
// the longest dependence chain in tasks), or 0 for an empty graph.
func (g *Graph) CriticalPathLength() int {
	p := g.ParallelismByDepth()
	return len(p)
}

// DOTOptions controls DOT export.
type DOTOptions struct {
	// MaxTasks bounds the number of exported tasks (0 = all). Tasks
	// are chosen in task order.
	MaxTasks int
	// Label is the graph name.
	Label string
}

// WriteDOT exports a subset of the graph in the DOT language for
// visualization with Graphviz (Section III-A). Node labels carry the
// task type name; edges are data dependences.
func (g *Graph) WriteDOT(w io.Writer, opts DOTOptions) error {
	n := len(g.Succ)
	if opts.MaxTasks > 0 && opts.MaxTasks < n {
		n = opts.MaxTasks
	}
	label := opts.Label
	if label == "" {
		label = "taskgraph"
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=circle];\n", label); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		t := &g.Trace.Tasks[i]
		if _, err := fmt.Fprintf(w, "  t%d [label=%q];\n", t.ID, g.Trace.TypeName(t.Type)); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		for _, s := range g.Succ[i] {
			if int(s) >= n {
				continue
			}
			if _, err := fmt.Fprintf(w, "  t%d -> t%d;\n", g.Trace.Tasks[i].ID, g.Trace.Tasks[s].ID); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

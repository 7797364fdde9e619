package filter

import (
	"testing"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/trace"
)

func TestNilFilterMatchesAll(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 2, openstream.SchedRandom)
	var f *TaskFilter
	if got := len(Tasks(tr, f)); got != len(tr.Tasks) {
		t.Errorf("nil filter selected %d of %d", got, len(tr.Tasks))
	}
	if got := len(Tasks(tr, &TaskFilter{})); got != len(tr.Tasks) {
		t.Errorf("zero filter selected %d of %d", got, len(tr.Tasks))
	}
}

func TestTypeFilter(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 2, openstream.SchedRandom)
	init := ByTypeNames(tr, apps.SeidelInitType)
	blocks := ByTypeNames(tr, apps.SeidelBlockType)
	ni, nb := len(Tasks(tr, init)), len(Tasks(tr, blocks))
	if ni != 16 {
		t.Errorf("init tasks = %d, want 16", ni)
	}
	if nb != 32 {
		t.Errorf("block tasks = %d, want 32", nb)
	}
	both := ByTypeNames(tr, apps.SeidelInitType, apps.SeidelBlockType)
	if got := len(Tasks(tr, both)); got != ni+nb {
		t.Errorf("union filter = %d, want %d", got, ni+nb)
	}
	none := ByTypeNames(tr, "no_such_type")
	if got := len(Tasks(tr, none)); got != 0 {
		t.Errorf("unknown type matched %d tasks", got)
	}
}

func TestDurationFilter(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 2, openstream.SchedRandom)
	all := Durations(tr, nil)
	var min, max float64
	for i, d := range all {
		if i == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	f := (&TaskFilter{}).WithDuration(trace.Time(min)+1, 0)
	if got := len(Tasks(tr, f)); got >= len(all) {
		t.Errorf("min-duration filter selected everything (%d)", got)
	}
	f = (&TaskFilter{}).WithDuration(0, trace.Time(max)-1)
	if got := len(Tasks(tr, f)); got >= len(all) {
		t.Errorf("max-duration filter selected everything (%d)", got)
	}
	f = (&TaskFilter{}).WithDuration(trace.Time(max)+1, 0)
	if got := len(Tasks(tr, f)); got != 0 {
		t.Errorf("impossible duration matched %d", got)
	}
}

func TestWindowFilter(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 2, openstream.SchedRandom)
	half := tr.Span.Start + tr.Span.Duration()/2
	first := (&TaskFilter{}).WithWindow(tr.Span.Start, half)
	second := (&TaskFilter{}).WithWindow(half, tr.Span.End)
	n1, n2 := len(Tasks(tr, first)), len(Tasks(tr, second))
	if n1 == 0 || n2 == 0 {
		t.Errorf("window split found %d/%d tasks", n1, n2)
	}
	// Together they must cover all tasks (some counted twice if they
	// straddle the boundary).
	if n1+n2 < len(tr.Tasks) {
		t.Errorf("windows cover %d+%d < %d tasks", n1, n2, len(tr.Tasks))
	}
}

func TestNodeFilters(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	// Every block task writes somewhere; filtering by all nodes must
	// match every block task.
	var allNodes []int32
	for n := int32(0); int(n) < tr.NumNodes(); n++ {
		allNodes = append(allNodes, n)
	}
	blocks := ByTypeNames(tr, apps.SeidelBlockType)
	withWrites := blocks.clone()
	withWrites.WriteNodes = allNodes
	if got, want := len(Tasks(tr, withWrites)), len(Tasks(tr, blocks)); got != want {
		t.Errorf("write-anywhere filter = %d, want %d", got, want)
	}
	// Filtering by a single node must select a strict subset.
	oneNode := blocks.clone()
	oneNode.WriteNodes = []int32{0}
	n0 := len(Tasks(tr, oneNode))
	if n0 == 0 || n0 >= len(Tasks(tr, blocks)) {
		t.Errorf("node-0 write filter = %d of %d", n0, len(Tasks(tr, blocks)))
	}
	// Read filters behave likewise.
	readNode := blocks.clone()
	readNode.ReadNodes = []int32{0}
	if got := len(Tasks(tr, readNode)); got == 0 {
		t.Error("read-node filter matched nothing")
	}
}

func TestMatchTaskWithoutExecution(t *testing.T) {
	tr := &core.Trace{}
	task := &core.TaskInfo{ID: 1, ExecCPU: -1}
	if !(&TaskFilter{}).Match(tr, task) {
		t.Error("unexecuted task must match criteria-free filter")
	}
	f := &TaskFilter{MinDuration: 1}
	if f.Match(tr, task) {
		t.Error("unexecuted task cannot satisfy a duration bound")
	}
}

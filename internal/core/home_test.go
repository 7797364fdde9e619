package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/openstream/aftermath/internal/trace"
)

// scanHomeBytes is the loop stats.commMatrixOf ran over every access of
// a window before the home-node sums existed — NodeOfAddr per access —
// kept as the reference HomeBytes is held to. It is handed the column
// and tests every access's time itself, so it shares no window search
// with what it checks.
func scanHomeBytes(tr *Trace, col []Comm, t0, t1 trace.Time, row []int64) {
	n := tr.NumNodes()
	for _, ev := range col {
		// A window ending at MaxInt64 runs through it (HomeBytes' contract).
		through := t1 == math.MaxInt64 && t0 < t1
		if ev.Time < t0 || ev.Time >= t1 && !through {
			continue
		}
		at := 0
		switch ev.Kind {
		case trace.CommRead:
		case trace.CommWrite:
			at = n
		default:
			continue
		}
		home := tr.NodeOfAddr(ev.Addr)
		if home < 0 || int(home) >= n {
			continue
		}
		row[at+int(home)] += int64(ev.Size)
	}
}

// homeSumBytes returns the bytes of home-node sums tr has built.
func homeSumBytes(tr *Trace) (n int64) {
	if tr.home == nil {
		return 0
	}
	for i := range tr.home.cpus {
		n += int64(len(tr.home.cpus[i].sums)) * int64(unsafe.Sizeof(int64(0)))
	}
	return n
}

// homeCase is a topology, a region table in arrival order, a task
// table, and per CPU the task executions and one time-ordered
// communication column.
type homeCase struct {
	topo    trace.Topology
	regions []trace.MemRegion
	tasks   []trace.Task
	execs   [][]trace.StateEvent
	comm    [][]trace.CommEvent
}

// genHomeCase draws a case with one column of each given length on a
// machine of the given node count. It holds what a simulated run never
// does: regions homed on node -1 and on nodes the topology lacks, a
// region registered again at the address of an earlier one on another
// node, holes between regions, a page homed on the topology's last node, accesses below, between and past every
// region, steals and pushes between the reads and writes, runs of equal
// timestamps, and sizes whose running sum wraps.
//
// Each column is cut into task executions of one to six events, from
// the first one's time to the last one's, so that at a run of equal
// timestamps one task's write and the next one's read fall into both
// windows. Within an execution, one event in three repeats the kind and
// size of the one before, so that two nodes can tie, and one in five
// belongs to another task: the one executed before, or one of three
// declared tasks that never execute. Half the executed tasks are
// declared; the others are synthesized from their execution.
func genHomeCase(rng *rand.Rand, nodes int, lens []int) *homeCase {
	c := &homeCase{topo: trace.Topology{
		Name:      "home",
		NumNodes:  int32(nodes),
		NodeOfCPU: make([]int32, len(lens)),
		Distance:  make([]int32, nodes*nodes),
	}}
	if nodes == 0 {
		c.topo.NodeOfCPU = nil // no CPU can be placed: every one reads as node 0
	}
	for cpu := range c.topo.NodeOfCPU {
		c.topo.NodeOfCPU[cpu] = int32(rng.Intn(nodes))
	}
	homes := []int32{-1, int32(nodes), int32(nodes) + 2}
	for h := 0; h < nodes; h++ {
		homes = append(homes, int32(h), int32(h), int32(h))
	}
	for i := 0; i < 24; i++ {
		page := uint64(2 + rng.Intn(16))
		c.regions = append(c.regions, trace.MemRegion{
			ID:   trace.RegionID(i + 1),
			Addr: page << 12,
			Size: uint64(1 + rng.Intn(0x1000)),
			Node: homes[rng.Intn(len(homes))],
		})
	}
	if nodes > 0 {
		// The last region registered at its address wins it, so a
		// whole page of it is the topology's last node: the one an id
		// type too narrow for the node count loses first.
		last := &c.regions[len(c.regions)-1]
		last.Node, last.Size = int32(nodes-1), 0x1000
	}
	sizes := []uint64{0, 1, 64, 4096, 1 << 62, 1 << 63, math.MaxUint64, math.MaxUint64 - 63}
	kinds := []trace.CommKind{trace.CommRead, trace.CommRead, trace.CommRead, trace.CommWrite, trace.CommWrite, trace.CommSteal, trace.CommPush}
	c.comm = make([][]trace.CommEvent, len(lens))
	for cpu, n := range lens {
		at := trace.Time(rng.Intn(50))
		for i := 0; i < n; i++ {
			at += trace.Time([]int{0, 0, 1, 2, 7}[rng.Intn(5)])
			c.comm[cpu] = append(c.comm[cpu], trace.CommEvent{
				Kind:   kinds[rng.Intn(len(kinds))],
				CPU:    int32(cpu),
				SrcCPU: -1,
				Time:   at,
				Addr:   uint64(rng.Intn(20))<<12 + uint64(rng.Intn(0x1000)),
				Size:   sizes[rng.Intn(len(sizes))],
			})
		}
	}
	idle := []trace.TaskID{1, 2, 3}
	for _, id := range idle {
		c.tasks = append(c.tasks, trace.Task{ID: id, Type: 1})
	}
	next := trace.TaskID(len(idle) + 1)
	c.execs = make([][]trace.StateEvent, len(lens))
	for cpu, col := range c.comm {
		for i := 0; i < len(col); {
			j := min(i+1+rng.Intn(6), len(col))
			id := next
			next++
			if id%2 == 0 {
				c.tasks = append(c.tasks, trace.Task{ID: id, Type: 1, CreatorCPU: int32(cpu)})
			}
			c.execs[cpu] = append(c.execs[cpu], trace.StateEvent{
				CPU: int32(cpu), State: trace.StateTaskExec, Start: col[i].Time, End: col[j-1].Time, Task: id,
			})
			for k := i; k < j; k++ {
				col[k].Task = id
				if k > i && rng.Intn(3) == 0 {
					col[k].Kind, col[k].Size = col[k-1].Kind, col[k-1].Size
				}
				if rng.Intn(5) == 0 {
					col[k].Task = []trace.TaskID{id - 1, idle[rng.Intn(len(idle))]}[rng.Intn(2)]
				}
			}
			i = j
		}
	}
	return c
}

// stream writes the case as a native trace: topology, regions, tasks,
// executions, columns.
func (c *homeCase) stream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	err := w.WriteTopology(c.topo)
	for _, r := range c.regions {
		if err == nil {
			err = w.WriteRegion(r)
		}
	}
	for _, task := range c.tasks {
		if err == nil {
			err = w.WriteTask(task)
		}
	}
	for _, states := range c.execs {
		for _, s := range states {
			if err == nil {
				err = w.WriteState(s)
			}
		}
	}
	for _, col := range c.comm {
		for _, ev := range col {
			if err == nil {
				err = w.WriteComm(ev)
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// batch returns part p of parts of the case for a live trace: that share
// of every column and of the region and task tables, the topology with
// part 0.
func (c *homeCase) batch(p, parts int) *trace.RecordBatch {
	b := &trace.RecordBatch{}
	if p == 0 {
		b.Topologies = []trace.Topology{c.topo}
	}
	share := func(n int) (int, int) { return n * p / parts, n * (p + 1) / parts }
	lo, hi := share(len(c.regions))
	b.Regions = c.regions[lo:hi]
	lo, hi = share(len(c.tasks))
	b.Tasks = c.tasks[lo:hi]
	for _, states := range c.execs {
		lo, hi := share(len(states))
		b.States = append(b.States, states[lo:hi]...)
	}
	for _, col := range c.comm {
		lo, hi := share(len(col))
		b.Comms = append(b.Comms, col[lo:hi]...)
	}
	return b
}

// resident builds the case as the trace a batch load gives — newTrace,
// so it keeps home-node sums — without the decode.
func (c *homeCase) resident() *Trace {
	tr := newTrace()
	tr.Topology = c.topo
	tr.Regions = slices.Clone(c.regions)
	sortRegions(tr.Regions)
	tr.CPUs = make([]CPUData, len(c.comm))
	execs := make([]cpuExecs, len(c.comm))
	for cpu, col := range c.comm {
		tr.CPUs[cpu].ID = int32(cpu)
		tr.CPUs[cpu].Comm.Rows = commRows(col)
		tr.CPUs[cpu].States.Rows = c.execs[cpu]
		execs[cpu] = cpuExecs{int32(cpu), collectExecs(c.execs[cpu])}
	}
	var tasks refTasks
	for _, task := range c.tasks {
		tasks.apply(task)
	}
	tr.Tasks = tasks.placed(execs)
	return tr
}

// live feeds the case to a live trace in four epochs, spilling every
// tail when dir is set, and returns the last snapshot.
func (c *homeCase) live(t testing.TB, dir string) (*Live, *Trace) {
	t.Helper()
	lv := NewLive()
	if dir != "" {
		lv.SetRetention(RetentionPolicy{Dir: dir, SpillBytes: 1})
	}
	const parts = 4
	for p := 0; p < parts; p++ {
		if err := lv.Append(c.batch(p, parts)); err != nil {
			t.Fatal(err)
		}
		lv.Publish()
		if err := lv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A publish spills after it stored its snapshot: one more sees it.
	snap, _ := lv.Publish()
	return lv, snap
}

// checkHomeWindow holds HomeBytes on tr to the scan of col, the column
// cpu was given (nil for a CPU the trace lacks), for one window.
func checkHomeWindow(t testing.TB, ctx string, tr *Trace, cpu int32, col []Comm, t0, t1 trace.Time) {
	t.Helper()
	w := 2 * tr.NumNodes()
	got, ref := make([]int64, w), make([]int64, w)
	tr.HomeBytes(cpu, t0, t1, got)
	scanHomeBytes(tr, col, t0, t1, ref)
	if !slices.Equal(got, ref) {
		t.Fatalf("%s: HomeBytes(cpu %d, [%d, %d)) = %v, the scan wants %v", ctx, cpu, t0, t1, got, ref)
	}
}

// taskNodeBytes is stats.TaskNodeBytes as the NUMA read and write modes
// called it for every visible task before TaskHomes existed: a fresh map
// of the bytes a task's accesses of one kind hold per home node. Kept,
// with dominantNodeOf, as the reference TaskHomes is held to. It reads
// the CPU's whole column — spilled parts, then the tail — and tests each
// access's time and task itself, so it shares no window search with what
// it checks.
func taskNodeBytes(tr *Trace, t *TaskInfo, kind trace.CommKind) map[int32]int64 {
	out := make(map[int32]int64)
	if t.ExecCPU < 0 || int(t.ExecCPU) >= len(tr.CPUs) {
		return out
	}
	for _, ev := range tr.CPUs[t.ExecCPU].Comm.all() {
		if ev.Task != t.ID || ev.Kind != kind || ev.Time < t.ExecStart || ev.Time > t.ExecEnd {
			continue
		}
		if home := tr.NodeOfAddr(ev.Addr); home >= 0 {
			out[home] += int64(ev.Size)
		}
	}
	return out
}

// dominantNodeOf is the reference TaskHomes answers: the node holding the most bytes,
// ties to the lowest, -1 when nothing is known.
func dominantNodeOf(bytes map[int32]int64) int32 {
	best, bestBytes := int32(-1), int64(0)
	for node, b := range bytes {
		if b > bestBytes || (b == bestBytes && node < best) || best < 0 {
			best, bestBytes = node, b
		}
	}
	return best
}

// homeCover counts the corners checkTaskHomes met, so a test can tell
// that its cases reach them.
type homeCover struct {
	unexecuted, foreign, zeroOnly, tie, wrapped int
}

// checkTaskHomes holds TaskHomes to the reference for every task of tr
// and counts the corners in cov.
func checkTaskHomes(t testing.TB, ctx string, tr *Trace, cov *homeCover) {
	t.Helper()
	for i := range tr.Tasks {
		task := &tr.Tasks[i]
		read, write := taskNodeBytes(tr, task, trace.CommRead), taskNodeBytes(tr, task, trace.CommWrite)
		want := TaskHome{dominantNodeOf(read), dominantNodeOf(write)}
		if got := tr.TaskHomes(task.ID); got != want {
			t.Fatalf("%s: task %d: TaskHomes = %+v, the reference wants %+v (read %v, write %v)", ctx, task.ID, got, want, read, write)
		}
		if task.ExecCPU < 0 {
			cov.unexecuted++
		}
		for _, ev := range tr.TaskAccesses(task).Events {
			if ev.Task != task.ID {
				cov.foreign++
				break
			}
		}
		for _, bytes := range []map[int32]int64{read, write} {
			top, n := int64(math.MinInt64), 0
			for _, b := range bytes {
				switch {
				case b > top:
					top, n = b, 1
				case b == top:
					n++
				}
				if b < 0 {
					cov.wrapped++
				}
			}
			if n > 1 {
				cov.tie++
			}
			if len(bytes) == 1 && top == 0 {
				cov.zeroOnly++
			}
		}
	}
	if got := tr.TaskHomes(math.MaxUint64); got != (TaskHome{-1, -1}) {
		t.Fatalf("%s: TaskHomes of an unknown task = %+v", ctx, got)
	}
}

// homeColumnBytes returns the bytes of home-node column tr has built.
func homeColumnBytes(tr *Trace) (n int64) {
	if tr.home == nil {
		return 0
	}
	for i := range tr.home.cpus {
		n += int64(len(tr.home.cpus[i].nodes))
	}
	return n
}

// taskRowBytes returns the bytes of task rows tr has built.
func taskRowBytes(tr *Trace) int64 {
	if tr.home == nil {
		return 0
	}
	return int64(len(tr.home.tasks)) * int64(unsafe.Sizeof(TaskHome{}))
}

// homeWindows returns the windows a column is asked: the whole axis,
// empty and inverted ones, every window whose ends sit on the events one
// before, at and one after a multiple of stride, and count random ones.
func homeWindows(rng *rand.Rand, col []Comm, stride, count int) [][2]trace.Time {
	wins := [][2]trace.Time{
		{math.MinInt64, math.MaxInt64}, {math.MaxInt64, math.MinInt64}, {0, 0}, {5, 3},
	}
	if len(col) == 0 {
		return wins
	}
	var edges []trace.Time
	for k := 0; k*stride <= len(col)+1; k++ {
		for i := k*stride - 1; i <= k*stride+1; i++ {
			if i >= 0 && i < len(col) {
				edges = append(edges, col[i].Time)
			}
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			wins = append(wins, [2]trace.Time{a, b}, [2]trace.Time{a, b + 1})
		}
	}
	first, span := col[0].Time-3, col[len(col)-1].Time-col[0].Time+6
	for i := 0; i < count; i++ {
		a := first + rng.Int63n(span)
		wins = append(wins, [2]trace.Time{a, a + rng.Int63n(span)})
	}
	return wins
}

// TestHomeBytesMatchesScan: sums ≡ scan. One case — every column shape
// around the stride, a hostile region table — is batch-loaded, saved and
// mapped back, fed through a live trace and fed through a spilling one;
// on each, HomeBytes must give the row — bytes read and bytes written,
// by home node — that the scan of the column it was given gives, on
// every boundary window and on random ones.
// The two loaded traces must have answered from sums, and the two live
// ones must have built none: their region table is not final.
//
// On each, TaskHomes must give every task the reference's row, from
// rows on the loaded traces — eight bytes a task, none before the first
// question — and from the scan on the live ones, which build none; the
// cases must reach every corner homeCover counts.
func TestHomeBytesMatchesScan(t *testing.T) {
	var cov homeCover
	for nodes := 1; nodes <= 3; nodes++ {
		rng := rand.New(rand.NewSource(int64(nodes)))
		stride := homeStride(nodes)
		lens := []int{0, 1, stride - 1, stride, stride + 1, 2 * stride, 2*stride + 1, 5 * stride, 5*stride + 1, 3*stride + rng.Intn(4*stride)}
		c := genHomeCase(rng, nodes, lens)

		batch, err := FromReader(bytes.NewReader(c.stream(t)))
		if err != nil {
			t.Fatal(err)
		}
		for cpu, col := range c.comm {
			if !slices.Equal(batch.CPUs[cpu].Comm.Rows, commRows(col)) {
				t.Fatalf("precondition: cpu %d loaded %d accesses, wrote %d", cpu, len(batch.CPUs[cpu].Comm.Rows), len(col))
			}
		}
		path := filepath.Join(t.TempDir(), "home.atms")
		if err := SaveStore(batch, path); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		lv, live := c.live(t, "")
		defer lv.Close()
		sp, spilled := c.live(t, t.TempDir())
		defer sp.Close()
		if parts := len(spilled.CPUs[len(lens)-1].Comm.parts); parts < 2 {
			t.Fatalf("precondition: the longest column spilled into %d parts", parts)
		}
		arms := []struct {
			ctx  string
			tr   *Trace
			sums bool
		}{{"batch", batch, true}, {"store", mapped, true}, {"live", live, false}, {"live spilled", spilled, false}}
		for _, arm := range arms {
			ctx := fmt.Sprintf("%d nodes, %s", nodes, arm.ctx)
			if got := homeSumBytes(arm.tr) + taskRowBytes(arm.tr); got != 0 {
				t.Fatalf("%s: %d bytes of sums and rows before any question", ctx, got)
			}
			for cpu := int32(-1); int(cpu) <= len(lens); cpu++ { // -1 and len: no such CPU
				var col []Comm
				if cpu >= 0 && int(cpu) < len(lens) {
					col = commRows(c.comm[cpu])
				}
				for _, w := range homeWindows(rng, col, stride, 60) {
					checkHomeWindow(t, ctx, arm.tr, cpu, col, w[0], w[1])
				}
			}
			switch got := homeSumBytes(arm.tr); {
			case arm.sums && got == 0:
				t.Errorf("%s: no sums were built; every answer was a scan", ctx)
			case !arm.sums && got != 0:
				t.Errorf("%s: %d bytes of sums on a snapshot whose region table is not final", ctx, got)
			}
			checkTaskHomes(t, ctx, arm.tr, &cov)
			switch got, want := taskRowBytes(arm.tr), 8*int64(len(arm.tr.Tasks)); {
			case arm.sums && got != want:
				t.Errorf("%s: %d bytes of task rows for %d tasks, want %d", ctx, got, len(arm.tr.Tasks), want)
			case !arm.sums && got != 0:
				t.Errorf("%s: %d bytes of task rows on a live snapshot", ctx, got)
			}
			for i := range batch.Tasks {
				id := batch.Tasks[i].ID
				if got, want := arm.tr.TaskHomes(id), batch.TaskHomes(id); got != want {
					t.Fatalf("%s: task %d: TaskHomes = %+v, the batch load's is %+v", ctx, id, got, want)
				}
			}
		}
	}
	t.Logf("corners: %+v", cov)
	if cov.unexecuted == 0 || cov.foreign == 0 || cov.zeroOnly == 0 || cov.tie == 0 || cov.wrapped == 0 {
		t.Errorf("the cases miss a corner: %+v", cov)
	}
}

// TestHomeBytesFirstUseConcurrent: eight goroutines ask overlapping
// windows of a cold trace; each CPU's sums are built once, by whoever
// comes first, and every answer is the scan's.
func TestHomeBytesFirstUseConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const nodes = 2
	stride := homeStride(nodes)
	c := genHomeCase(rng, nodes, []int{9 * stride, 4*stride + 3, stride, 0})
	cold := c.resident()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cpu, evs := range c.comm {
				col := commRows(evs)
				for _, w := range homeWindows(rng, col, stride, 20) {
					got, ref := make([]int64, 2*nodes), make([]int64, 2*nodes)
					cold.HomeBytes(int32(cpu), w[0], w[1], got)
					scanHomeBytes(cold, col, w[0], w[1], ref)
					if !slices.Equal(got, ref) {
						t.Errorf("HomeBytes(cpu %d, [%d, %d)) = %v, the scan wants %v", cpu, w[0], w[1], got, ref)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if homeSumBytes(cold) == 0 {
		t.Error("no sums were built")
	}
}

// TestHomeSumsOverhead pins what the sums cost beside the columns they
// index, as TestDomIndexOverhead pins the dominance index: at most a
// twentieth (the paper's bound for its counter tree, Section VI-B-c) on
// the Seidel fixture's two nodes and on a 32-node machine — the stride
// follows the node count. The home-node column, counted apart, is
// exactly one byte per communication event. A trace nobody asked holds
// neither.
func TestHomeSumsOverhead(t *testing.T) {
	seidel, err := FromReader(bytes.NewReader(seidelStream(t, 12, 6)))
	if err != nil {
		t.Fatal(err)
	}
	wide := genHomeCase(rand.New(rand.NewSource(32)), 32, []int{4000, 2500, 257, 256, 255}).resident()
	for _, tc := range []struct {
		name string
		tr   *Trace
	}{{"seidel", seidel}, {"32 nodes", wide}} {
		tr := tc.tr
		if sums, column := homeSumBytes(tr), homeColumnBytes(tr); sums != 0 || column != 0 {
			t.Errorf("%s: %d bytes of sums and %d of column on a trace nobody asked", tc.name, sums, column)
		}
		var comm, events int64
		row := make([]int64, 2*tr.NumNodes())
		for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
			tr.HomeBytes(cpu, math.MinInt64, math.MaxInt64, row)
			events += int64(len(tr.CPUs[cpu].Comm.Rows))
		}
		comm = events * int64(unsafe.Sizeof(Comm{}))
		if column := homeColumnBytes(tr); column != events {
			t.Errorf("%s: %d bytes of home-node column over %d communication events, want one byte each", tc.name, column, events)
		}
		sums := homeSumBytes(tr)
		t.Logf("%s: stride %d, %d bytes of sums over %d bytes of accesses, ratio %.3f", tc.name, homeStride(tr.NumNodes()), sums, comm, float64(sums)/float64(comm))
		if sums == 0 {
			t.Errorf("%s: a full-span question built no sums", tc.name)
		}
		if sums*20 > comm {
			t.Errorf("%s: the sums own %d bytes over %d bytes of accesses, want at most a twentieth", tc.name, sums, comm)
		}
	}
}

// TestWindowAccessorsTotal: the windowed accessors answer any window.
// An empty or inverted one is nil — it used to slice evs[lo:hi] with
// lo > hi — on a resident column and on one stitched from spilled parts,
// and the whole axis is every event.
func TestWindowAccessorsTotal(t *testing.T) {
	ram := NewLive()
	defer ram.Close()
	spill := NewLive()
	spill.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	defer spill.Close()
	var resident, spilled *Trace
	for k := 0; k < 3; k++ {
		b := spillBatch(2, 20, int64(10_000*k))
		for i := range b.States {
			s := b.States[i]
			b.Discrete = append(b.Discrete, trace.DiscreteEvent{CPU: s.CPU, Time: s.Start})
		}
		resident = publish(t, ram, b)
		publishSettled(t, spill, b)
	}
	spilled, _ = spill.Publish()
	if len(spilled.CPUs[0].Comm.parts) < 2 {
		t.Fatalf("precondition: cpu 0 spilled %d parts", len(spilled.CPUs[0].Comm.parts))
	}

	const events = 60 // per CPU and family
	windows := []struct {
		name   string
		t0, t1 trace.Time
		want   int
	}{
		{"empty", 10_070, 10_070, 0},
		{"empty between events", 10_061, 10_099, 0},
		{"inverted", 20_500, 500, 0},
		{"inverted whole axis", math.MaxInt64, math.MinInt64, 0},
		{"whole axis", math.MinInt64, math.MaxInt64, events},
	}
	for _, arm := range []struct {
		name string
		tr   *Trace
	}{{"resident", resident}, {"spilled live", spilled}} {
		counter := arm.tr.Counters[0]
		for _, w := range windows {
			states, discrete := arm.tr.StatesIn(0, w.t0, w.t1), arm.tr.DiscreteIn(0, w.t0, w.t1)
			comm, samples := arm.tr.CommIn(0, w.t0, w.t1), counter.SamplesIn(0, w.t0, w.t1)
			for _, got := range []struct {
				name  string
				n     int
				isNil bool
			}{
				{"StatesIn", len(states), states == nil}, {"DiscreteIn", len(discrete), discrete == nil},
				{"CommIn", len(comm), comm == nil}, {"SamplesIn", len(samples), samples == nil},
			} {
				if got.n != w.want || got.isNil != (w.want == 0) {
					t.Errorf("%s, %s window [%d, %d): %s returns %d events (nil: %v), want %d", arm.name, w.name, w.t0, w.t1, got.name, got.n, got.isNil, w.want)
				}
			}
			row := make([]int64, 2)
			arm.tr.HomeBytes(0, w.t0, w.t1, row)
			if w.want == 0 && (row[0] != 0 || row[1] != 0) {
				t.Errorf("%s, %s window: HomeBytes counted %v", arm.name, w.name, row)
			}
		}
	}
}

// TestCommWindowThroughMaxInt64: a window ending at MaxInt64 reads the
// accesses at MaxInt64 too — CommIn and HomeBytes, on a batch load
// (answered from home-node rows) and on a spilled live snapshot — so
// [Span.Start, SatAdd(Span.End, 1)) is the whole span; the window
// [MaxInt64, MaxInt64) stays empty and one ending at MaxInt64-1 stops
// short of them.
func TestCommWindowThroughMaxInt64(t *testing.T) {
	topo := trace.Topology{Name: "one", NumNodes: 1, NodeOfCPU: []int32{0}, Distance: []int32{10}}
	region := trace.MemRegion{ID: 1, Addr: 0x1000, Size: 64}
	// The span comes from the states: this one makes it end at MaxInt64.
	idle := trace.StateEvent{State: trace.StateIdle, Start: 0, End: math.MaxInt64}
	var reads []trace.CommEvent
	for i := range 40 {
		reads = append(reads, trace.CommEvent{Kind: trace.CommRead, SrcCPU: -1, Time: trace.Time(i), Addr: 0x1000, Size: 8})
	}
	last := trace.CommEvent{Kind: trace.CommWrite, SrcCPU: -1, Time: math.MaxInt64, Addr: 0x1000, Size: 8}

	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(topo))
	must(w.WriteRegion(region))
	must(w.WriteState(idle))
	for _, ev := range append(reads, last) {
		must(w.WriteComm(ev))
	}
	must(w.Flush())
	batch, err := FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}

	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	defer lv.Close()
	publishSettled(t, lv, &trace.RecordBatch{Topologies: []trace.Topology{topo}, Regions: []trace.MemRegion{region}, States: []trace.StateEvent{idle}, Comms: reads[:20]})
	publishSettled(t, lv, &trace.RecordBatch{Comms: append(reads[20:], last)})
	spilled, _ := lv.Publish()
	if len(spilled.CPUs[0].Comm.parts) < 2 {
		t.Fatalf("precondition: cpu 0 spilled %d parts", len(spilled.CPUs[0].Comm.parts))
	}

	for _, arm := range []struct {
		name string
		tr   *Trace
	}{{"batch", batch}, {"spilled live", spilled}} {
		if arm.tr.Span.End != math.MaxInt64 {
			t.Fatalf("%s: precondition: span ends at %d", arm.name, arm.tr.Span.End)
		}
		for _, w := range []struct {
			t0, t1        trace.Time
			events, wrote int64
		}{
			{arm.tr.Span.Start, math.MaxInt64, 41, 8},
			{math.MinInt64, math.MaxInt64, 41, 8},
			{math.MinInt64, math.MaxInt64 - 1, 40, 0},
			{math.MaxInt64, math.MaxInt64, 0, 0},
		} {
			if got := int64(len(arm.tr.CommIn(0, w.t0, w.t1))); got != w.events {
				t.Errorf("%s: CommIn [%d, %d) = %d events, want %d", arm.name, w.t0, w.t1, got, w.events)
			}
			row := make([]int64, 2)
			arm.tr.HomeBytes(0, w.t0, w.t1, row)
			if want := []int64{8 * min(w.events, 40), w.wrote}; !slices.Equal(row, want) {
				t.Errorf("%s: HomeBytes [%d, %d) = %v, want %v", arm.name, w.t0, w.t1, row, want)
			}
		}
	}
}

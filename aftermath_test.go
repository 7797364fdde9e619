package aftermath

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestPublicAPIEndToEnd exercises the full public surface: build a
// workload, simulate to a file, open, analyze, filter, regress and
// render — the same flow the examples use.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := ScaledKMeansConfig(16, 500)
	cfg.MaxIterations = 3
	prog, err := BuildKMeans(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "kmeans.atm.gz")
	sim := DefaultSimConfig(SmallMachine(2, 4))
	res, err := SimulateToFile(prog, sim, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted != prog.NumTasks() {
		t.Fatalf("executed %d of %d", res.TasksExecuted, prog.NumTasks())
	}

	tr, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != prog.NumTasks() {
		t.Fatalf("loaded %d tasks", len(tr.Tasks))
	}

	// Task selection and statistics.
	src := Static(tr)
	dist := NewQuery().Types(KMeansDistanceType)
	if tasks, _ := QueryTasks(src, dist); len(tasks) == 0 {
		t.Fatal("no distance tasks")
	}
	if st, _ := QueryStats(src, NewQuery()); st.AvgParallelism <= 0 {
		t.Error("no parallelism")
	}
	if h, _ := QueryHistogram(src, dist.Clone().Bins(10)); h.Total == 0 {
		t.Error("empty histogram")
	}

	// Derived metrics and regression.
	deltas, _, err := QueryTaskDeltas(src, dist.Clone().Counter(CounterBranchMisses))
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Fatal("no deltas")
	}
	if _, _, err := QueryTaskDeltas(src, dist.Clone().Counter("bogus")); err == nil {
		t.Error("QueryTaskDeltas accepted an unknown counter")
	}
	var xs, ys []float64
	for _, d := range deltas {
		xs = append(xs, d.Rate)
		ys = append(ys, float64(d.Task.Duration()))
	}
	if _, err := LinearRegression(xs, ys); err != nil {
		t.Fatal(err)
	}

	// Task graph.
	g := ReconstructGraph(tr)
	if g.NumEdges() == 0 {
		t.Error("no edges")
	}
	var dot bytes.Buffer
	if err := g.WriteDOT(&dot, DOTOptions{MaxTasks: 20}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph") {
		t.Error("bad DOT output")
	}

	// Rendering.
	fb, _, err := QueryTimeline(src, NewQuery().Size(300, 80).Mode(ModeState).Labels(false))
	if err != nil {
		t.Fatal(err)
	}
	if fb.W() != 300 {
		t.Error("render produced nothing")
	}
	if out := ASCIITimeline(tr, 60, 8); !strings.Contains(out, "#") {
		t.Error("ASCII timeline empty")
	}
	m, _ := QueryCommMatrix(src, NewQuery().Window(tr.Span.Start, tr.Span.End+1))
	if m.Total() == 0 {
		t.Error("empty communication matrix")
	}
	if RenderCommMatrix(m, 8) == nil {
		t.Error("matrix render failed")
	}

	// Export.
	c, ok := tr.CounterByName(CounterBranchMisses)
	if !ok {
		t.Fatal("missing counter")
	}
	var csv bytes.Buffer
	if _, err := QueryTasksCSV(&csv, src, dist, []*Counter{c}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "duration") {
		t.Error("CSV missing header")
	}

	// Viewer constructs.
	if NewViewer(src, "test") == nil {
		t.Error("no viewer")
	}
}

// TestQueryHistogramWindow: a windowed histogram bins exactly the
// executed tasks QueryTasks selects with the same query, and the
// unwindowed one every executed task.
func TestQueryHistogramWindow(t *testing.T) {
	prog, err := BuildSeidel(ScaledSeidelConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := SimulateToTrace(prog, DefaultSimConfig(SmallMachine(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	src := Static(tr)
	executed := func(q *Query) int {
		tasks, _ := QueryTasks(src, q)
		n := 0
		for _, task := range tasks {
			if task.ExecCPU >= 0 {
				n++
			}
		}
		return n
	}
	windowed := NewQuery().Window(tr.Span.Start, tr.Span.Start+tr.Span.Duration()/10)
	all := NewQuery()
	hw, _ := QueryHistogram(src, windowed)
	ha, _ := QueryHistogram(src, all)
	if want := executed(windowed); hw.Total != want {
		t.Errorf("windowed histogram holds %d tasks, QueryTasks selects %d executed", hw.Total, want)
	}
	if want := executed(all); ha.Total != want {
		t.Errorf("unwindowed histogram holds %d tasks, the trace executed %d", ha.Total, want)
	}
	if hw.Total == 0 || hw.Total >= ha.Total {
		t.Errorf("window selects %d of %d tasks; the check above needs a proper non-empty subset", hw.Total, ha.Total)
	}
}

// TestSimulateInMemory checks the io.Writer-based simulation entry.
func TestSimulateInMemory(t *testing.T) {
	prog, err := BuildMonteCarlo(MonteCarloConfig{Tasks: 16, SamplesPerTask: 100, CyclesPerSample: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Simulate(prog, DefaultSimConfig(SmallMachine(2, 2)), &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != 18 {
		t.Errorf("tasks = %d, want 18", len(tr.Tasks))
	}
	// Without a writer, only the result is produced.
	prog2, _ := BuildMonteCarlo(MonteCarloConfig{Tasks: 16, SamplesPerTask: 100, CyclesPerSample: 10})
	res, err := Simulate(prog2, DefaultSimConfig(SmallMachine(2, 2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted != 18 {
		t.Errorf("executed = %d", res.TasksExecuted)
	}
}

// TestMachinePresets sanity-checks the public machine constructors.
func TestMachinePresets(t *testing.T) {
	if UV2000().NumCPUs() != 192 {
		t.Error("UV2000 wrong")
	}
	if Opteron6282SE().NumNodes() != 8 {
		t.Error("Opteron wrong")
	}
	if SmallMachine(2, 3).NumCPUs() != 6 {
		t.Error("SmallMachine wrong")
	}
	if DefaultHW().FreqGHz <= 0 {
		t.Error("bad default HW model")
	}
}

// TestCustomProgram builds a workload through the public builder API.
func TestCustomProgram(t *testing.T) {
	b := NewProgramBuilder()
	typ := b.Type("stage")
	r := b.NewRegion(4096)
	first := b.Task(TaskSpec{
		Type: typ, Compute: 1000,
		Writes:  []RegionAccess{{Region: r, Bytes: 4096}},
		Creator: RootTask,
	})
	b.Task(TaskSpec{
		Type: typ, Compute: 1000,
		Reads:   []RegionAccess{{Region: r, Bytes: 4096}},
		Creator: first,
	})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(prog, DefaultSimConfig(SmallMachine(1, 2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted != 2 {
		t.Errorf("executed %d", res.TasksExecuted)
	}
}

// TestPublicAPI: the exported top-level identifiers of the package's
// non-test files are exactly those testdata/public_api.txt lists, one
// "<kind> <name>" a line in name order, so a new export shows up as a
// deliberate diff of that file rather than as silent growth.
func TestPublicAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							got = append(got, "type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								got = append(got, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(got, func(i, j int) bool {
		return strings.Fields(got[i])[1] < strings.Fields(got[j])[1]
	})
	want, err := os.ReadFile(filepath.Join("testdata", "public_api.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Errorf("exported identifiers differ from testdata/public_api.txt; got:\n%s", g)
	}
}

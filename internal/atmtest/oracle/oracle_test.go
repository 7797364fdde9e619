package oracle

import (
	"bytes"
	"image/color"
	"net/url"
	"strings"
	"testing"

	"github.com/openstream/aftermath/internal/metrics"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/trace"
)

// tiny is a trace small enough to answer by hand. CPU 0 (node 0) idles
// over [0, 4) and runs task 1 over [4, 8); CPU 1 (node 1) runs task 2
// over [0, 10), reading 64 bytes at 0x1010 at time 1 and writing 32 at
// 0x1000 at time 10. The region at 0x1000 is registered on node 0 and
// again on node 1, which holds it.
func tiny(t *testing.T) *Trace {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, err := range []error{
		w.WriteTopology(trace.Topology{Name: "two", NumNodes: 2, NodeOfCPU: []int32{0, 1}, Distance: []int32{0, 1, 1, 0}}),
		w.WriteTaskType(trace.TaskType{ID: 1, Name: "alpha"}),
		w.WriteTask(trace.Task{ID: 1, Type: 1}),
		w.WriteTask(trace.Task{ID: 2, Type: 1}),
		w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x1000, Size: 0x100, Node: 0}),
		w.WriteRegion(trace.MemRegion{ID: 2, Addr: 0x1000, Size: 0x100, Node: 1}),
		w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateIdle, Start: 0, End: 4}),
		w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Task: 1, Start: 4, End: 8}),
		w.WriteState(trace.StateEvent{CPU: 1, State: trace.StateTaskExec, Task: 2, Start: 0, End: 10}),
		w.WriteComm(trace.CommEvent{Kind: trace.CommRead, CPU: 1, SrcCPU: -1, Time: 1, Task: 2, Addr: 0x1010, Size: 64}),
		w.WriteComm(trace.CommEvent{Kind: trace.CommWrite, CPU: 1, SrcCPU: -1, Time: 10, Task: 2, Addr: 0x1000, Size: 32}),
		w.Flush(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	o, err := Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// ask returns the oracle's answer to a request it must answer.
func ask(t *testing.T, o *Trace, verb, raw string) answer {
	t.Helper()
	v, _ := url.ParseQuery(raw)
	a, ok := o.serve(verb, v)
	if !ok || a.err != nil {
		t.Fatalf("%s?%s: no answer (%v)", verb, raw, a.err)
	}
	return a
}

// rows checks a two-row, 100×50, unlabelled tile: want(row, x) is the
// colour of column x of a row, drawn over its first 24 pixel lines.
func rows(t *testing.T, fb *render.Framebuffer, want func(row, x int) color.RGBA) {
	t.Helper()
	for y := 0; y < 50; y++ {
		for x := 0; x < 100; x++ {
			c := render.Background
			if y%25 < 24 {
				c = want(y/25, x)
			}
			if got := fb.At(x, y); got != c {
				t.Fatalf("pixel (%d, %d) = %v, want %v", x, y, got, c)
			}
		}
	}
}

// TestRenderByHand: over [0, 800) a column is 8 cycles, and column 0
// of CPU 0 covers idle and task 1 for 4 cycles each — the tie goes to
// the first; over [0, 10) a column is a tenth of a cycle, widened to
// the cycle it starts in. Task 2's read and write land on the region
// registered last, node 1.
func TestRenderByHand(t *testing.T) {
	o := tiny(t)
	idle, exec := render.StateColor(trace.StateIdle), render.StateColor(trace.StateTaskExec)
	bg := render.Background
	rows(t, ask(t, o, "/render", "w=100&h=50&labels=0&t0=0&t1=800").image, func(row, x int) color.RGBA {
		switch {
		case row == 0 && x == 0:
			return idle
		case row == 1 && x < 2:
			return exec
		}
		return bg
	})
	rows(t, ask(t, o, "/render", "w=100&h=50&labels=0&t0=0&t1=10").image, func(row, x int) color.RGBA {
		switch {
		case row == 1:
			return exec
		case x < 40:
			return idle
		case x < 80:
			return exec
		}
		return bg
	})
	for _, mode := range []string{"numa-read", "numa-write"} {
		rows(t, ask(t, o, "/render", "w=100&h=50&labels=0&mode="+mode).image, func(row, x int) color.RGBA {
			if row == 1 {
				return render.CategoryColor(1)
			}
			return bg
		})
	}
}

// TestStatsByHand: /stats over the span [0, 10) leaves out the write at
// time 10, so the one access counted is CPU 1's local read.
func TestStatsByHand(t *testing.T) {
	want := `{"start":0,"end":10,"tasks":2,"avg_parallelism":1.4,"state_cycles":{"idle":4,"task_exec":14},` +
		`"local_fraction":1,"duration_hist":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1],"hist_min":4,"hist_max":10}` + "\n"
	if got := ask(t, tiny(t), "/stats", "").json; string(got) != want {
		t.Errorf("/stats:\n got %s\nwant %s", got, want)
	}
}

// TestMatrixByHand: the one access /matrix counts is node 1's read from
// node 1, so that cell is the darkest shade and the others the lightest.
func TestMatrixByHand(t *testing.T) {
	fb := ask(t, tiny(t), "/matrix", "cell=4").image
	g := render.TextWidth("00 ")
	for a := 0; a < 2; a++ {
		for h := 0; h < 2; h++ {
			want := render.MatrixShade(0)
			if a == 1 && h == 1 {
				want = render.MatrixShade(1)
			}
			if got := fb.At(g+4*h+1, g+4*a+1); got != want {
				t.Errorf("cell (%d, %d) = %v, want %v", a, h, got, want)
			}
		}
	}
}

// TestPlotByHand: in ten intervals of one cycle, CPU 0 idles in the
// first four; task 1 (4 cycles) runs in intervals 4-7 beside task 2
// (10 cycles), which runs in all of them.
func TestPlotByHand(t *testing.T) {
	o := tiny(t)
	times := []trace.Time{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, c := range []struct {
		raw    string
		series metrics.Series
	}{
		{"kind=idle&n=10", metrics.Series{Name: "workers_in_idle", Times: times, Values: []float64{1, 1, 1, 1, 0, 0, 0, 0, 0, 0}}},
		{"kind=avgdur&n=10", metrics.Series{Name: "avg_task_duration", Times: times, Values: []float64{10, 10, 10, 10, 7, 7, 7, 7, 10, 10}}},
	} {
		want, err := render.PlotSeries(render.PlotConfig{Width: 800, Height: 220, Title: strings.ToUpper(c.series.Name)}, c.series)
		if err != nil {
			t.Fatal(err)
		}
		if got := ask(t, o, "/plot", c.raw).image; !bytes.Equal(got.RGBA().Pix, want.RGBA().Pix) {
			t.Errorf("/plot?%s: not the plot of %v", c.raw, c.series.Values)
		}
	}
}

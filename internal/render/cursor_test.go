package render

import (
	"bytes"
	"image/color"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/trace"
)

// numaHeatPerPixel is numaHeat as it was before the row cursor: the
// pixel's events from two binary searches over the CPU's column
// (CommIn), no horizon. Events of tasks the filter leaves out do not
// count, as they do not in numaHeat.
func numaHeatPerPixel(p *pixelizer, cpu int32, t0, t1 trace.Time) (color.RGBA, bool) {
	myNode := p.tr.NodeOfCPU(cpu)
	var local, remote int64
	for _, ev := range p.tr.CommIn(cpu, t0, t1) {
		if ev.Kind != trace.CommRead && ev.Kind != trace.CommWrite {
			continue
		}
		if p.keep != nil && !p.keep(ev.Task) {
			continue
		}
		home := p.tr.NodeOfAddr(ev.Addr)
		if home < 0 {
			continue
		}
		if home == myNode {
			local += int64(ev.Size)
		} else {
			remote += int64(ev.Size)
		}
	}
	total := local + remote
	if total == 0 {
		if _, ok, _, _ := p.domFor(cpu).DominantExec(0, t0, t1, p.keep); !ok {
			return color.RGBA{}, false
		}
		return NUMAHeatShade(0), true
	}
	return NUMAHeatShade(float64(remote) / float64(total)), true
}

// numaHeatRowPerPixel is rowRuns in ModeNUMAHeat asking numaHeatPerPixel
// about every column.
func numaHeatRowPerPixel(p *pixelizer, cpu int32, start, end trace.Time, plotW int) []pixelRun {
	var runs []pixelRun
	for x := 0; x < plotW; x++ {
		t0, t1 := pixelWindow(start, end-start, x, plotW)
		c, ok := numaHeatPerPixel(p, cpu, t0, t1)
		switch last := len(runs) - 1; {
		case !ok:
		case last >= 0 && runs[last].x1 == x && runs[last].c == c:
			runs[last].x1 = x + 1
		default:
			runs = append(runs, pixelRun{x, x + 1, c})
		}
	}
	return runs
}

// overlayPerPixel is OverlayCounter's optimized row loop as it was
// before the row cursor: one Tree.MinMax — two binary searches over
// the whole sample array — per column.
func overlayPerPixel(fb *Framebuffer, tr *core.Trace, cfg TimelineConfig, ov OverlayConfig, ci *core.CounterIndex) Stats {
	var st Stats
	start, end := cfg.Start, cfg.End
	if start == 0 && end == 0 {
		start, end = tr.Span.Start, tr.Span.End
	}
	cpus := cfg.CPUs
	if cpus == nil {
		cpus = make([]int32, tr.NumCPUs())
		for i := range cpus {
			cpus[i] = int32(i)
		}
	}
	g, err := timelineGeometry(fb.H(), fb.W(), len(cpus), cfg.Labels)
	if err != nil {
		return st
	}
	vmin, vmax := ov.VMin, ov.VMax
	if vmin == 0 && vmax == 0 {
		first := true
		for _, cpu := range cpus {
			mn, mx, ok := overlayTree(ci, ov, cpu).MinMax(start, end)
			if !ok {
				continue
			}
			if first || float64(mn) < vmin {
				vmin = float64(mn)
			}
			if first || float64(mx) > vmax {
				vmax = float64(mx)
			}
			first = false
		}
		if vmax <= vmin {
			vmax = vmin + 1
		}
	}
	for row, cpu := range cpus[:g.visible] {
		y := row * g.rowH
		tree := overlayTree(ci, ov, cpu)
		for x := 0; x < g.plotW; x++ {
			t0, t1 := pixelWindow(start, end-start, x, g.plotW)
			st.PixelColumns++
			mn, mx, ok := tree.MinMax(t0, t1)
			if !ok {
				continue
			}
			y0 := valueToY(float64(mx), vmin, vmax, y, g.rowH)
			y1 := valueToY(float64(mn), vmin, vmax, y, g.rowH)
			fb.VLine(g.gutter+x, y0, y1, ov.Color)
			st.Rects++
		}
	}
	return st
}

// commTrace loads a hand-written trace from base on a two-node machine:
// CPUs 0 and 1 run n tasks of two types back to back (sometimes with an
// idle gap), each reading at its start, writing at its completion and
// sometimes accessing in between — local, remote and unmapped
// addresses, several accesses in one cycle, a steal among them — with a
// counter sampled at both ends; CPU 2 runs tasks and has neither
// accesses nor samples. Lengths are in units of scale cycles.
func commTrace(t *testing.T, rng *rand.Rand, n int, base, scale int64) *core.Trace {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(trace.Topology{Name: "two-node", NumNodes: 2, NodeOfCPU: []int32{0, 1, 0}, Distance: []int32{0, 1, 1, 0}}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Addr: 0x40, Name: "alpha"}))
	must(w.WriteTaskType(trace.TaskType{ID: 2, Addr: 0x80, Name: "beta"}))
	must(w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x1000, Size: 4096, Node: 0}))
	must(w.WriteRegion(trace.MemRegion{ID: 2, Addr: 0x8000, Size: 4096, Node: 1}))
	must(w.WriteCounterDesc(trace.CounterDesc{ID: 9, Name: "events", Monotonic: true}))
	addrs := []uint64{0x1000, 0x1800, 0x8000, 0x8800, 0x20}
	id := trace.TaskID(0)
	for cpu := int32(0); cpu < 3; cpu++ {
		at, value := base+int64(rng.Intn(20))*scale, int64(0)
		for i := 0; i < n; i++ {
			if gap := int64(rng.Intn(4)) * scale; gap > 0 && rng.Intn(3) == 0 {
				must(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: at, End: at + gap}))
				at += gap
			}
			id++
			d := int64(1+rng.Intn(30)) * scale
			must(w.WriteTask(trace.Task{ID: id, Type: trace.TypeID(1 + rng.Intn(2)), Created: at, CreatorCPU: cpu}))
			must(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateTaskExec, Start: at, End: at + d, Task: id}))
			if cpu < 2 {
				access := func(kind trace.CommKind, when int64) {
					must(w.WriteComm(trace.CommEvent{
						Kind: kind, CPU: cpu, SrcCPU: -1, Time: when, Task: id,
						Addr: addrs[rng.Intn(len(addrs))], Size: uint64(8 << rng.Intn(6)),
					}))
				}
				must(w.WriteSample(trace.CounterSample{CPU: cpu, Counter: 9, Time: at, Value: value}))
				if rng.Intn(4) != 0 {
					access(trace.CommRead, at)
				}
				if rng.Intn(5) == 0 {
					mid := at + rng.Int63n(d)
					access(trace.CommRead, mid)
					access(trace.CommSteal, mid)
					access(trace.CommWrite, mid)
				}
				if rng.Intn(4) != 0 {
					access(trace.CommWrite, at+d)
				}
				value += rng.Int63n(1000)
				must(w.WriteSample(trace.CounterSample{CPU: cpu, Counter: 9, Time: at + d, Value: value}))
			}
			at += d
		}
	}
	must(w.Flush())
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// cursorCase is one trace the two cursor tests walk, with the length of
// a typical event, which the deep windows are sized by.
type cursorCase struct {
	name  string
	tr    *core.Trace
	f     *filter.TaskFilter
	event int64
}

func cursorCases(t *testing.T, rng *rand.Rand) []cursorCase {
	seidel := atmtest.SeidelTrace(t, 6, 3, openstream.SchedRandom)
	spilled := atmtest.SeidelSpilledTrace(t, 6, 3, openstream.SchedRandom, 10)
	hand := commTrace(t, rng, 150, 5000, 1)
	far := commTrace(t, rng, 150, math.MaxInt64/2, 35_000)
	return []cursorCase{
		{"seidel", seidel, nil, seidel.Span.Duration() / 500},
		{"seidel-filtered", seidel, filter.ByTypeNames(seidel, "seidel_block"), seidel.Span.Duration() / 500},
		{"spilled", spilled, nil, spilled.Span.Duration() / 500},
		{"hand", hand, nil, 15},
		{"hand-filtered", hand, filter.ByTypeNames(hand, "beta"), 15},
		{"hand-wide", commTrace(t, rng, 150, 77, 35_000), nil, 500_000},
		{"hand-extreme-base", commTrace(t, rng, 150, math.MaxInt64/2, 1), nil, 15},
		{"hand-wide-extreme-base-filtered", far, filter.ByTypeNames(far, "alpha"), 500_000},
	}
}

// cursorWindows are the windows the cursor tests render tc's rows over
// at plot width w: the full span, one overhanging both span ends, then
// seeded ones — anywhere, at the harness walk's depth 10, a few events
// wide, and narrower in cycles than the plot is in columns.
func cursorWindows(rng *rand.Rand, tc cursorCase, w int) [][2]trace.Time {
	span := tc.tr.Span
	d := span.Duration()
	out := [][2]trace.Time{
		{span.Start, span.End},
		{span.Start - d/3 - 1, span.End + d/5 + 1},
	}
	for trial := 0; trial < 12; trial++ {
		off := rng.Int63n(d)
		width := d - off
		switch trial % 4 {
		case 1:
			width = min(width, d/1024+1)
		case 2:
			width = min(width, 8*tc.event)
		case 3:
			width = min(width, int64(w))
		}
		out = append(out, [2]trace.Time{span.Start + off, span.Start + off + 1 + rng.Int63n(width)})
	}
	return out
}

// TestNUMAHeatCursor: a numa-heat row swept with one forward cursor
// over the row's accesses, stepping over the stretches that hold none,
// has exactly the runs of the row asked about pixel by pixel through
// CommIn — with and without a filter, on simulated, hand-written,
// far-end-of-the-axis and spilled traces, on a CPU that has no
// accesses, over full, deep, overhanging and sub-cycle windows. And the
// horizon an answer names is true: every window inside it has that
// answer.
func TestNUMAHeatCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	stepped, promised := 0, 0
	for _, tc := range cursorCases(t, rng) {
		px := newPixelizer(tc.tr, keepOf(tc.tr, tc.f), typeIndexOf(tc.tr), indexResolver(tc.tr))
		plotW := 90 + rng.Intn(300)
		for _, win := range cursorWindows(rng, tc, plotW) {
			start, end := win[0], win[1]
			for cpu := int32(0); int(cpu) < tc.tr.NumCPUs(); cpu++ {
				got := rowRuns(px, ModeNUMAHeat, cpu, start, end, plotW, 0, 0, 10)
				want := numaHeatRowPerPixel(px, cpu, start, end, plotW)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s cpu %d window [%d, %d) %d columns: the cursor's runs differ from the per-pixel row's\n got %v\nwant %v",
						tc.name, cpu, start, end, plotW, got, want)
				}

				// The horizon property, on this row's events.
				px.comm = tc.tr.AccessesIn(cpu, start, end)
				for q := 0; q < 20; q++ {
					t0 := start + rng.Int63n(end-start)
					t1 := t0 + 1 + rng.Int63n(min(end-t0, 4*tc.event))
					px.commAt = 0
					c, ok, until, _ := px.numaHeat(cpu, 0, t0, t1)
					if until < t1 {
						t.Fatalf("%s cpu %d: numaHeat(%d, %d) reaches back to %d", tc.name, cpu, t0, t1, until)
					}
					if until == t1 {
						continue
					}
					promised++
					same := func(a, b trace.Time) {
						t.Helper()
						if wc, wok := numaHeatPerPixel(px, cpu, a, b); wok != ok || wc != c {
							t.Fatalf("%s cpu %d: numaHeat(%d, %d) = (%v, %v) until %d, but [%d, %d) is (%v, %v)",
								tc.name, cpu, t0, t1, c, ok, until, a, b, wc, wok)
						}
					}
					// Past the row's last event the horizon is the end
					// of time; sample the part of it inside the window.
					hi := min(until, end)
					if hi <= t0 {
						continue
					}
					same(t0, hi)
					same(hi-1, hi)
					for k := 0; k < 6; k++ {
						a := t0 + rng.Int63n(hi-t0)
						same(a, a+1+rng.Int63n(hi-a))
					}
				}
				if len(got) > 0 && len(got) < plotW/4 {
					stepped++
				}
			}
		}
	}
	if promised == 0 || stepped == 0 {
		t.Errorf("%d horizons promised, %d rows of few runs: the sweep was not exercised", promised, stepped)
	}
}

// asked answers a row's questions through d and counts in hinted those
// that carry a cursor past 0 — or, when scratch, drops every cursor for
// 0, the full search.
type asked struct {
	d       dominance
	scratch bool
	hinted  *int
}

func (a asked) hint(from int) int {
	if a.scratch {
		return 0
	}
	if from > 0 {
		*a.hinted++
	}
	return from
}

func (a asked) DominantStateUntil(from int, t0, t1 trace.Time) (trace.StateEvent, bool, trace.Time, int) {
	return a.d.DominantStateUntil(a.hint(from), t0, t1)
}

func (a asked) DominantExec(from int, t0, t1 trace.Time, keep func(trace.TaskID) bool) (trace.StateEvent, bool, trace.Time, int) {
	return a.d.DominantExec(a.hint(from), t0, t1, keep)
}

// TestDominanceCursor: a row swept with the dominance cursor — every
// query handed the previous answer's first event — has exactly the runs
// of the row whose every query searches from scratch, in every mode,
// with and without a filter, over TestNUMAHeatCursor's traces and
// windows (the spilled trace's multi-column views and the far end of
// the time axis among them). And the sweep hands hints on: in every
// case some query carries one.
func TestDominanceCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, tc := range cursorCases(t, rng) {
		index := indexResolver(tc.tr)
		hinted := 0
		resolver := func(scratch bool) func(int32) dominance {
			return func(cpu int32) dominance { return asked{index(cpu), scratch, &hinted} }
		}
		keep := keepOf(tc.tr, tc.f)
		swept := newPixelizer(tc.tr, keep, typeIndexOf(tc.tr), resolver(false))
		fresh := newPixelizer(tc.tr, keep, typeIndexOf(tc.tr), resolver(true))
		plotW := 90 + rng.Intn(300)
		for _, win := range cursorWindows(rng, tc, plotW) {
			start, end := win[0], win[1]
			heatMin, heatMax := visibleDurationRange(tc.tr, tc.f, start, end)
			for mode := ModeState; mode <= ModeNUMAHeat; mode++ {
				for cpu := int32(0); int(cpu) < tc.tr.NumCPUs(); cpu++ {
					got := rowRuns(swept, mode, cpu, start, end, plotW, heatMin, heatMax, 10)
					want := rowRuns(fresh, mode, cpu, start, end, plotW, heatMin, heatMax, 10)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %v cpu %d window [%d, %d) %d columns: the swept row's runs differ from the row asked from scratch\n got %v\nwant %v",
							tc.name, mode, cpu, start, end, plotW, got, want)
					}
				}
			}
		}
		if hinted == 0 {
			t.Errorf("%s: no query carried a cursor; the equality above is vacuous", tc.name)
		}
	}
}

// TestOverlayCursor: the counter overlay drawn with one forward cursor
// per row — gallop to the column's samples, one index-range query,
// columns between samples stepped over — is, pixel for pixel and count
// for count, the overlay drawn with a Tree.MinMax per column; raw
// values and rates, over the same traces and windows as
// TestNUMAHeatCursor, including a CPU without samples.
func TestOverlayCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	drawn := 0
	for _, tc := range cursorCases(t, rng) {
		if tc.f != nil {
			continue // the overlay knows no filter
		}
		name := "events"
		if _, ok := tc.tr.CounterByName(name); !ok {
			name = trace.CounterBranchMisses
		}
		c, ok := tc.tr.CounterByName(name)
		if !ok {
			t.Fatalf("%s: no counter %q", tc.name, name)
		}
		ci := tc.tr.CounterIndex()
		width := 90 + rng.Intn(300)
		for i, win := range cursorWindows(rng, tc, width) {
			cfg := TimelineConfig{Width: width, Height: 40 + rng.Intn(80), Start: win[0], End: win[1], Labels: i%2 == 0}
			ov := OverlayConfig{Counter: c, Rate: i%3 != 0, Color: AnnotationColor}
			got, want := NewFramebuffer(cfg.Width, cfg.Height), NewFramebuffer(cfg.Width, cfg.Height)
			gotStats := OverlayCounter(got, tc.tr, cfg, ov, ci)
			wantStats := overlayPerPixel(want, tc.tr, cfg, ov, ci)
			if gotStats != wantStats {
				t.Errorf("%s window [%d, %d): stats %+v, per-pixel overlay %+v", tc.name, cfg.Start, cfg.End, gotStats, wantStats)
			}
			if !bytes.Equal(got.RGBA().Pix, want.RGBA().Pix) || got.Ops != want.Ops {
				t.Errorf("%s window [%d, %d) rate=%v, %d columns: the cursor's overlay differs from the per-pixel one",
					tc.name, cfg.Start, cfg.End, ov.Rate, cfg.Width)
			}
			drawn += gotStats.Rects
		}
	}
	if drawn == 0 {
		t.Error("no overlay drew a line; the equalities above are vacuous")
	}
}

// TestNUMAHeatHonoursFilter: in numa-heat mode a filtered-out task
// exposes the background like in the other task modes, accesses and
// all. Two tasks of different types run side by side on one CPU, each
// with a remote read at its start and a remote write just before its
// end; filtering to one type must blank exactly the other's columns.
func TestNUMAHeatHonoursFilter(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(trace.Topology{Name: "two-node", NumNodes: 2, NodeOfCPU: []int32{0}, Distance: []int32{0, 1, 1, 0}}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Name: "alpha"}))
	must(w.WriteTaskType(trace.TaskType{ID: 2, Name: "beta"}))
	must(w.WriteRegion(trace.MemRegion{ID: 1, Addr: 0x8000, Size: 4096, Node: 1}))
	for i, typ := range []trace.TypeID{1, 2} {
		id, t0 := trace.TaskID(i+1), int64(i)*1000
		must(w.WriteTask(trace.Task{ID: id, Type: typ, Created: t0}))
		must(w.WriteState(trace.StateEvent{CPU: 0, State: trace.StateTaskExec, Start: t0, End: t0 + 1000, Task: id}))
		must(w.WriteComm(trace.CommEvent{Kind: trace.CommRead, CPU: 0, SrcCPU: -1, Time: t0 + 100, Task: id, Addr: 0x8000, Size: 64}))
		must(w.WriteComm(trace.CommEvent{Kind: trace.CommWrite, CPU: 0, SrcCPU: -1, Time: t0 + 900, Task: id, Addr: 0x8000, Size: 64}))
	}
	must(w.Flush())
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const width = 200 // ten cycles a column; task 1 is columns 0-99
	render := func(f *filter.TaskFilter) *Framebuffer {
		fb, _, err := Timeline(tr, TimelineConfig{Width: width, Height: 8, Start: 0, End: 2000, Mode: ModeNUMAHeat, Filter: f})
		if err != nil {
			t.Fatal(err)
		}
		return fb
	}
	all := render(nil)
	if all.At(10, 0) != NUMAHeatShade(1) || all.At(50, 0) != NUMAHeatShade(0) || all.At(190, 0) != NUMAHeatShade(1) {
		t.Fatalf("unfiltered: columns 10, 50, 190 = %v, %v, %v; want remote, local, remote", all.At(10, 0), all.At(50, 0), all.At(190, 0))
	}
	for i, name := range []string{"alpha", "beta"} {
		fb := render(filter.ByTypeNames(tr, name))
		for x := 0; x < width; x++ {
			want := Background
			if x/100 == i {
				want = all.At(x, 0)
			}
			if got := fb.At(x, 0); got != want {
				t.Errorf("types=%s: column %d = %v, want %v", name, x, got, want)
			}
		}
	}
}

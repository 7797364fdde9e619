package render

import (
	"fmt"
	"image/color"
	"sort"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/tmath"
	"github.com/openstream/aftermath/internal/trace"
)

// Mode selects one of the five timeline modes of Section II-B.
type Mode int

const (
	// ModeState shows which state each worker traverses over time.
	ModeState Mode = iota
	// ModeHeat encodes relative task duration in shades of red.
	ModeHeat
	// ModeType colors tasks by task type (the "typemap").
	ModeType
	// ModeNUMARead colors tasks by the NUMA node holding most of the
	// data they read.
	ModeNUMARead
	// ModeNUMAWrite colors tasks by the NUMA node holding most of
	// the data they write.
	ModeNUMAWrite
	// ModeNUMAHeat shades each interval from blue (local accesses)
	// to pink (remote accesses).
	ModeNUMAHeat
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeState:
		return "state"
	case ModeHeat:
		return "heatmap"
	case ModeType:
		return "typemap"
	case ModeNUMARead:
		return "numa-read"
	case ModeNUMAWrite:
		return "numa-write"
	case ModeNUMAHeat:
		return "numa-heat"
	}
	return "unknown"
}

// ParseMode parses a mode name as used by the CLI and HTTP viewer.
func ParseMode(s string) (Mode, error) {
	for m := ModeState; m <= ModeNUMAHeat; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("render: unknown timeline mode %q", s)
}

// TimelineConfig parameterizes a timeline rendering.
type TimelineConfig struct {
	// Width and Height are the output dimensions in pixels.
	Width, Height int
	// Start and End select the visible interval; both zero means the
	// full trace span. Zooming and scrolling are performed by
	// re-rendering with a different interval.
	Start, End trace.Time
	// CPUs selects the visible CPUs by id, in order; nil means all.
	CPUs []int32
	// Mode selects the timeline mode.
	Mode Mode
	// HeatMin and HeatMax bound the heatmap duration scale in
	// cycles; both zero derives the scale from the visible tasks
	// (Section II-B: "relative either to a user-defined interval or
	// to the shortest and longest task execution currently
	// displayed").
	HeatMin, HeatMax trace.Time
	// Shades quantizes the heatmap (default 10, as in Figure 7).
	Shades int
	// Filter restricts the tasks shown in heatmap, typemap and NUMA
	// modes; filtered-out tasks expose the background.
	Filter *filter.TaskFilter
	// Labels enables CPU row labels.
	Labels bool
}

// Stats reports rendering work, exposing the effect of the Section
// VI-B optimizations.
type Stats struct {
	// PixelColumns is the number of (cpu row, pixel) cells evaluated.
	PixelColumns int
	// Rects is the number of rectangle fill calls issued; rectangle
	// aggregation makes this much smaller than PixelColumns.
	Rects int
}

// MinTimelineWidth is the smallest width Timeline accepts: with
// labels, the CPU-label gutter plus one plot column; without, a
// single column. Callers deriving reduced widths (progressive
// refinement) clamp against this instead of guessing the gutter.
func MinTimelineWidth(labels bool) int {
	if !labels {
		return 1
	}
	return TextWidth("CPU 000 ") + 1
}

// Timeline renders the timeline and returns the framebuffer with
// rendering statistics. Rows (one per CPU) are computed on a bounded
// worker pool; the output is byte-identical to a sequential rendering
// (see TestTimelineParallelMatchesSequential).
func Timeline(tr *core.Trace, cfg TimelineConfig) (*Framebuffer, Stats, error) {
	return timeline(tr, cfg, par.Workers())
}

// selectRows returns the trace rows of the CPUs ids selects, in order —
// every row for nil ids — and the id each is labelled with. An id the
// trace holds no CPU for selects row -1, which every accessor reads as
// empty.
func selectRows(tr *core.Trace, ids []int32) (rows, labels []int32) {
	if ids != nil {
		rows = make([]int32, len(ids))
		for i, id := range ids {
			rows[i] = tr.RowOf(id)
		}
		return rows, ids
	}
	n := tr.NumCPUs()
	buf := make([]int32, 2*n)
	rows, labels = buf[:n:n], buf[n:]
	for r := range rows {
		rows[r], labels[r] = int32(r), tr.CPUs[r].ID
	}
	return rows, labels
}

// pixelRun is one aggregated run of identically colored pixels within
// a row: plot-relative columns [x0, x1).
type pixelRun struct {
	x0, x1 int
	c      color.RGBA
}

// timeline implements Timeline with an explicit worker count (tests
// compare worker counts with each other).
func timeline(tr *core.Trace, cfg TimelineConfig, workers int) (*Framebuffer, Stats, error) {
	var st Stats
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, st, fmt.Errorf("render: invalid dimensions %dx%d", cfg.Width, cfg.Height)
	}
	start, end := cfg.Start, cfg.End
	if start == 0 && end == 0 {
		start, end = tr.Span.Start, tr.Span.End
	}
	if end <= start {
		return nil, st, fmt.Errorf("render: empty interval [%d,%d)", start, end)
	}
	if end-start < 0 {
		// The pixel mapping needs the span as an int64.
		return nil, st, fmt.Errorf("render: interval [%d,%d) is more than 2^63-1 cycles wide", start, end)
	}
	cpus, labels := selectRows(tr, cfg.CPUs)
	if len(cpus) == 0 {
		return nil, st, fmt.Errorf("render: no CPUs selected")
	}
	shades := cfg.Shades
	if shades <= 0 {
		shades = 10
	}

	fb := NewFramebuffer(cfg.Width, cfg.Height)
	g, err := timelineGeometry(fb.H(), cfg.Width, len(cpus), cfg.Labels)
	if err != nil {
		return nil, st, err
	}

	heatMin, heatMax := cfg.HeatMin, cfg.HeatMax
	if cfg.Mode == ModeHeat && heatMin == 0 && heatMax == 0 {
		heatMin, heatMax = visibleDurationRange(tr, cfg.Filter, start, end)
	}

	typeIdx := typeIndexOf(tr)
	keep := keepOf(tr, cfg.Filter)

	// Phase 1: compute each row's aggregated pixel runs. Rows are
	// independent (per-row dominance caches suffice: a task executes
	// on a single CPU), so they fan out over the worker pool. Phase 2
	// applies labels and fills serially in row order, so the pixels
	// and draw-call accounting match a sequential rendering exactly.
	rows := make([][]pixelRun, g.visible)
	if workers > 1 {
		par.Do(workers, g.visible, func(row int) {
			px := newPixelizer(tr, keep, typeIdx)
			rows[row] = rowRuns(px, cfg.Mode, cpus[row], start, end, g.plotW, heatMin, heatMax, shades)
		})
	} else {
		px := newPixelizer(tr, keep, typeIdx)
		for row := 0; row < g.visible; row++ {
			rows[row] = rowRuns(px, cfg.Mode, cpus[row], start, end, g.plotW, heatMin, heatMax, shades)
		}
	}

	for row := 0; row < g.visible; row++ {
		y := row * g.rowH
		if cfg.Labels && g.labeled(row) {
			fb.DrawText(0, labelY(y, g.rowH), fmt.Sprintf("CPU %d", labels[row]), TextColor)
		}
		for _, run := range rows[row] {
			fb.FillRect(g.gutter+run.x0, y, run.x1-run.x0, g.drawH, run.c)
			st.Rects++
		}
		st.PixelColumns += g.plotW
	}
	return fb, st, nil
}

// rowGeometry is the shared row/gutter layout of Timeline, its counter
// overlay and its naive ablation counterpart: they must agree exactly
// so overlays land on their rows and the Section VI-B ablation
// compares rendering strategies, not coordinate systems.
type rowGeometry struct {
	// gutter is the label column width; plotW the plot width.
	gutter, plotW int
	// rowH is the row pitch; drawH the filled height (a grid line is
	// left between rows tall enough to afford one).
	rowH, drawH int
	// visible caps the rows actually drawn: rows below the
	// framebuffer bottom are never rendered.
	visible int
}

// timelineGeometry computes the layout for a framebuffer of height
// fbH and width, with nCPU rows.
func timelineGeometry(fbH, width, nCPU int, labels bool) (rowGeometry, error) {
	var g rowGeometry
	if labels {
		g.gutter = TextWidth("CPU 000 ")
	}
	g.plotW = width - g.gutter
	if g.plotW < 1 {
		return g, fmt.Errorf("render: width %d too small for labels", width)
	}
	g.rowH = fbH / nCPU
	if g.rowH < 1 {
		g.rowH = 1
	}
	g.drawH = g.rowH
	if g.rowH >= 3 {
		g.drawH = g.rowH - 1
	}
	g.visible = nCPU
	if v := (fbH + g.rowH - 1) / g.rowH; v < g.visible {
		g.visible = v
	}
	return g, nil
}

// labeled reports whether a row carries a CPU label: every row when
// the row fits the font, a sparse subset otherwise.
func (g rowGeometry) labeled(row int) bool {
	return g.rowH >= GlyphHeight || row%(GlyphHeight/maxInt(g.rowH, 1)+1) == 0
}

// labelY returns the text y for a CPU row label starting at y: the
// glyph is centered in the row when it fits and clamped to the row
// top when the row is shorter than the font — an unclamped negative
// offset made thin-row labels bleed into (and crop against) the rows
// above (see TestTimelineLabelsThinRows).
func labelY(y, rowH int) int {
	ty := y + (rowH-GlyphHeight)/2 + 1
	if ty < y {
		ty = y
	}
	return ty
}

// pixelWindow returns the time window [t0, t1) of column x of a
// w-column plot over span cycles from start — the one pixel->time
// mapping of the timeline, its counter overlay and the ASCII
// renderer. The 128-bit multiply keeps it exact where span*x
// overflows int64, which real cycle-count timestamps reach (see
// TestTimelineExtremeTimestamps); a column narrower than a cycle
// widens to one.
func pixelWindow(start, span trace.Time, x, w int) (t0, t1 trace.Time) {
	t0 = start + tmath.MulDiv(span, int64(x), int64(w))
	t1 = start + tmath.MulDiv(span, int64(x+1), int64(w))
	if t1 <= t0 {
		t1 = tmath.SatAdd(t0, 1)
	}
	return t0, t1
}

// lastColumnBy returns the last column of a w-column plot over
// [start, end) whose window ends at or before until, or -1 when not
// even column 0's does: the inverse of pixelWindow. until must lie
// past start.
func lastColumnBy(start, end, until trace.Time, w int) int {
	if until >= end {
		return w - 1
	}
	// The column until falls into. Every later one starts at or past
	// until, so it ends past it; this one or the one before is the
	// answer, and pixelWindow itself (rounding, and the widening of
	// columns narrower than a cycle) says which.
	x := int(tmath.MulDiv(until-start, int64(w), end-start))
	for ; x >= 0; x-- {
		if _, t1 := pixelWindow(start, end-start, x, w); t1 <= until {
			break
		}
	}
	return x
}

// seekFrom returns the least i in [from, n) for which ge holds, or n
// when it holds for none; ge must be false and then true over that
// range. It gallops out from from, so a cursor moving forward a column
// at a time pays O(log distance moved) rather than a search over all n.
func seekFrom(from, n int, ge func(int) bool) int {
	if from >= n || ge(from) {
		return from
	}
	lo, step := from, 1
	for lo+step < n && !ge(lo+step) {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, n)
	return lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return ge(lo + 1 + i) })
}

// rowRuns walks one CPU row's pixels, aggregating runs of identical
// color into single rectangle spans (optimization b of Section VI-B).
// It asks once per answer, not once per column: where the answer
// reaches past the pixel's window, the columns it covers are stepped
// over — they would have extended the open run, or left none open,
// exactly as the asked column did.
func rowRuns(px *pixelizer, mode Mode, cpu int32, start, end trace.Time, plotW int, heatMin, heatMax trace.Time, shades int) []pixelRun {
	var runs []pixelRun
	runStart := -1
	var runColor color.RGBA
	// The cursors belong to this row, not to its CPU or its pixelizer:
	// a CPU selected twice, and the rows a sequential rendering puts
	// through one pixelizer, each start from their own first event. at
	// is the dominance cursor (see pixelizer.dom), numaHeat's is in px.
	at := 0
	px.dom = px.tr.DomIndex().CPU(px.tr, cpu)
	px.comm, px.commAt = core.Accesses{}, 0
	if mode == ModeNUMAHeat {
		px.comm = px.tr.AccessesIn(cpu, start, end)
	}
	flush := func(xEnd int) {
		if runStart >= 0 {
			runs = append(runs, pixelRun{runStart, xEnd, runColor})
			runStart = -1
		}
	}
	for x := 0; x < plotW; {
		t0, t1 := pixelWindow(start, end-start, x, plotW)
		c, ok, until, next := px.pixelColor(mode, cpu, at, t0, t1, heatMin, heatMax, shades)
		at = next
		if !ok {
			flush(x)
		} else if runStart < 0 {
			runStart = x
			runColor = c
		} else if c != runColor {
			flush(x)
			runStart = x
			runColor = c
		}
		x++
		if until > t1 {
			x = max(x, lastColumnBy(start, end, until, plotW)+1)
		}
	}
	flush(plotW)
	return runs
}

// pixelizer computes per-pixel colors for one renderer goroutine. Its
// row state is private to its goroutine; the type index and keep
// predicate are read-only and shared across all rows of a rendering.
type pixelizer struct {
	tr *core.Trace
	// keep admits the tasks the filter matches; nil without a filter.
	keep    func(trace.TaskID) bool
	typeIdx map[trace.TypeID]int
	// dom answers the current row's questions, lock-free: which state,
	// and which admitted task execution, covers most of a pixel's
	// window [t0, t1) — and until when. A horizon until > t1 promises
	// the same answer for every window inside [t0, until), which lets
	// rowRuns step over the columns an event spans instead of asking
	// once per column; until == t1 promises nothing. Each question
	// carries the row's cursor, and its answer names the next one
	// (core.DomIndex's hint). rowRuns resolves it once per row.
	dom *core.DomCPU
	// comm holds the current row's accesses over the rendered interval
	// (ModeNUMAHeat only) and commAt the first of them not before the
	// last window asked about: numaHeat's forward cursor, which rowRuns
	// resets per row.
	comm   core.Accesses
	commAt int
}

// typeIndexOf maps type IDs to their position in tr.Types, for stable
// category colors.
func typeIndexOf(tr *core.Trace) map[trace.TypeID]int {
	ti := make(map[trace.TypeID]int, len(tr.Types))
	for i, t := range tr.Types {
		ti[t.ID] = i
	}
	return ti
}

// keepOf returns a filter as core's keep predicate, nil without one.
func keepOf(tr *core.Trace, f *filter.TaskFilter) func(trace.TaskID) bool {
	if f == nil {
		return nil
	}
	return func(id trace.TaskID) bool {
		task, ok := tr.TaskByID(id)
		return ok && f.Match(tr, task)
	}
}

func newPixelizer(tr *core.Trace, keep func(trace.TaskID) bool, typeIdx map[trace.TypeID]int) *pixelizer {
	return &pixelizer{tr: tr, keep: keep, typeIdx: typeIdx}
}

// pixelColor implements optimization (a) of Section VI-B: each pixel
// is colored once, from the predominant state (or task) covered by its
// interval. The time returned is the answer's horizon (see dom):
// in five modes the color is a function of the dominant event, so it
// reaches as far as the event's answer does; the NUMA heatmap's
// depends on the accesses inside the pixel too (see numaHeat). from
// and the int returned are the row's dominance cursor.
func (p *pixelizer) pixelColor(mode Mode, cpu int32, from int, t0, t1 trace.Time, heatMin, heatMax trace.Time, shades int) (color.RGBA, bool, trace.Time, int) {
	switch mode {
	case ModeState:
		ev, ok, until, next := p.dom.DominantStateUntil(from, t0, t1)
		if !ok {
			return color.RGBA{}, false, until, next
		}
		return StateColor(ev.State), true, until, next
	case ModeNUMAHeat:
		return p.numaHeat(cpu, from, t0, t1)
	default:
		ev, ok, until, next := p.dom.DominantExec(from, t0, t1, p.keep)
		if !ok {
			return color.RGBA{}, false, until, next
		}
		switch mode {
		case ModeHeat:
			d := ev.Duration()
			var frac float64
			if heatMax > heatMin {
				// Subtract in float64: the heat bounds are raw request
				// parameters, so d-heatMin (and the bound spread) wrap
				// in int64 when a bound sits at the far end of the
				// range; the float mapping is monotone and plenty
				// accurate for <=64 shades.
				frac = (float64(d) - float64(heatMin)) / (float64(heatMax) - float64(heatMin))
			}
			return HeatShade(frac, shades), true, until, next
		case ModeType:
			i, declared := p.typeIdx[taskType(p.tr, ev.Task)]
			if !declared {
				// Such as the type 0 of an execution whose task record
				// never arrived, on a trace whose types start at 1.
				return unknownColor, true, until, next
			}
			return CategoryColor(i), true, until, next
		case ModeNUMARead, ModeNUMAWrite:
			home := p.tr.TaskHomes(ev.Task)
			node := home.Read
			if mode == ModeNUMAWrite {
				node = home.Write
			}
			if node < 0 {
				return color.RGBA{}, false, until, next
			}
			return CategoryColor(int(node)), true, until, next
		}
	}
	return color.RGBA{}, false, t1, from
}

// numaHeat returns the remote-access shade for the accesses in
// [t0, t1) on cpu by the tasks keep admits, and the answer's horizon.
// The row's events are walked with one forward cursor: rowRuns asks
// about windows whose t0 never decreases, so the first event at or
// after t0 is found from where the last window's was. A window holding
// no access shows a running task as fully local, and that answer holds
// as far as DominantExec's does or up to the next event on the row,
// whichever comes first, so rowRuns steps over the stretch; a window
// holding accesses answers for itself alone. from and the int returned
// are the row's dominance cursor, which only DominantExec moves.
func (p *pixelizer) numaHeat(cpu int32, from int, t0, t1 trace.Time) (color.RGBA, bool, trace.Time, int) {
	evs := p.comm.Events
	i := seekFrom(p.commAt, len(evs), func(i int) bool { return evs[i].Time >= t0 })
	end := seekFrom(i, len(evs), func(i int) bool { return evs[i].Time >= t1 })
	p.commAt = i
	myNode := p.tr.NodeOfCPU(cpu)
	var local, remote int64
	for ev, home := range p.comm.Slice(i, end).Homes() {
		if home < 0 || p.keep != nil && !p.keep(ev.Task) {
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
		_, ok, until, next := p.dom.DominantExec(from, t0, t1, p.keep)
		if end < len(evs) {
			until = min(until, evs[end].Time)
		}
		if !ok {
			return color.RGBA{}, false, until, next
		}
		return NUMAHeatShade(0), true, until, next
	}
	return NUMAHeatShade(float64(remote) / float64(total)), true, t1, from
}

func taskType(tr *core.Trace, id trace.TaskID) trace.TypeID {
	if t, ok := tr.TaskByID(id); ok {
		return t.Type
	}
	return 0
}

// visibleDurationRange returns the min and max duration of filtered
// tasks overlapping [start, end), from the task window index.
func visibleDurationRange(tr *core.Trace, f *filter.TaskFilter, start, end trace.Time) (trace.Time, trace.Time) {
	var min, max trace.Time
	first := true
	tr.EachTaskIn(start, end, func(t *core.TaskInfo) {
		if !f.Match(tr, t) {
			return
		}
		d := t.Duration()
		if first || d < min {
			min = d
		}
		if first || d > max {
			max = d
		}
		first = false
	})
	return min, max
}

// NaiveTimelineState renders the state mode without the per-pixel
// dominance and aggregation optimizations: every state event becomes
// its own rectangle, sequentially overdrawn — the baseline of the
// Section VI-B ablation. Its geometry (label gutter, plot width, row
// layout, time->pixel rounding) matches Timeline's exactly, so the
// ablation compares rendering strategies, not coordinate systems;
// events straddling the window edges are clamped to it instead of
// being mapped to out-of-plot (formerly negative) columns.
func NaiveTimelineState(tr *core.Trace, cfg TimelineConfig) (*Framebuffer, Stats, error) {
	var st Stats
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, st, fmt.Errorf("render: invalid dimensions %dx%d", cfg.Width, cfg.Height)
	}
	start, end := cfg.Start, cfg.End
	if start == 0 && end == 0 {
		start, end = tr.Span.Start, tr.Span.End
	}
	if end <= start {
		return nil, st, fmt.Errorf("render: empty interval")
	}
	cpus, labels := selectRows(tr, cfg.CPUs)
	if len(cpus) == 0 {
		return nil, st, fmt.Errorf("render: no CPUs selected")
	}
	fb := NewFramebuffer(cfg.Width, cfg.Height)
	g, err := timelineGeometry(fb.H(), cfg.Width, len(cpus), cfg.Labels)
	if err != nil {
		return nil, st, err
	}
	span := end - start
	for row := 0; row < g.visible; row++ {
		cpu := cpus[row]
		y := row * g.rowH
		if cfg.Labels && g.labeled(row) {
			fb.DrawText(0, labelY(y, g.rowH), fmt.Sprintf("CPU %d", labels[row]), TextColor)
		}
		for _, ev := range tr.StatesIn(cpu, start, end) {
			s, e := ev.Start, ev.End
			if s < start {
				s = start
			}
			if e > end {
				e = end
			}
			x0 := int(tmath.MulDiv(s-start, int64(g.plotW), span))
			x1 := int(tmath.MulDiv(e-start, int64(g.plotW), span))
			if x1 <= x0 {
				x1 = x0 + 1
			}
			fb.FillRect(g.gutter+x0, y, x1-x0, g.drawH, StateColor(ev.State))
			st.Rects++
		}
	}
	return fb, st, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

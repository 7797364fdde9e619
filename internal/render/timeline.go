package render

import (
	"fmt"
	"image/color"
	"math"
	"math/bits"
	"strconv"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/mragg"
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
	// Members is the number of state events the rows' dominance walks
	// read and Queries the pyramid range queries they made
	// (mragg.Work): what the rows cost, to hold against their pixels.
	Members, Queries int
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
// a scanline: columns [x0, x1) — plot-relative in a timeline row — of
// color c, palette entry p once a framebuffer holds it. 16 bytes.
type pixelRun struct {
	x0, x1 int32
	c      color.RGBA
	p      uint8
}

// timeline implements Timeline with an explicit worker count (tests
// compare worker counts with each other).
func timeline(tr *core.Trace, cfg TimelineConfig, workers int) (*Framebuffer, Stats, error) {
	g, rows, labels, st, err := timelineRuns(tr, cfg, workers)
	if err != nil {
		return nil, st, err
	}
	return newTile(cfg.Width, cfg.Height, g, rows, labels), st, nil
}

// tileRow is one timeline row: its runs, and what its walk read.
type tileRow struct {
	runs pixelRuns
	work mragg.Work
}

// timelineRuns computes what Timeline draws: the row geometry, each
// visible row, and the rows' CPU ids where they are labelled (nil
// without labels).
func timelineRuns(tr *core.Trace, cfg TimelineConfig, workers int) (g rowGeometry, rows []tileRow, labels []int32, st Stats, err error) {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Width > math.MaxInt32 {
		return g, nil, nil, st, fmt.Errorf("render: invalid dimensions %dx%d", cfg.Width, cfg.Height)
	}
	start, end, err := timeWindow(tr, cfg)
	if err != nil {
		return g, nil, nil, st, err
	}
	cpus, ids := selectRows(tr, cfg.CPUs)
	if len(cpus) == 0 {
		return g, nil, nil, st, fmt.Errorf("render: no CPUs selected")
	}
	if cfg.Labels {
		labels = ids
	}
	shades := cfg.Shades
	if shades <= 0 {
		shades = 10
	}

	g, err = timelineGeometry(cfg.Height, cfg.Width, len(cpus), cfg.Labels)
	if err != nil {
		return g, nil, nil, st, err
	}

	heatMin, heatMax := cfg.HeatMin, cfg.HeatMax
	if cfg.Mode == ModeHeat && heatMin == 0 && heatMax == 0 {
		heatMin, heatMax = visibleDurationRange(tr, cfg.Filter, start, end)
	}

	typeIdx := typeIndexOf(tr)
	keep := keepOf(tr, cfg.Filter)

	// Each row's aggregated pixel runs. Rows are independent (a task
	// executes on a single CPU), so they fan out over the worker pool.
	cols := tmath.Columns{Start: start, End: end, W: g.plotW}
	out := make([]tileRow, g.visible)
	if workers > 1 {
		par.Do(workers, g.visible, func(row int) {
			px := &pixelizer{tr: tr, keep: keep, typeIdx: typeIdx}
			out[row].runs, out[row].work = rowRuns(px, cfg.Mode, cpus[row], cols, heatMin, heatMax, shades)
		})
	} else {
		px := &pixelizer{tr: tr, keep: keep, typeIdx: typeIdx}
		for row := range out {
			out[row].runs, out[row].work = rowRuns(px, cfg.Mode, cpus[row], cols, heatMin, heatMax, shades)
		}
	}
	for _, r := range out {
		st.Rects += len(r.runs)
		st.PixelColumns += g.plotW
		st.Members += r.work.Members
		st.Queries += r.work.Queries
	}
	return g, out, labels, st, nil
}

// timeWindow returns the interval cfg selects, and an error where no
// column can map to it: an empty one, or one wider than 2^63-1 cycles
// (the pixel mapping needs its span as an int64).
func timeWindow(tr *core.Trace, cfg TimelineConfig) (start, end trace.Time, err error) {
	start, end = cfg.Start, cfg.End
	if start == 0 && end == 0 {
		start, end = tr.Span.Start, tr.Span.End
	}
	if end <= start {
		return start, end, fmt.Errorf("render: empty interval [%d,%d)", start, end)
	}
	if end-start < 0 {
		return start, end, fmt.Errorf("render: interval [%d,%d) is more than 2^63-1 cycles wide", start, end)
	}
	return start, end, nil
}

// newTile returns the picture of a timeline of w x h pixels: every
// scanline of a row shares the row's runs, and a scanline that a
// label's glyph row reaches owns a head over the label's columns, the
// glyphs under the row's runs. Its operations are counted as drawing
// each label, then its row's runs, would count them. Background and
// TextColor are the palette's first two entries, so that where no
// label overhangs the gutter, the heads are the label gutter of the
// tile's shape (gutterOf): the first tile of a shape draws its labels
// and keeps a copy of them as the shape's gutter, and the next ones
// copy the gutter's heads.
func newTile(w, h int, g rowGeometry, rows []tileRow, labels []int32) *Framebuffer {
	fb := &Framebuffer{w: w, h: h, lines: make([]line, h), off: int32(g.gutter)}
	fb.pal = fb.palette[:0]
	fb.index(Background)
	if labels != nil {
		fb.index(TextColor)
	}
	for y := range fb.lines {
		if r := y / g.rowH; r < len(rows) && y-r*g.rowH < g.drawH {
			fb.lines[y].tail = rows[r].runs
		}
	}
	for _, row := range rows {
		for i, r := range row.runs {
			row.runs[i] = fb.run(int(r.x0), int(r.x1), r.c)
		}
		fb.Ops += len(row.runs)
	}
	if labels == nil {
		return fb
	}
	ops := fb.Ops
	gt, drew := gutterOf(w, h, g, labels, func() *gutter {
		fb.labels(len(rows), labels, g)
		return fb.newGutter(g, labels, fb.Ops-ops)
	})
	if !drew {
		fb.copyHeads(gt)
	}
	fb.gutter = gt
	return fb
}

// labels draws the label of each labelled one of the first n rows of g
// into a framebuffer without heads. The heads are carved from one chunk
// of about what a glyph row takes, 16 runs, for each of a label's 7.
func (fb *Framebuffer) labels(n int, labels []int32, g rowGeometry) {
	labelled := 0
	for row := range n {
		if g.labeled(row) {
			labelled++
		}
	}
	fb.arena = make([]pixelRun, 0, 16*(GlyphHeight-1)*labelled)
	var text [24]byte
	for row := range n {
		if !g.labeled(row) {
			continue
		}
		s, ty := labelText(text[:0], labels[row]), labelY(row*g.rowH, g.rowH)
		fb.Ops += len(s)
		for gy := 0; gy < GlyphHeight-1 && ty+gy < fb.h; gy++ {
			fb.label(&fb.lines[ty+gy], s, gy, fb.run(0, 0, TextColor))
		}
	}
}

// label gives scanline l its head over the gutter and text's columns:
// glyph row gy of text in ink's colour over the background, a run
// ending where a glyph's ink starts or stops, then the runs l shares
// with its row spliced over it where the text overhangs the gutter.
func (fb *Framebuffer) label(l *line, text []byte, gy int, ink pixelRun) {
	var buf [96]pixelRun // a label is at most 15 glyphs
	cut := min(int32(fb.w), max(fb.off, int32(len(text)*GlyphWidth)))
	head, r, inked := buf[:0], pixelRun{c: Background}, false
	for i, c := range text {
		// The cell's ink in bits 5–1, its spacing column in bit 0, so a
		// cell starts and ends on the background. A set bit of t is a
		// column where the ink starts or stops.
		cell := uint(glyph(rune(c))[gy]) << 1
		for t := cell ^ cell>>1; t != 0; t &^= 1 << (bits.Len(t) - 1) {
			x := int32(i*GlyphWidth + 6 - bits.Len(t))
			if x >= cut {
				break
			}
			if r.x1 = x; x > r.x0 {
				head = append(head, r)
			}
			if r, inked = (pixelRun{c: Background}), !inked; inked {
				r = ink
			}
			r.x0 = x
		}
	}
	r.x1 = cut
	l.head = nil
	fb.grow(l, len(head)+1)
	l.head, l.cut = append(append(l.head, head...), r), cut
	for _, t := range l.tail {
		if t.x0+fb.off >= cut {
			break
		}
		t.x0, t.x1 = t.x0+fb.off, min(t.x1+fb.off, cut)
		fb.span(l, t)
	}
	fb.trim(l)
}

// labelText appends the label of the row of CPU id.
func labelText(dst []byte, id int32) []byte {
	return strconv.AppendInt(append(dst, "CPU "...), int64(id), 10)
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
	return g.rowH >= GlyphHeight || row%(GlyphHeight/max(g.rowH, 1)+1) == 0
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

// pixelRuns is a row's runs, in column order.
type pixelRuns []pixelRun

// add paints columns [x0, x1) c, or leaves them to the background when
// !ok.
func (rs *pixelRuns) add(x0, x1 int, c color.RGBA, ok bool) {
	if ok {
		*rs = put(*rs, pixelRun{x0: int32(x0), x1: int32(x1), c: c})
	}
}

// rowRuns paints one CPU row from one walk over its columns
// (core.DomCPU.Row): each run of columns the walk answers with one
// event is mapped to a color once — optimization (a) of Section VI-B,
// every pixel colored from its predominant state or task — and runs of
// one color merge. It returns the runs and what the walk read.
func rowRuns(px *pixelizer, mode Mode, cpu int32, cols tmath.Columns, heatMin, heatMax trace.Time, shades int) (pixelRuns, mragg.Work) {
	var runs pixelRuns
	var keep func(trace.TaskID) bool
	if mode != ModeState {
		keep = px.keep
	}
	// The access cursor belongs to this row, not to its CPU or its
	// pixelizer: a CPU selected twice, and the rows a sequential
	// rendering puts through one pixelizer, each start from their own.
	px.comm, px.commAt, px.cur = core.Accesses{}, 0, cols.Cursor()
	if mode == ModeNUMAHeat {
		px.comm = px.tr.AccessesIn(cpu, cols.Start, cols.End)
	}
	row := px.tr.DomIndex().CPU(px.tr, cpu).Row(cols, mode != ModeState, keep)
	var buf [64]mragg.Run
	for batch := row.Next(buf[:0]); len(batch) > 0; batch = row.Next(buf[:0]) {
		for _, run := range batch {
			c, ok := px.color(mode, row.Event(run.Leaf), heatMin, heatMax, shades)
			if mode == ModeNUMAHeat {
				px.numaHeat(&runs, cpu, run.X0, run.X1, c, ok)
			} else {
				runs.add(run.X0, run.X1, c, ok)
			}
		}
	}
	return runs, row.Work()
}

// pixelizer colors the rows of one renderer goroutine. Its row state is
// private to its goroutine; the type index and keep predicate are
// read-only and shared across all rows of a rendering.
type pixelizer struct {
	tr *core.Trace
	// keep admits the tasks the filter matches; nil without a filter.
	keep    func(trace.TaskID) bool
	typeIdx map[trace.TypeID]int
	// comm holds the current row's accesses over the rendered interval
	// (ModeNUMAHeat only) and commAt the first of them not before the
	// last column asked about: numaHeat's forward cursor, which rowRuns
	// resets per row with cur, the row's column cursor.
	comm   core.Accesses
	commAt int
	cur    tmath.Cursor
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

// color returns the color of the pixels whose predominant event — state
// or admitted task execution, by mode — is ev, and false where they
// show the background: no event, or a task without a home node.
func (p *pixelizer) color(mode Mode, ev *trace.StateEvent, heatMin, heatMax trace.Time, shades int) (color.RGBA, bool) {
	if ev == nil {
		return color.RGBA{}, false
	}
	switch mode {
	case ModeState:
		return StateColor(ev.State), true
	case ModeHeat:
		d := ev.Duration()
		var frac float64
		if heatMax > heatMin {
			// Subtract in float64: the heat bounds are raw request
			// parameters, so d-heatMin (and the bound spread) wrap in
			// int64 when a bound sits at the far end of the range; the
			// float mapping is monotone and plenty accurate for <=64
			// shades.
			frac = (float64(d) - float64(heatMin)) / (float64(heatMax) - float64(heatMin))
		}
		return HeatShade(frac, shades), true
	case ModeType:
		i, declared := p.typeIdx[taskType(p.tr, ev.Task)]
		if !declared {
			// Such as the type 0 of an execution whose task record never
			// arrived, on a trace whose types start at 1.
			return unknownColor, true
		}
		return CategoryColor(i), true
	case ModeNUMARead, ModeNUMAWrite:
		home := p.tr.TaskHomes(ev.Task)
		node := home.Read
		if mode == ModeNUMAWrite {
			node = home.Write
		}
		return CategoryColor(int(node)), node >= 0
	case ModeNUMAHeat:
		// A running task shows as fully local where it made no access.
		return NUMAHeatShade(0), true
	}
	return color.RGBA{}, false
}

// numaHeat paints columns [x0, x1) of cpu's row, which the walk answers
// with one task execution — c, or the background when !ok. A column
// holding accesses by the tasks keep admits is shaded by their remote
// share instead, whether a task runs there or not. The row's accesses
// are walked with one forward cursor, stepped an access at a time:
// columns are asked about in order, and only columns without accesses
// are stepped over — a stretch of them is painted at once, up to the
// column holding the next access — so no access is passed more than
// twice, once to end a column and once to start the next.
func (p *pixelizer) numaHeat(runs *pixelRuns, cpu int32, x0, x1 int, c color.RGBA, ok bool) {
	evs := p.comm.Events
	myNode := p.tr.NodeOfCPU(cpu)
	for x := x0; x < x1; {
		t0, t1 := p.cur.Window(x)
		i := p.commAt
		for i < len(evs) && evs[i].Time < t0 {
			i++
		}
		end := i
		for end < len(evs) && evs[end].Time < t1 {
			end++
		}
		p.commAt = i
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
		if total := local + remote; total > 0 {
			runs.add(x, x+1, NUMAHeatShade(float64(remote)/float64(total)), true)
			x++
			continue
		}
		next := x1
		if end < len(evs) {
			next = min(next, max(x+1, p.cur.LastBy(evs[end].Time)+1))
		}
		runs.add(x, next, c, ok)
		x = next
	}
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
	start, end, err := timeWindow(tr, cfg)
	if err != nil {
		return nil, st, err
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

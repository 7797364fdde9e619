// Package oracle is the slow, obvious reference for what the viewer
// serves. It reads a native record stream with trace.Read and keeps the
// records as they came; it builds no core.Trace and reads no index.
// /render, /stats, /matrix and /plot are answered by brute force: every
// pixel's window is held against every state, access and sample of its
// row, every window sum walks the whole row, and tasks are placed by
// replaying the stream. It shares with the server only what parses a
// request (query.FromValues, query.Params) and what paints (render's
// palette, glyphs, Framebuffer, PlotSeries and RenderMatrix), so a
// served answer equal to its answer checks every index, cursor and
// prefix sum on the way (atmtest.CheckServed).
//
// The rules it replays are the ones the server documents:
//   - rows are the CPUs a topology record declares or a record names,
//     in id order; a task's placement is its last execution state in
//     row and then stream order (the batch loader's last-writer-wins);
//     the first record of a type ID is kept, later task records update
//     the type;
//   - an address is homed on the region with the greatest start at or
//     below it, the latest registered among equals, when that region
//     holds it on a node of the topology;
//   - a pixel's window is [start + ⌊span·x/w⌋, start + ⌊span·(x+1)/w⌋),
//     widened to one cycle, and a rate between two samples is
//     ⌊Δvalue·1000·2¹⁶ / Δtime⌋ toward zero, clamped to int64, both
//     computed with math/big;
//   - /stats and /matrix read [t0, t1) — the span end excluded, as the
//     server still does (ROADMAP, small fixes: "/stats and /matrix
//     without t1 read [Span.Start, Span.End)") — except that a window
//     ending at MaxInt64 holds the accesses at MaxInt64.
//
// A trace one of whose CPUs' states, in stream order, are not disjoint,
// sorted and of non-negative length gets no answer: the server reads
// such a CPU through an approximate window (core.DomCPU's scan).
package oracle

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"image"
	"image/color"
	"image/draw"
	"image/png"
	"math"
	"math/big"
	"net/url"
	"path"
	"slices"
	"strconv"
	"strings"

	"github.com/openstream/aftermath/internal/metrics"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/trace"
)

// Trace is a record stream as the oracle keeps it.
type Trace struct {
	topo    trace.Topology
	ids     []int32 // the rows: CPU ids, ascending
	states  map[int32][]trace.StateEvent
	comm    map[int32][]trace.CommEvent
	types   []trace.TaskType // by ID
	tasks   []task           // in table order
	regions []trace.MemRegion
	ctrs    []counter // in first-touch order
	start   trace.Time
	end     trace.Time
	exact   bool
}

type task struct {
	id         trace.TaskID
	typ        trace.TypeID
	cpu        int32 // the executing CPU's id, -1 for none
	start, end trace.Time
}

type counter struct {
	desc    trace.CounterDesc
	samples map[int32][]trace.CounterSample // by CPU id, stably by time
}

// Read reads a native trace stream.
func Read(data []byte) (*Trace, error) {
	o := &Trace{states: map[int32][]trace.StateEvent{}, comm: map[int32][]trace.CommEvent{}}
	rows := map[int32]bool{}
	hasTopo := false
	taskAt := map[trace.TaskID]int{}
	ctrAt := map[trace.CounterID]int{}
	ctr := func(id trace.CounterID) *counter {
		if _, ok := ctrAt[id]; !ok {
			ctrAt[id] = len(o.ctrs)
			o.ctrs = append(o.ctrs, counter{desc: trace.CounterDesc{ID: id, Monotonic: true}, samples: map[int32][]trace.CounterSample{}})
		}
		return &o.ctrs[ctrAt[id]]
	}
	taskOf := func(id trace.TaskID) *task {
		if _, ok := taskAt[id]; !ok {
			taskAt[id] = len(o.tasks)
			o.tasks = append(o.tasks, task{id: id, cpu: -1})
		}
		return &o.tasks[taskAt[id]]
	}
	err := trace.Read(bytes.NewReader(data), trace.Handler{
		Topology: func(t trace.Topology) error {
			o.topo, hasTopo = t, true
			for id := range int32(len(t.NodeOfCPU)) {
				rows[id] = true
			}
			return nil
		},
		TaskType: func(t trace.TaskType) error {
			if !slices.ContainsFunc(o.types, func(u trace.TaskType) bool { return u.ID == t.ID }) {
				o.types = append(o.types, t)
			}
			return nil
		},
		Task: func(t trace.Task) error { taskOf(t.ID).typ = t.Type; return nil },
		State: func(s trace.StateEvent) error {
			rows[s.CPU] = true
			o.states[s.CPU] = append(o.states[s.CPU], s)
			return nil
		},
		Discrete: func(d trace.DiscreteEvent) error { rows[d.CPU] = true; return nil },
		Comm: func(c trace.CommEvent) error {
			rows[c.CPU] = true
			o.comm[c.CPU] = append(o.comm[c.CPU], c)
			return nil
		},
		Region:      func(r trace.MemRegion) error { o.regions = append(o.regions, r); return nil },
		CounterDesc: func(d trace.CounterDesc) error { ctr(d.ID).desc = d; return nil },
		Sample: func(s trace.CounterSample) error {
			rows[s.CPU] = true
			c := ctr(s.Counter)
			c.samples[s.CPU] = append(c.samples[s.CPU], s)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	for id := range rows {
		o.ids = append(o.ids, id)
	}
	slices.Sort(o.ids)
	if !hasTopo {
		o.topo = trace.Topology{NumNodes: 1, NodeOfCPU: make([]int32, max(len(o.ids), 1))}
	}
	slices.SortFunc(o.types, func(a, b trace.TaskType) int { return cmp.Compare(a.ID, b.ID) })
	o.exact = true
	first := true
	for _, id := range o.ids {
		for i, s := range o.states[id] {
			if s.End < s.Start || i > 0 && s.Start < o.states[id][i-1].End {
				o.exact = false
			}
			if first || s.Start < o.start {
				o.start = s.Start
			}
			if first || s.End > o.end {
				o.end = s.End
			}
			first = false
			if s.State == trace.StateTaskExec && s.Task != trace.NoTask {
				t := taskOf(s.Task)
				t.cpu, t.start, t.end = id, s.Start, s.End
			}
		}
	}
	for _, c := range o.ctrs {
		for _, s := range c.samples {
			slices.SortStableFunc(s, func(a, b trace.CounterSample) int { return cmp.Compare(a.Time, b.Time) })
			if first || s[0].Time < o.start {
				o.start = s[0].Time
			}
			if first || s[len(s)-1].Time > o.end {
				o.end = s[len(s)-1].Time
			}
			first = false
		}
	}
	return o, nil
}

// Exact reports whether the oracle answers for the trace: every CPU's
// states are disjoint, sorted and of non-negative length.
func (o *Trace) Exact() bool { return o.exact }

// answer is what a 200 of a verb must hold: the image a PNG decodes to
// or a JSON body, byte for byte. err says the server must refuse the
// request instead.
type answer struct {
	image *render.Framebuffer
	json  []byte
	err   error
}

// Judge holds the body of a 200 to the oracle's answer for target, a
// verb's path below the server's mount with its raw query: an error if
// they differ or the oracle would refuse the request, nil if they are
// equal or the oracle has no opinion — on another verb than /render,
// /stats, /matrix and /plot, or on a trace that is not Exact.
func (o *Trace) Judge(target string, body []byte) error {
	p, raw, _ := strings.Cut(target, "?")
	v, _ := url.ParseQuery(raw)
	want, ok := o.serve(path.Clean(p), v)
	switch {
	case !ok:
		return nil
	case want.err != nil:
		return fmt.Errorf("a 200, but the oracle refuses the request: %v", want.err)
	case want.image == nil:
		if !bytes.Equal(body, want.json) {
			return fmt.Errorf("\n got %s\nwant %s", body, want.json)
		}
		return nil
	}
	img, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		return err
	}
	b, fb := img.Bounds(), want.image
	if b.Dx() != fb.W() || b.Dy() != fb.H() {
		return fmt.Errorf("%dx%d image, the oracle's is %dx%d", b.Dx(), b.Dy(), fb.W(), fb.H())
	}
	got := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
	draw.Draw(got, got.Rect, img, b.Min, draw.Src)
	if bytes.Equal(got.Pix, fb.RGBA().Pix) {
		return nil
	}
	for y := 0; y < fb.H(); y++ {
		for x := 0; x < fb.W(); x++ {
			if c := got.RGBAAt(x, y); c != fb.At(x, y) {
				return fmt.Errorf("pixel (%d, %d) is %v, the oracle's %v", x, y, c, fb.At(x, y))
			}
		}
	}
	return nil
}

// serve answers a request for a verb with the parameters v; ok is false
// where the oracle has no opinion (see Judge).
func (o *Trace) serve(verb string, v url.Values) (a answer, ok bool) {
	verbs := map[string]func(url.Values) answer{"/render": o.render, "/stats": o.stats, "/matrix": o.matrix, "/plot": o.plot}
	fn := verbs[verb]
	if fn == nil || !o.exact {
		return a, false
	}
	if _, err := query.FromValues(v); err != nil {
		return answer{err: err}, true
	}
	return fn(v), true
}

// window resolves the request window as every windowed verb does:
// unset bounds (and t0=0&t1=0) are the span's; a window empty once
// resolved is refused if the request set one and the span is not
// itself empty, and is the span otherwise.
func (o *Trace) window(v url.Values) (t0, t1 trace.Time, err error) {
	p := query.NewParams(v)
	a, b := p.Int64("t0", 0), p.Int64("t1", 0)
	hasA, hasB := v.Get("t0") != "", v.Get("t1") != ""
	if hasA && hasB && a == 0 && b == 0 {
		hasA, hasB = false, false
	}
	t0, t1 = o.start, o.end
	if hasA {
		t0 = a
	}
	if hasB {
		t1 = b
	}
	if t1 <= t0 {
		if (hasA || hasB) && o.end > o.start {
			return 0, 0, fmt.Errorf("window [%d, %d) is empty", t0, t1)
		}
		t0, t1 = o.start, o.end
	}
	return t0, t1, nil
}

// filter returns the task filter the request names, nil when it names
// none: types, mindur, maxdur, rnodes, wnodes.
func (o *Trace) filter(v url.Values) func(t *task) bool {
	p := query.NewParams(v)
	var types map[trace.TypeID]bool
	if names := slices.DeleteFunc(strings.Split(v.Get("types"), ","), func(n string) bool { return n == "" }); len(names) > 0 {
		types = map[trace.TypeID]bool{}
		for _, tt := range o.types {
			types[tt.ID] = types[tt.ID] || slices.Contains(names, tt.Name)
		}
	}
	minDur, maxDur := p.Int64("mindur", 0), p.Int64("maxdur", 0)
	nodes := func(key string) []int32 {
		var ids []int32
		for _, s := range strings.Split(v.Get(key), ",") {
			if n, err := strconv.ParseInt(s, 10, 64); err == nil {
				ids = append(ids, int32(min(n, math.MaxInt32)))
			}
		}
		return ids
	}
	rnodes, wnodes := nodes("rnodes"), nodes("wnodes")
	if types == nil && minDur == 0 && maxDur == 0 && rnodes == nil && wnodes == nil {
		return nil
	}
	return func(t *task) bool {
		if types != nil && !types[t.typ] {
			return false
		}
		if t.cpu < 0 {
			return minDur == 0 && maxDur == 0 && rnodes == nil && wnodes == nil
		}
		if d := t.end - t.start; d < minDur || maxDur > 0 && d > maxDur {
			return false
		}
		if rnodes == nil && wnodes == nil {
			return true
		}
		readOK, writeOK := rnodes == nil, wnodes == nil
		for k := range o.own(t) {
			readOK = readOK || k[0] == 0 && slices.Contains(rnodes, k[1])
			writeOK = writeOK || k[0] == 1 && slices.Contains(wnodes, k[1])
		}
		return readOK && writeOK
	}
}

// taskByID returns the task with the given ID, nil for none.
func (o *Trace) taskByID(id trace.TaskID) *task {
	for i := range o.tasks {
		if o.tasks[i].id == id {
			return &o.tasks[i]
		}
	}
	return nil
}

// admits is a filter as the renderer asks it about an execution's task:
// nil admits every execution, a filter only those of tasks it matches.
func (o *Trace) admits(f func(*task) bool) func(trace.TaskID) bool {
	if f == nil {
		return nil
	}
	return func(id trace.TaskID) bool { t := o.taskByID(id); return t != nil && f(t) }
}

// home returns the NUMA node an address is homed on, -1 for none.
func (o *Trace) home(addr uint64) int32 {
	var best *trace.MemRegion
	for i := range o.regions {
		if r := &o.regions[i]; r.Addr <= addr && (best == nil || r.Addr >= best.Addr) {
			best = r
		}
	}
	if best == nil || !best.Contains(addr) || best.Node < 0 || best.Node >= o.topo.NumNodes {
		return -1
	}
	return best.Node
}

// nodeOf returns the NUMA node of a CPU id: 0 past the topology's.
func (o *Trace) nodeOf(cpu int32) int32 {
	if int(cpu) < len(o.topo.NodeOfCPU) {
		return o.topo.NodeOfCPU[cpu]
	}
	return 0
}

// accessed sums the bytes of the reads and writes on a CPU at the times
// in takes, of the tasks admit takes (all for nil), by (written, home
// node); unhomed ones are left out. Sizes add as int64, wrapping.
func (o *Trace) accessed(cpu int32, in func(trace.Time) bool, admit func(trace.TaskID) bool) map[[2]int32]int64 {
	sums := map[[2]int32]int64{}
	for _, ev := range o.comm[cpu] {
		if ev.Kind != trace.CommRead && ev.Kind != trace.CommWrite || !in(ev.Time) || admit != nil && !admit(ev.Task) {
			continue
		}
		if h := o.home(ev.Addr); h >= 0 {
			w := int32(0)
			if ev.Kind == trace.CommWrite {
				w = 1
			}
			sums[[2]int32{w, h}] += int64(ev.Size)
		}
	}
	return sums
}

// within returns [t0, t1) as accessed takes it.
func within(t0, t1 trace.Time) func(trace.Time) bool {
	return func(t trace.Time) bool { return t >= t0 && t < t1 }
}

// own returns a task's own accesses during its execution, ends included.
func (o *Trace) own(t *task) map[[2]int32]int64 {
	return o.accessed(t.cpu, func(at trace.Time) bool { return at >= t.start && at <= t.end },
		func(id trace.TaskID) bool { return id == t.id })
}

// cover returns the time a CPU spent in a state during [t0, t1).
func (o *Trace) cover(cpu int32, state trace.WorkerState, t0, t1 trace.Time) trace.Time {
	var sum trace.Time
	for _, s := range o.states[cpu] {
		if s.State == state && s.Start < t1 && s.End > t0 {
			sum += min(s.End, t1) - max(s.Start, t0)
		}
	}
	return sum
}

// at returns start + ⌊span·i/n⌋ for span = end - start, exactly.
func at(start, end trace.Time, i, n int) trace.Time {
	v := new(big.Int).Sub(big.NewInt(end), big.NewInt(start))
	v.Mul(v, big.NewInt(int64(i)))
	v.Div(v, big.NewInt(int64(n)))
	return v.Add(v, big.NewInt(start)).Int64()
}

// render answers /render.
func (o *Trace) render(v url.Values) answer {
	start, end, err := o.window(v)
	p := query.NewParams(v)
	w, h := p.Int("w", 1000, 100, 4000), p.Int("h", 400, 50, 2000)
	heatMin, heatMax := p.Int64("heatmin", 0), p.Int64("heatmax", 0)
	shades, level := p.Int("shades", 10, 2, 64), p.Int("level", 0, 0, 12)
	labels := p.Flag("labels", true)
	if err == nil && (end <= start || len(o.ids) == 0) {
		err = fmt.Errorf("nothing to render over [%d, %d) and %d CPUs", start, end, len(o.ids))
	}
	if err = cmp.Or(err, p.Err()); err != nil {
		return answer{err: err}
	}
	if w = max(w>>level, 1); level > 0 {
		w = max(w, render.MinTimelineWidth(labels))
	}
	mode, _ := render.ParseMode(p.Str("mode", "state"))
	f := o.filter(v)
	admit := o.admits(f)
	if mode == render.ModeHeat && heatMin == 0 && heatMax == 0 {
		first := true
		for i := range o.tasks {
			t := &o.tasks[i]
			if t.cpu >= 0 && t.start < end && t.end > start && (f == nil || f(t)) {
				d := t.end - t.start
				heatMin, heatMax = min(d, heatMin), max(d, heatMax)
				if first {
					heatMin, heatMax, first = d, d, false
				}
			}
		}
	}
	gutter := 0
	if labels {
		gutter = render.TextWidth("CPU 000 ")
	}
	plotW := w - gutter
	fb := render.NewFramebuffer(w, h)
	rowH := max(h/len(o.ids), 1)
	drawH := rowH
	if rowH >= 3 {
		drawH--
	}
	visible := min(len(o.ids), (h+rowH-1)/rowH)
	win := make([][2]trace.Time, plotW)
	for x := range win {
		win[x] = [2]trace.Time{at(start, end, x, plotW), at(start, end, x+1, plotW)}
		win[x][1] = max(win[x][1], win[x][0]+1)
	}
	for row, cpu := range o.ids[:visible] {
		y := row * rowH
		if labels && (rowH >= render.GlyphHeight || row%(render.GlyphHeight/rowH+1) == 0) {
			fb.DrawText(0, max(y+(rowH-render.GlyphHeight)/2+1, y), fmt.Sprintf("CPU %d", cpu), render.TextColor)
		}
		for x, tw := range win {
			if c, ok := o.pixel(mode, cpu, tw[0], tw[1], admit, heatMin, heatMax, shades); ok {
				fb.FillRect(gutter+x, y, 1, drawH, c)
			}
		}
	}
	if c := o.counterByName(p.Str("counter", "")); c != nil {
		o.overlay(fb, c, p.Flag("rate", true), start, end, gutter, rowH, visible, win)
	}
	return answer{image: fb}
}

// dominant returns the first state on a CPU — of the execution states
// admit takes, when exec — covering the most of [t0, t1), if one
// covers any of it.
func (o *Trace) dominant(cpu int32, t0, t1 trace.Time, exec bool, admit func(trace.TaskID) bool) (trace.StateEvent, bool) {
	var best trace.StateEvent
	var most trace.Time
	for _, s := range o.states[cpu] {
		if s.Start >= t1 || s.End <= t0 || exec && (s.State != trace.StateTaskExec || admit != nil && !admit(s.Task)) {
			continue
		}
		if c := min(s.End, t1) - max(s.Start, t0); c > most {
			best, most = s, c
		}
	}
	return best, most > 0
}

// pixel returns the colour of a CPU's pixel over [t0, t1) in a mode,
// and false where it shows the background.
func (o *Trace) pixel(mode render.Mode, cpu int32, t0, t1 trace.Time, admit func(trace.TaskID) bool, heatMin, heatMax trace.Time, shades int) (color.RGBA, bool) {
	if mode == render.ModeState {
		s, ok := o.dominant(cpu, t0, t1, false, nil)
		return render.StateColor(s.State), ok
	}
	if mode == render.ModeNUMAHeat {
		var local, remote int64
		for k, n := range o.accessed(cpu, within(t0, t1), admit) {
			if k[1] == o.nodeOf(cpu) {
				local += n
			} else {
				remote += n
			}
		}
		if total := local + remote; total != 0 {
			return render.NUMAHeatShade(float64(remote) / float64(total)), true
		}
		_, ok := o.dominant(cpu, t0, t1, true, admit)
		return render.NUMAHeatShade(0), ok
	}
	s, ok := o.dominant(cpu, t0, t1, true, admit)
	if !ok {
		return color.RGBA{}, false
	}
	t := o.taskByID(s.Task)
	switch mode {
	case render.ModeHeat:
		var frac float64
		if heatMax > heatMin {
			frac = (float64(s.End-s.Start) - float64(heatMin)) / (float64(heatMax) - float64(heatMin))
		}
		return render.HeatShade(frac, shades), true
	case render.ModeType:
		var typ trace.TypeID
		if t != nil {
			typ = t.typ
		}
		for i, tt := range o.types {
			if tt.ID == typ {
				return render.CategoryColor(i), true
			}
		}
		return render.StateColor(trace.WorkerState(trace.NumWorkerStates)), true
	}
	// NUMA read or write: the home of most of the bytes the task itself
	// read (wrote), ties to the lowest node.
	node, most := int32(-1), int64(0)
	if t != nil && t.cpu >= 0 {
		for k, n := range o.own(t) {
			if w := k[0] == 1; w == (mode == render.ModeNUMAWrite) && (node < 0 || n > most || n == most && k[1] < node) {
				node, most = k[1], n
			}
		}
	}
	if node < 0 {
		return color.RGBA{}, false
	}
	return render.CategoryColor(int(node)), true
}

// counterByName returns the first counter of a name, nil for none.
func (o *Trace) counterByName(name string) *counter {
	for i := range o.ctrs {
		if name != "" && o.ctrs[i].desc.Name == name {
			return &o.ctrs[i]
		}
	}
	return nil
}

// points returns a counter's curve on a CPU: its samples, or with rate
// the rate from each sample to the next, at the first one's time.
func points(c *counter, cpu int32, rate bool) []trace.CounterSample {
	s := c.samples[cpu]
	if !rate {
		return s
	}
	var out []trace.CounterSample
	for i := 0; i+1 < len(s); i++ {
		out = append(out, trace.CounterSample{Time: s[i].Time, Value: rateOf(s[i], s[i+1])})
	}
	return out
}

// rateOf is the fixed-point rate between two samples, in events per
// kilocycle times 2¹⁶, 0 unless b is later than a.
func rateOf(a, b trace.CounterSample) int64 {
	if b.Time <= a.Time {
		return 0
	}
	q := new(big.Int).Sub(big.NewInt(b.Value), big.NewInt(a.Value))
	q.Mul(q, big.NewInt(1000<<16))
	q.Quo(q, new(big.Int).Sub(big.NewInt(b.Time), big.NewInt(a.Time)))
	if !q.IsInt64() {
		if q.Sign() > 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return q.Int64()
}

// overlay draws a counter's curve over a timeline: per pixel a line
// from the least to the greatest point in its window, on a scale from
// the least to the greatest point of any row in [start, end).
func (o *Trace) overlay(fb *render.Framebuffer, c *counter, rate bool, start, end trace.Time, gutter, rowH, visible int, win [][2]trace.Time) {
	extent := func(pts []trace.CounterSample, t0, t1 trace.Time) (lo, hi int64, ok bool) {
		for _, s := range pts {
			if s.Time >= t0 && s.Time < t1 {
				if !ok {
					lo, hi, ok = s.Value, s.Value, true
				}
				lo, hi = min(lo, s.Value), max(hi, s.Value)
			}
		}
		return lo, hi, ok
	}
	var vmin, vmax float64
	first := true
	for _, cpu := range o.ids {
		if lo, hi, ok := extent(points(c, cpu, rate), start, end); ok {
			if first {
				vmin, vmax, first = float64(lo), float64(hi), false
			}
			vmin, vmax = min(vmin, float64(lo)), max(vmax, float64(hi))
		}
	}
	if vmax <= vmin {
		vmax = vmin + 1
	}
	toY := func(v float64, top int) int {
		if vmax <= vmin { // vmin+1 rounded to vmin
			return top + rowH - 1
		}
		f := min(max((v-vmin)/(vmax-vmin), 0), 1)
		return top + rowH - 1 - int(f*float64(rowH-1))
	}
	colour := render.CategoryColor(7)
	for row, cpu := range o.ids[:visible] {
		pts := points(c, cpu, rate)
		for x, tw := range win {
			if lo, hi, ok := extent(pts, tw[0], tw[1]); ok {
				fb.VLine(gutter+x, toY(float64(hi), row*rowH), toY(float64(lo), row*rowH), colour)
			}
		}
	}
}

// stats answers /stats.
func (o *Trace) stats(v url.Values) answer {
	t0, t1, err := o.window(v)
	if err != nil {
		return answer{err: err}
	}
	f := o.filter(v)
	var durs []float64
	for i := range o.tasks {
		t := &o.tasks[i]
		if t.cpu >= 0 && t.start < t1 && t.end > t0 && (f == nil || f(t)) {
			durs = append(durs, float64(t.end-t.start))
		}
	}
	res := query.StatsResult{Start: t0, End: t1, Tasks: len(durs), StateCycles: map[string]int64{}}
	for st := range trace.WorkerState(trace.NumWorkerStates) {
		var sum trace.Time
		for _, cpu := range o.ids {
			sum += o.cover(cpu, st, t0, t1)
		}
		if sum > 0 {
			res.StateCycles[st.String()] = sum
		}
		if st == trace.StateTaskExec && t1 > t0 {
			res.AvgParallelism = float64(sum) / float64(uint64(t1-t0))
		}
	}
	m := o.commMatrix(t0, t1)
	var local, total int64
	for i, b := range m.Bytes {
		total += b
		if i/m.N == i%m.N {
			local += b
		}
	}
	if total != 0 {
		res.LocalFraction = float64(local) / float64(total)
	}
	// Twenty bins over [least, greatest] duration (greatest = least + 1
	// for one value); a value on a bin's upper edge goes to the next
	// one but the last.
	if len(durs) > 0 {
		res.HistMin, res.HistMax = slices.Min(durs), slices.Max(durs)
	}
	if res.HistMin == res.HistMax {
		res.HistMax++
	}
	res.DurationHist = make([]int, 20)
	for _, d := range durs {
		b := int((d - res.HistMin) / ((res.HistMax - res.HistMin) / 20))
		res.DurationHist[min(max(b, 0), 19)]++
	}
	body, err := json.Marshal(res)
	return answer{json: append(body, '\n'), err: err}
}

// commMatrix returns the bytes each node's CPUs read and wrote at times
// in [t0, t1) — through MaxInt64 when t1 is MaxInt64 — from each home
// node.
func (o *Trace) commMatrix(t0, t1 trace.Time) *stats.CommMatrix {
	n := int(o.topo.NumNodes)
	m := &stats.CommMatrix{N: n, Bytes: make([]int64, n*n)}
	for _, cpu := range o.ids {
		if a := int(o.nodeOf(cpu)); a < n {
			in := func(t trace.Time) bool { return t >= t0 && (t < t1 || t1 == math.MaxInt64 && t0 < t1) }
			for k, b := range o.accessed(cpu, in, nil) {
				m.Bytes[a*n+int(k[1])] += b
			}
		}
	}
	return m
}

// matrix answers /matrix.
func (o *Trace) matrix(v url.Values) answer {
	t0, t1, err := o.window(v)
	p := query.NewParams(v)
	cell := p.Int("cell", 14, 4, 64)
	if err = cmp.Or(err, p.Err()); err != nil {
		return answer{err: err}
	}
	return answer{image: render.RenderMatrix(o.commMatrix(t0, t1), cell)}
}

// plot answers /plot: per interval of n across the span, the idle
// workers (each CPU's idle time over the interval's length, summed in
// row order), the mean duration of the tasks the filter matches whose
// execution maps into the interval, or the derivative of a counter
// summed over CPUs at each boundary.
func (o *Trace) plot(v url.Values) answer {
	p := query.NewParams(v)
	n := p.Int("n", 200, 10, 2000)
	w, h := p.Int("w", 800, 100, 4000), p.Int("h", 220, 50, 2000)
	n = max(n>>p.Int("level", 0, 0, 12), 1)
	kind := p.Str("kind", "idle")
	if err := p.Err(); err != nil {
		return answer{err: err}
	}
	if o.end-o.start < 0 {
		return answer{err: fmt.Errorf("the span [%d, %d) is more than 2^63-1 cycles wide", o.start, o.end)}
	}
	bs := make([]trace.Time, n+1)
	for i := range bs {
		bs[i] = at(o.start, o.end, i, n)
	}
	s := metrics.Series{Times: bs[:n], Values: make([]float64, n)}
	switch c := o.counterByName(kind); {
	case kind == "idle":
		s.Name = "workers_in_idle"
		for _, cpu := range o.ids {
			for i := range n {
				if bs[i+1] > bs[i] {
					s.Values[i] += float64(o.cover(cpu, trace.StateIdle, bs[i], bs[i+1])) / float64(bs[i+1]-bs[i])
				}
			}
		}
	case kind == "avgdur":
		s.Name = "avg_task_duration"
		f := o.filter(v)
		sums, counts := make([]float64, n), make([]int, n)
		for i := range o.tasks {
			t := &o.tasks[i]
			if t.cpu < 0 || f != nil && !f(t) {
				continue
			}
			// An instantaneous execution runs for its first cycle.
			end := max(t.end, t.start+1)
			for i := range n {
				if t.start < bs[i+1] && end > bs[i] {
					sums[i] += float64(t.end - t.start)
					counts[i]++
				}
			}
		}
		for i := range n {
			if counts[i] > 0 {
				s.Values[i] = sums[i] / float64(counts[i])
			}
		}
	case c != nil:
		// The counter's latest value at or before t on each CPU, summed.
		sum := func(t trace.Time) (v float64) {
			for _, cpu := range o.ids {
				var last *trace.CounterSample
				for k, smp := range c.samples[cpu] {
					if smp.Time <= t {
						last = &c.samples[cpu][k]
					}
				}
				if last != nil {
					v += float64(last.Value)
				}
			}
			return v
		}
		s.Name = "d_sum_" + c.desc.Name
		for i := range n {
			if dt := float64(bs[i+1] - bs[i]); dt > 0 {
				s.Values[i] = (sum(bs[i+1]) - sum(bs[i])) / dt
			}
		}
	default:
		return answer{err: fmt.Errorf("unknown metric %q", kind)}
	}
	fb, err := render.PlotSeries(render.PlotConfig{Width: w, Height: h, Title: strings.ToUpper(s.Name)}, s)
	return answer{image: fb, err: err}
}

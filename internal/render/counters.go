package render

import (
	"image/color"
	"slices"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/mmtree"
	"github.com/openstream/aftermath/internal/tmath"
)

// OverlayConfig parameterizes a per-CPU counter overlay on a timeline.
type OverlayConfig struct {
	// Counter is the counter to draw.
	Counter *core.Counter
	// Rate selects the discrete derivative instead of the raw value.
	Rate bool
	// Color is the curve color.
	Color color.RGBA
	// VMin and VMax bound the vertical scale; both zero auto-scales
	// to the visible minimum and maximum, as the paper does for the
	// misprediction rate in Figure 18.
	VMin, VMax float64
	// Naive disables the min/max tree optimization and draws a line
	// per adjacent sample pair (Figure 21a) — the ablation baseline.
	Naive bool
}

// OverlayCounter draws a counter curve into each CPU row of a timeline
// framebuffer previously rendered with cfg. For every horizontal
// pixel, the vertical extent between the interval's minimum and
// maximum is drawn as a single line (Figure 21b-d). A row is one walk
// along the counter's tree: a column's samples are found from the
// previous column's by galloping, their extrema by one index-range
// query, and columns between two samples are stepped over, so a row
// costs O(columns holding samples x log samples a column), with no
// search over the whole sample array per column.
func OverlayCounter(fb *Framebuffer, tr *core.Trace, cfg TimelineConfig, ov OverlayConfig, ci *core.CounterIndex) Stats {
	var st Stats
	start, end := cfg.Start, cfg.End
	if start == 0 && end == 0 {
		start, end = tr.Span.Start, tr.Span.End
	}
	cpus, _ := selectRows(tr, cfg.CPUs)
	g, err := timelineGeometry(fb.H(), fb.W(), len(cpus), cfg.Labels)
	if err != nil {
		return st
	}

	vmin, vmax := ov.VMin, ov.VMax
	if vmin == 0 && vmax == 0 {
		// Auto-scale over the visible range of all selected CPUs.
		first := true
		for _, cpu := range cpus {
			t := overlayTree(ci, ov, cpu)
			mn, mx, ok := t.MinMax(start, end)
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

	// Rows below the framebuffer's bottom would clip to nothing; the
	// auto-scale above still covers every selected CPU. A row's columns
	// are found first, then drawn a scanline at a time (vlines).
	var vs vlines
	if !ov.Naive {
		// A row has a line a column at most, within its scanlines.
		w, buf := g.plotW, make([]int32, 3*g.plotW+g.rowH+1)
		vs.ls, vs.order, vs.active, vs.next, vs.at = make([]vline, 0, w), buf[:0:w], buf[w:w:2*w], buf[2*w:2*w:3*w], buf[3*w:]
	}
	for row, cpu := range cpus[:g.visible] {
		y := row * g.rowH
		tree := overlayTree(ci, ov, cpu)
		if ov.Naive {
			st.Rects += overlayNaive(fb, tree, g.gutter, y, g.plotW, g.rowH, start, end, vmin, vmax, ov.Color)
			continue
		}
		// One forward cursor over the row's samples: lo is the first at
		// or after the column's t0, found from the last column's.
		st.PixelColumns += g.plotW
		n, cur := tree.Len(), tmath.Columns{Start: start, End: end, W: g.plotW}.Cursor()
		vs.ls = vs.ls[:0]
		for x, lo := 0, 0; x < g.plotW; {
			t0, t1 := cur.Window(x)
			lo = tree.SeekTime(t0, lo)
			if lo == n {
				break
			}
			hi := tree.SeekTime(t1, lo)
			if lo == hi {
				// No sample here, nor in any column that ends by the
				// next sample's time: go to the column holding it.
				x = max(x, cur.LastBy(tree.Time(lo))) + 1
				continue
			}
			mn, mx, _ := tree.MinMaxIndex(lo, hi)
			y0 := valueToY(float64(mx), vmin, vmax, y, g.rowH)
			y1 := valueToY(float64(mn), vmin, vmax, y, g.rowH)
			vs.ls = append(vs.ls, vline{int32(g.gutter + x), int32(y0), int32(y1)})
			st.Rects++
			x++
		}
		fb.vlines(&vs, ov.Color)
	}
	return st
}

// vline is a vertical line from (x, y0) to (x, y1), y0 <= y1, in a
// column of the picture.
type vline struct{ x, y0, y1 int32 }

// vlines is a row's vertical lines, ls in order of x, and the space
// vlines draws them in, reused from row to row: the lines by the
// scanline they start on (order, where at says), and the lines that
// cover a scanline, in order of x (active, and next for the scanline
// after it).
type vlines struct {
	ls                      []vline
	at, order, active, next []int32
}

// vlines draws the lines of vs as VLine draws each, but a scanline at
// a time: each scanline's head is drawn left to right while it is the
// last carved from the arena, so it grows in place. Going down, a
// scanline's lines are the ones above that still cover it merged with
// the ones that start on it, all in order of x, so the work is the
// pixels the lines cover and the space the lines.
func (fb *Framebuffer) vlines(vs *vlines, c color.RGBA) {
	top, bottom, n := int32(fb.h), int32(-1), 0
	for i := range vs.ls {
		v := &vs.ls[i]
		if v.y1 = min(v.y1, int32(fb.h)-1); v.y0 <= v.y1 {
			fb.Ops++
			top, bottom, n = min(top, v.y0), max(bottom, v.y1), n+1
		}
	}
	if top > bottom {
		return
	}
	// at counts the lines starting on each scanline, then sums them up
	// to where its lines start in order; filling order moves each to
	// where the next scanline's start.
	k := int(bottom-top) + 1
	at := slices.Grow(vs.at[:0], k+1)[:k+1]
	clear(at)
	for _, v := range vs.ls {
		if v.y0 <= v.y1 {
			at[v.y0-top+1]++
		}
	}
	for j := 1; j <= k; j++ {
		at[j] += at[j-1]
	}
	order := slices.Grow(vs.order[:0], n)[:n]
	for i, v := range vs.ls {
		if v.y0 <= v.y1 {
			order[at[v.y0-top]] = int32(i)
			at[v.y0-top]++
		}
	}
	active, next := slices.Grow(vs.active[:0], n), slices.Grow(vs.next[:0], n)
	r := fb.run(0, 1, c)
	for j, lo := 0, int32(0); j < k; j++ {
		y, starts := top+int32(j), order[lo:at[j]]
		lo, next = at[j], next[:0]
		for a, b := 0, 0; a < len(active) || b < len(starts); {
			var i int32
			if b == len(starts) || a < len(active) && active[a] < starts[b] {
				if i, a = active[a], a+1; vs.ls[i].y1 < y {
					continue
				}
			} else {
				i, b = starts[b], b+1
			}
			next = append(next, i)
			r.x0, r.x1 = vs.ls[i].x, vs.ls[i].x+1
			fb.span(&fb.lines[y], r)
		}
		active, next = next, active
	}
	vs.at, vs.order, vs.active, vs.next = at, order, active, next
}

func overlayTree(ci *core.CounterIndex, ov OverlayConfig, cpu int32) *mmtree.Tree {
	if ov.Rate {
		return ci.RateTree(ov.Counter, cpu)
	}
	return ci.Tree(ov.Counter, cpu)
}

// overlayNaive draws one line per adjacent sample pair — the
// unoptimized rendering of Figure 21a. Returns the draw call count.
func overlayNaive(fb *Framebuffer, tree *mmtree.Tree, gutter, y, plotW, rowH int, start, end int64, vmin, vmax float64, c color.RGBA) int {
	ops := 0
	span := end - start
	var prevX, prevY int
	have := false
	for i := 0; i < tree.Len(); i++ {
		t, v := tree.Time(i), tree.Value(i)
		if t < start || t >= end {
			continue
		}
		x := gutter + int(tmath.MulDiv(t-start, int64(plotW), span))
		yy := valueToY(float64(v), vmin, vmax, y, rowH)
		if have {
			fb.Line(prevX, prevY, x, yy, c)
			ops++
		}
		prevX, prevY, have = x, yy, true
	}
	return ops
}

func valueToY(v, vmin, vmax float64, rowTop, rowH int) int {
	if vmax <= vmin {
		return rowTop + rowH - 1
	}
	f := (v - vmin) / (vmax - vmin)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return rowTop + rowH - 1 - int(f*float64(rowH-1))
}

package render

import (
	"image/color"

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
	// auto-scale above still covers every selected CPU.
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
		n, cols := tree.Len(), tmath.Columns{Start: start, End: end, W: g.plotW}.Cursor()
		for x, lo := 0, 0; x < g.plotW; {
			t0, t1 := cols.Window(x)
			lo = tree.SeekTime(t0, lo)
			if lo == n {
				break
			}
			hi := tree.SeekTime(t1, lo)
			if lo == hi {
				// No sample here, nor in any column that ends by the
				// next sample's time: go to the column holding it.
				x = max(x, cols.LastBy(tree.Time(lo))) + 1
				continue
			}
			mn, mx, _ := tree.MinMaxIndex(lo, hi)
			y0 := valueToY(float64(mx), vmin, vmax, y, g.rowH)
			y1 := valueToY(float64(mn), vmin, vmax, y, g.rowH)
			fb.VLine(g.gutter+x, y0, y1, ov.Color)
			st.Rects++
			x++
		}
	}
	return st
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

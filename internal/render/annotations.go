package render

import (
	"image/color"

	"github.com/openstream/aftermath/internal/annotations"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/tmath"
)

// AnnotationColor marks annotations on the timeline (amber, distinct
// from every state and NUMA category color).
var AnnotationColor = color.RGBA{R: 0xff, G: 0xb0, B: 0x30, A: 0xff}

// OverlayAnnotations draws the annotations falling inside a rendered
// timeline's interval as markers: a vertical line at the annotated
// instant — spanning the full plot for global annotations (CPU -1), or
// the annotated CPU's row — with a small flag at the top so dense
// marker groups stay visible. The framebuffer must have been rendered
// with cfg. Returns the number of markers drawn.
func OverlayAnnotations(fb *Framebuffer, tr *core.Trace, cfg TimelineConfig, set *annotations.Set) int {
	if set == nil || len(set.Annotations) == 0 {
		return 0
	}
	start, end := cfg.Start, cfg.End
	if start == 0 && end == 0 {
		start, end = tr.Span.Start, tr.Span.End
	}
	if end <= start {
		return 0
	}
	_, cpus := selectRows(tr, cfg.CPUs)
	if len(cpus) == 0 {
		return 0
	}
	g, err := timelineGeometry(fb.H(), fb.W(), len(cpus), cfg.Labels)
	if err != nil {
		return 0
	}
	// Only the rows the timeline drew: an annotation on a CPU below the
	// framebuffer's bottom has no row to mark.
	rowOf := make(map[int32]int, g.visible)
	for row, cpu := range cpus[:g.visible] {
		rowOf[cpu] = row
	}
	span := end - start
	drawn := 0
	for _, a := range set.In(start, end) {
		x := g.gutter + int(tmath.MulDiv(a.Time-start, int64(g.plotW), span))
		if x >= fb.W() {
			x = fb.W() - 1
		}
		y0, y1 := 0, fb.H()-1
		if a.CPU >= 0 {
			row, ok := rowOf[a.CPU]
			if !ok {
				continue
			}
			y0 = row * g.rowH
			y1 = y0 + g.rowH - 1
		}
		fb.VLine(x, y0, y1, AnnotationColor)
		// Flag: a short horizontal tick at the marker top.
		fb.HLine(x, min(x+4, fb.W()-1), y0, AnnotationColor)
		fb.HLine(x, min(x+3, fb.W()-1), y0+1, AnnotationColor)
		drawn++
	}
	return drawn
}

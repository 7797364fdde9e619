package render

import (
	"image/color"

	"github.com/openstream/aftermath/internal/trace"
)

// Background is the timeline background (black, as in the paper's
// figures where gaps show the dark background).
var Background = color.RGBA{0x10, 0x10, 0x10, 0xff}

// TextColor is used for labels.
var TextColor = color.RGBA{0xe0, 0xe0, 0xe0, 0xff}

// AxisColor is used for plot axes.
var AxisColor = color.RGBA{0x80, 0x80, 0x80, 0xff}

// StateColors maps worker states to the paper's timeline colors: dark
// blue for task execution, light blue for idling/work-stealing
// (Section III-A), distinct hues for run-time activities.
var StateColors = [trace.NumWorkerStates]color.RGBA{
	trace.StateIdle:       {0x9e, 0xc9, 0xe8, 0xff}, // light blue
	trace.StateTaskExec:   {0x1f, 0x3f, 0x8f, 0xff}, // dark blue
	trace.StateTaskCreate: {0xe8, 0xa3, 0x3d, 0xff}, // orange
	trace.StateResolve:    {0x6a, 0xa8, 0x4f, 0xff}, // green
	trace.StateBroadcast:  {0xb0, 0x5f, 0xc9, 0xff}, // purple
	trace.StateSync:       {0xd9, 0x53, 0x4f, 0xff}, // red
	trace.StateInit:       {0x7f, 0x7f, 0x7f, 0xff}, // gray
	trace.StateShutdown:   {0x4f, 0x4f, 0x4f, 0xff}, // dark gray
}

// unknownColor (magenta) paints what the palette has no entry for: a
// state past the worker states, a task whose type the trace does not
// declare.
var unknownColor = color.RGBA{0xff, 0x00, 0xff, 0xff}

// StateColor returns the color for a worker state.
func StateColor(s trace.WorkerState) color.RGBA {
	if int(s) < len(StateColors) {
		return StateColors[s]
	}
	return unknownColor
}

// HeatShade returns the heatmap color for a value in [0,1]: white for
// the shortest tasks through increasingly dark shades of red for the
// longest (Section II-B, heatmap mode). shades quantizes the scale.
func HeatShade(frac float64, shades int) color.RGBA {
	if shades < 2 {
		shades = 2
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	// Quantize to the configured number of shades.
	q := float64(int(frac*float64(shades-1)+0.5)) / float64(shades-1)
	// white (1,1,1) -> dark red (0.45, 0, 0)
	r := 1 - 0.55*q
	gb := 1 - q
	return color.RGBA{uint8(255 * r), uint8(255 * gb), uint8(255 * gb), 0xff}
}

// NUMAHeatShade maps a remote-access fraction in [0,1] to the NUMA
// heatmap gradient: blue (all local) to pink (all remote), Section
// II-B mode 5.
func NUMAHeatShade(remoteFrac float64) color.RGBA {
	if remoteFrac < 0 {
		remoteFrac = 0
	}
	if remoteFrac > 1 {
		remoteFrac = 1
	}
	// blue (0.25,0.45,0.9) -> pink (0.95,0.4,0.75)
	r := 0.25 + 0.70*remoteFrac
	g := 0.45 - 0.05*remoteFrac
	b := 0.90 - 0.15*remoteFrac
	return color.RGBA{uint8(255 * r), uint8(255 * g), uint8(255 * b), 0xff}
}

// CategoryColor returns a categorical palette color for index i,
// used by the typemap (one color per task type) and the NUMA maps
// (one color per node). Colors are generated around the hue wheel with
// alternating saturation/value so neighbouring indexes contrast.
func CategoryColor(i int) color.RGBA {
	if i < 0 {
		i = 0
	}
	// Golden-ratio hue stepping gives well-spread hues for any count.
	h := float64(i) * 0.61803398875
	h -= float64(int(h))
	s := 0.85
	v := 0.95
	if i%2 == 1 {
		s, v = 0.6, 0.8
	}
	return hsv(h, s, v)
}

// hsv converts HSV in [0,1]^3 to RGBA.
func hsv(h, s, v float64) color.RGBA {
	i := int(h * 6)
	f := h*6 - float64(i)
	p := v * (1 - s)
	q := v * (1 - f*s)
	t := v * (1 - (1-f)*s)
	var r, g, b float64
	switch i % 6 {
	case 0:
		r, g, b = v, t, p
	case 1:
		r, g, b = q, v, p
	case 2:
		r, g, b = p, v, t
	case 3:
		r, g, b = p, q, v
	case 4:
		r, g, b = t, p, v
	default:
		r, g, b = v, p, q
	}
	return color.RGBA{uint8(255 * r), uint8(255 * g), uint8(255 * b), 0xff}
}

// MatrixShade maps a fraction in [0,1] to the communication matrix
// scale: white through deep red (Figure 15).
func MatrixShade(frac float64) color.RGBA {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return color.RGBA{
		uint8(255 * (1 - 0.3*frac)),
		uint8(255 * (1 - 0.85*frac)),
		uint8(255 * (1 - 0.85*frac)),
		0xff,
	}
}

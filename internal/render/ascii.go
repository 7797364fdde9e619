package render

import (
	"strings"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/trace"
)

// stateChars maps worker states to terminal characters for the ASCII
// timeline: '#' task execution, '.' idle, lowercase letters for
// run-time activities.
var stateChars = [trace.NumWorkerStates]byte{
	trace.StateIdle:       '.',
	trace.StateTaskExec:   '#',
	trace.StateTaskCreate: 'c',
	trace.StateResolve:    'r',
	trace.StateBroadcast:  'b',
	trace.StateSync:       's',
	trace.StateInit:       'i',
	trace.StateShutdown:   'z',
}

// StateChar returns the ASCII timeline character for a state.
func StateChar(s trace.WorkerState) byte {
	if int(s) < len(stateChars) {
		return stateChars[s]
	}
	return '?'
}

// ASCIITimeline renders the state-mode timeline as text, one row per
// CPU, using the same per-pixel dominant-state algorithm as the
// graphical renderer. maxRows caps the number of CPU rows (0 = all);
// when capped, CPUs are sampled evenly.
func ASCIITimeline(tr *core.Trace, width, maxRows int) string {
	if width < 1 {
		width = 80
	}
	n := tr.NumCPUs()
	rows := n
	if maxRows > 0 && maxRows < n {
		rows = maxRows
	}
	start, end := tr.Span.Start, tr.Span.End
	if end <= start {
		return ""
	}
	dom := tr.DomIndex()
	var b strings.Builder
	for r := 0; r < rows; r++ {
		cpu := int32(r * n / rows)
		dc := dom.CPU(tr, cpu)
		line := make([]byte, width)
		for x := 0; x < width; x++ {
			ev, ok, _ := dc.DominantState(pixelWindow(start, end-start, x, width))
			if !ok {
				line[x] = ' '
				continue
			}
			line[x] = StateChar(ev.State)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

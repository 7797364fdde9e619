package render

import (
	"strings"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/mragg"
	"github.com/openstream/aftermath/internal/tmath"
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
// CPU, using the same dominant-state row walk as the graphical
// renderer. maxRows caps the number of CPU rows (0 = all);
// when capped, CPUs are sampled evenly. A span no column can map to —
// empty, or wider than 2^63-1 cycles — renders as "".
func ASCIITimeline(tr *core.Trace, width, maxRows int) string {
	if width < 1 {
		width = 80
	}
	n := tr.NumCPUs()
	rows := n
	if maxRows > 0 && maxRows < n {
		rows = maxRows
	}
	start, end, err := timeWindow(tr, TimelineConfig{})
	if err != nil {
		return ""
	}
	dom, cols := tr.DomIndex(), tmath.Columns{Start: start, End: end, W: width}
	var b strings.Builder
	line := make([]byte, width)
	var buf [64]mragg.Run
	for r := 0; r < rows; r++ {
		row := dom.CPU(tr, int32(r*n/rows)).Row(cols, false, nil)
		for runs := row.Next(buf[:0]); len(runs) > 0; runs = row.Next(buf[:0]) {
			for _, run := range runs {
				c := byte(' ')
				if ev := row.Event(run.Leaf); ev != nil {
					c = StateChar(ev.State)
				}
				for x := run.X0; x < run.X1; x++ {
					line[x] = c
				}
			}
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

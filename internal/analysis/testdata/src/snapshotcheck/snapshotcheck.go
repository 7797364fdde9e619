// Package snapshotcheck is the fixture for the snapshotcheck
// analyzer: published core snapshots are immutable outside
// internal/core.
package snapshotcheck

import "github.com/openstream/aftermath/internal/core"

// mutate stores through every snapshot type the rule covers.
func mutate(tr *core.Trace, c *core.Counter) {
	tr.Span.Start = 0                            // want "core.Trace"
	tr.CPUs[0].States.Rows[0].End = 5            // want "core.CPUData"
	tr.Tasks[0].ExecCPU = -1                     // want "core.TaskInfo"
	c.PerCPU[0].Rows = nil                       // want "core.Counter"
	tr.Span.End++                                // want "core.Trace"
	tr.Tasks = append(tr.Tasks, core.TaskInfo{}) // want "core.Trace"
}

// read-only traversal is what snapshots are for: allowed.
func read(tr *core.Trace) int64 {
	return tr.Span.Start + tr.Tasks[0].ExecStart - tr.Tasks[0].ExecStart
}

// rebind reassigns the local pointer variable, mutating nothing
// shared; and Interval is a small value type passed by copy, so a
// local copy's fields are fair game.
func rebind(tr *core.Trace) core.Interval {
	tr = nil
	_ = tr
	local := core.Interval{}
	local.Start = 1
	return local
}

// alias documents the rule's known blind spot: once snapshot state is
// aliased into a plain local, a per-expression check cannot see the
// write. The race detector and TestStreamEqualsBatch remain the
// backstop for this shape.
func alias(tr *core.Trace) {
	s := tr.CPUs[0].States.Rows
	s[0].End = 9 // out of reach: no snapshot type in the target chain
}

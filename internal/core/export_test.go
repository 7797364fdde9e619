package core

import "testing"

// The home-node case generator and checks, and the region-search count,
// for the external tests of this package (readers_test.go): they drive
// the readers of the home-node column in render, anomaly, filter and
// ui, which import core.

type HomeCase = homeCase

var (
	GenHomeCase     = genHomeCase
	CheckHomeWindow = checkHomeWindow
)

// Column returns the communication column the case gave cpu, as the
// trace holds it.
func (c *homeCase) Column(cpu int) []Comm { return commRows(c.comm[cpu]) }

// Stream writes the case as a native trace.
func (c *homeCase) Stream(t testing.TB) []byte { return c.stream(t) }

// Live feeds the case to a live trace without spilling and returns its
// last snapshot.
func (c *homeCase) Live(t testing.TB) (*Live, *Trace) { return c.live(t, "") }

// CheckTaskHomes holds TaskHomes to the reference for every task of tr.
func CheckTaskHomes(t testing.TB, ctx string, tr *Trace) {
	t.Helper()
	var cov homeCover
	checkTaskHomes(t, ctx, tr, &cov)
}

// Searched returns the number of accesses tr resolved through its
// region table.
func (tr *Trace) Searched() int64 { return tr.searched.Load() }

// RaceEnabled reports whether the tests run under the race detector.
const RaceEnabled = raceEnabled

// EqualTraces compares every externally observable part of two traces.
var EqualTraces = equalTraces

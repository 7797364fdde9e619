package anomaly

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/hw"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/trace"
)

// tableDuration is DurationDetector as it was before it asked the task
// window index: a walk over every task of the table, grouping by type in
// task order, every finding built. Kept as the reference the windowed
// detector is held to.
type tableDuration struct{}

func (tableDuration) Name() string { return "duration-outlier" }

func (tableDuration) Detect(tr *core.Trace, cfg Config) []Anomaly {
	byType := make(map[trace.TypeID][]*core.TaskInfo)
	var typeOrder []trace.TypeID
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		if t.ExecCPU < 0 || !cfg.Filter.Match(tr, t) {
			continue
		}
		if !cfg.Window.Overlaps(t.ExecStart, t.ExecEnd) {
			continue
		}
		if _, ok := byType[t.Type]; !ok {
			typeOrder = append(typeOrder, t.Type)
		}
		byType[t.Type] = append(byType[t.Type], t)
	}
	sort.Slice(typeOrder, func(i, j int) bool { return typeOrder[i] < typeOrder[j] })
	var out []Anomaly
	for _, typ := range typeOrder {
		out = append(out, scoreTypeDurations(tr, typ, byType[typ], math.Inf(-1))...)
	}
	return out
}

// tableNUMA is NUMADetector as it was before it asked the task window
// index: the task table scored in chunks, every finding built. Kept as
// the reference the windowed detector is held to.
type tableNUMA struct{}

func (tableNUMA) Name() string { return "numa-remote" }

func (tableNUMA) Detect(tr *core.Trace, cfg Config) []Anomaly {
	if tr.NumNodes() < 2 {
		return nil
	}
	model := hw.Default()
	baseline := 1 - stats.LocalityFraction(tr, stats.ReadsAndWrites, cfg.Window.Start, cfg.Window.End)
	bounds := par.Chunks(cfg.Workers, len(tr.Tasks))
	perChunk := make([][]Anomaly, len(bounds)-1)
	par.Do(cfg.Workers, len(perChunk), func(c int) {
		for i := bounds[c]; i < bounds[c+1]; i++ {
			t := &tr.Tasks[i]
			if t.ExecCPU < 0 || !cfg.Filter.Match(tr, t) {
				continue
			}
			if !cfg.Window.Overlaps(t.ExecStart, t.ExecEnd) {
				continue
			}
			if a, ok := scoreTaskLocality(tr, model, t, taskLocalityOf(tr, t), baseline, math.Inf(-1)); ok {
				perChunk[c] = append(perChunk[c], a)
			}
		}
	})
	var out []Anomaly
	for _, as := range perChunk {
		out = append(out, as...)
	}
	return out
}

// TestTaskDetectorsMatchTableWalk: the duration and NUMA detectors,
// which visit the window's tasks and build no finding below the cutoff,
// rank exactly what the walks over the whole task table ranked — on a
// batch load and a live snapshot of a Seidel run, without a filter, with
// a types= filter and with a duration bound, at the default and a low
// cutoff, over 50 seeded windows and the full span. The duration
// detector's unranked findings are the walk's too, in the walk's order.
func TestTaskDetectorsMatchTableWalk(t *testing.T) {
	batch := atmtest.SeidelTrace(t, 8, 4, openstream.SchedRandom)
	live := atmtest.SeidelLiveTrace(t, 8, 4, openstream.SchedRandom, 5)
	pairs := []struct{ windowed, table Detector }{
		{DurationDetector{}, tableDuration{}},
		{NUMADetector{}, tableNUMA{}},
	}
	rng := rand.New(rand.NewSource(34))
	span := batch.Span
	windows := []core.Interval{{}}
	for i := 0; i < 50; i++ {
		a := span.Start + rng.Int63n(span.Duration())
		windows = append(windows, core.Interval{Start: a, End: a + 1 + rng.Int63n(span.End-a)})
	}
	found := make(map[string]int)
	for _, arm := range []struct {
		name string
		tr   *core.Trace
	}{{"batch", batch}, {"live", live}} {
		// A duration bound that cuts through the seidel blocks: a
		// detector that ignored the filter would score other groups.
		long := (*filter.TaskFilter)(nil).WithDuration(arm.tr.Tasks[len(arm.tr.Tasks)/2].Duration(), 0)
		for fi, f := range []*filter.TaskFilter{nil, filter.ByTypeNames(arm.tr, apps.SeidelBlockType), long} {
			for _, minScore := range []float64{0, 0.5} {
				for _, w := range windows {
					cfg := Config{Window: w, MinScore: minScore, MaxPerKind: -1, Filter: f}
					for _, p := range pairs {
						got, want := ScanWith(arm.tr, cfg, p.windowed), ScanWith(arm.tr, cfg, p.table)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s, %s, filter %d, cutoff %g, window %+v: %d findings, the table walk ranks %d",
								arm.name, p.windowed.Name(), fi, minScore, w, len(got), len(want))
						}
						found[p.windowed.Name()] += len(got)
					}
					c := cfg.withDefaults(arm.tr)
					var kept []Anomaly
					for _, a := range (tableDuration{}).Detect(arm.tr, c) {
						if a.Score >= c.MinScore {
							kept = append(kept, a)
						}
					}
					if got := (DurationDetector{}).Detect(arm.tr, c); !reflect.DeepEqual(got, kept) {
						t.Fatalf("%s, filter %d, cutoff %g, window %+v: the duration detector's unranked findings are not the table walk's", arm.name, fi, minScore, w)
					}
				}
			}
		}
	}
	t.Logf("findings ranked: %v", found)
	for _, p := range pairs {
		if found[p.windowed.Name()] == 0 {
			t.Errorf("%s found nothing; the equality above is vacuous", p.windowed.Name())
		}
	}
}

// TestScanAllocations pins as a count what building only the kept
// findings took off a scan: over a sixty-fourth of a randomly scheduled
// Seidel run's span, where many tasks are partly remote and few stand
// out, Scan allocates 324 times, where the duration and NUMA detectors
// formatting an explanation for every candidate below the cutoff made it
// 809. Medians by selection, whose robust spread copies its values once
// instead of sorting three copies, and the NUMA detector's per-node
// sums on the stack made it 202. The spike detector reading a counter's
// values at the window bounds in one walk per CPU into one buffer per
// counter, and explaining a finding once, when it stops growing, made
// it 89.
func TestScanAllocations(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 16, 8, openstream.SchedRandom)
	span := tr.Span.Duration()
	start := tr.Span.Start + span/3
	cfg := Config{Window: core.Interval{Start: start, End: start + span/64}, Workers: 1}
	scan := func() { Scan(tr, cfg) }
	scan() // the first scan builds the indexes it reads
	const ceiling = 100
	allocs := testing.AllocsPerRun(10, scan)
	t.Logf("%.0f allocations a scan, %d findings", allocs, len(Scan(tr, cfg)))
	if allocs > ceiling {
		t.Errorf("a scan over span/64 allocates %.0f times, want at most %d", allocs, ceiling)
	}
}

// TestWideScanAllocations pins a scan over half the span, where every
// task the window holds is a candidate: a map of remote bytes per task,
// and three sorted copies of every type group's durations, made it
// allocate 3 569 times a scan. The spike detector explaining a run of
// windows at every window it grew by made it 1 079 (about 1 350 under
// the race detector); explaining it once, 782 (about 1 010).
func TestWideScanAllocations(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 16, 8, openstream.SchedRandom)
	span := tr.Span.Duration()
	cfg := Config{Window: core.Interval{Start: tr.Span.Start + span/4, End: tr.Span.Start + span/4 + span/2}, Workers: 1}
	scan := func() { Scan(tr, cfg) }
	scan()
	ceiling := 880.0
	if raceEnabled {
		ceiling = 1130
	}
	allocs := testing.AllocsPerRun(5, scan)
	t.Logf("%.0f allocations a scan, %d findings", allocs, len(Scan(tr, cfg)))
	if allocs > ceiling {
		t.Errorf("a scan over span/2 allocates %.0f times, want at most %.0f", allocs, ceiling)
	}
}

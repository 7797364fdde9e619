// Package anomaly turns the passive trace viewer into an analysis
// engine: a framework of detectors that scan a loaded core.Trace for
// the cross-layer performance anomalies the paper teaches users to
// find by eye — task-duration outliers, NUMA-remote memory traffic,
// work-stealing load imbalance, and hardware counter excursions — and
// return them as a single deterministic ranked list (following Drebes
// et al., "Automatic Detection of Performance Anomalies in
// Task-Parallel Programs", and the ranked anomaly navigation of
// Traveler).
//
// Detectors are independent and run in parallel over the immutable
// trace via the shared worker pool; each writes its findings to its
// own slot, so Scan's output is identical for every worker count.
package anomaly

import (
	"fmt"
	"sort"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/filter"
	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/tmath"
	"github.com/openstream/aftermath/internal/trace"
)

// Kind identifies the class of an anomaly.
type Kind int

const (
	// KindDurationOutlier marks a task that ran far longer than its
	// type's typical duration.
	KindDurationOutlier Kind = iota
	// KindNUMARemote marks a task whose memory accesses were far more
	// node-remote than the trace baseline.
	KindNUMARemote
	// KindLoadImbalance marks a time window in which at least one CPU
	// sat idle while the others were busy executing tasks.
	KindLoadImbalance
	// KindCounterSpike marks a window in which a hardware counter's
	// rate on one CPU far exceeded its typical rate.
	KindCounterSpike

	// NumKinds is the number of anomaly kinds.
	NumKinds = int(KindCounterSpike) + 1
)

var kindNames = [...]string{
	KindDurationOutlier: "duration-outlier",
	KindNUMARemote:      "numa-remote",
	KindLoadImbalance:   "load-imbalance",
	KindCounterSpike:    "counter-spike",
}

// String returns the kind's hyphenated name.
func (k Kind) String() string {
	if int(k) >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind parses a kind name as used by the CLI and HTTP endpoint.
func ParseKind(s string) (Kind, bool) {
	for k := 0; k < NumKinds; k++ {
		if Kind(k).String() == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Anomaly is one ranked finding.
type Anomaly struct {
	// Kind classifies the anomaly.
	Kind Kind
	// Score is the detector's severity estimate, comparable across
	// detectors: roughly "robust standard deviations above normal".
	Score float64
	// Window is the trace interval the anomaly covers.
	Window core.Interval
	// CPU is the affected CPU, or -1 when the finding is not tied to
	// one CPU.
	CPU int32
	// TaskID is the affected task, or trace.NoTask.
	TaskID trace.TaskID
	// Counter names the counter for counter-derived findings.
	Counter string
	// Explanation is a one-line human-readable account of what was
	// measured and against which baseline.
	Explanation string
}

// Config parameterizes a scan. The zero value selects defaults.
type Config struct {
	// Windows is the number of sliding analysis windows the
	// window-based detectors divide the scanned interval into
	// (default 64).
	Windows int
	// MinScore prunes findings scoring below it (default 3, the
	// usual robust-z outlier cutoff).
	MinScore float64
	// MaxPerKind bounds the findings each detector may return, after
	// ranking (default 20; <0 means unbounded).
	MaxPerKind int
	// Filter restricts the task-level detectors to matching tasks.
	Filter *filter.TaskFilter
	// Window restricts the scan to a sub-interval of the trace span
	// (zero value scans the full span).
	Window core.Interval
	// Workers bounds the scan's parallelism (<=0 selects the shared
	// pool default).
	Workers int
}

// Defaults for Config's zero value.
const (
	DefaultWindows    = 64
	DefaultMinScore   = 3.0
	DefaultMaxPerKind = 20
)

// withDefaults returns cfg with zero fields replaced by defaults and
// the scan window clamped to the trace span.
func (cfg Config) withDefaults(tr *core.Trace) Config {
	if cfg.Windows <= 0 {
		cfg.Windows = DefaultWindows
	}
	if cfg.MinScore <= 0 {
		cfg.MinScore = DefaultMinScore
	}
	if cfg.MaxPerKind == 0 {
		cfg.MaxPerKind = DefaultMaxPerKind
	}
	if cfg.Workers <= 0 {
		cfg.Workers = par.Workers()
	}
	if cfg.Window.Duration() <= 0 {
		cfg.Window = tr.Span
	} else {
		if cfg.Window.Start < tr.Span.Start {
			cfg.Window.Start = tr.Span.Start
		}
		if cfg.Window.End > tr.Span.End {
			cfg.Window.End = tr.Span.End
		}
		if cfg.Window.Duration() <= 0 {
			cfg.Window = tr.Span
		}
	}
	return cfg
}

// Detector finds one class of anomaly in a trace. Detect must be pure:
// same trace and config, same findings, regardless of concurrency.
type Detector interface {
	// Name identifies the detector (stable, hyphenated).
	Name() string
	// Detect returns the detector's findings, unranked. It skips a
	// candidate scoring below cfg.MinScore before building its finding
	// — the explanation is formatted only for what Scan keeps — and the
	// task detectors visit only the tasks cfg.Window holds.
	Detect(tr *core.Trace, cfg Config) []Anomaly
}

// detectors is the set Scan runs, sorted by name, so scan order (and
// therefore slot assignment) is deterministic.
var detectors = []Detector{SpikeDetector{}, DurationDetector{}, ImbalanceDetector{}, NUMADetector{}}

// Scan runs every detector over the trace and returns the merged
// findings ranked by severity. The ranking is deterministic: detectors
// run in parallel but each writes to its own slot, and ties break on
// (kind, window start, CPU, task, counter).
func Scan(tr *core.Trace, cfg Config) []Anomaly {
	return ScanWith(tr, cfg, detectors...)
}

// ScanWith runs the given detectors (see Scan).
func ScanWith(tr *core.Trace, cfg Config, detectors ...Detector) []Anomaly {
	cfg = cfg.withDefaults(tr)
	perDetector := make([][]Anomaly, len(detectors))
	par.Do(cfg.Workers, len(detectors), func(i int) {
		found := detectors[i].Detect(tr, cfg)
		kept := found[:0]
		for _, a := range found {
			if a.Score >= cfg.MinScore {
				kept = append(kept, a)
			}
		}
		rank(kept)
		if cfg.MaxPerKind >= 0 && len(kept) > cfg.MaxPerKind {
			kept = kept[:cfg.MaxPerKind]
		}
		perDetector[i] = kept
	})
	var out []Anomaly
	for _, found := range perDetector {
		out = append(out, found...)
	}
	rank(out)
	return out
}

// rank sorts findings by descending score with a total tie order, so
// equal-score findings always appear in the same sequence.
func rank(as []Anomaly) {
	sort.SliceStable(as, func(i, j int) bool {
		a, b := &as[i], &as[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Window.Start != b.Window.Start {
			return a.Window.Start < b.Window.Start
		}
		if a.CPU != b.CPU {
			return a.CPU < b.CPU
		}
		if a.TaskID != b.TaskID {
			return a.TaskID < b.TaskID
		}
		return a.Counter < b.Counter
	})
}

// String formats a finding as one report line.
func (a Anomaly) String() string {
	loc := "global"
	if a.CPU >= 0 {
		loc = fmt.Sprintf("cpu %d", a.CPU)
	}
	if a.TaskID != trace.NoTask {
		loc += fmt.Sprintf(" task %d", a.TaskID)
	}
	return fmt.Sprintf("[%-16s] score %5.1f  @[%d,%d) %s: %s",
		a.Kind, a.Score, a.Window.Start, a.Window.End, loc, a.Explanation)
}

// windowBounds returns n+1 boundaries dividing iv into n equal
// windows. The product span·i takes 128 bits, as in metrics.boundaries:
// it outgrows int64 on a span near the top of the range.
func windowBounds(iv core.Interval, n int) []trace.Time {
	bs := make([]trace.Time, n+1)
	span := iv.Duration()
	for i := 0; i <= n; i++ {
		bs[i] = iv.Start + tmath.MulDiv(span, int64(i), int64(n))
	}
	return bs
}

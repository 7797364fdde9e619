// Package aftermath is a Go implementation of Aftermath, the tool for
// interactive, off-line visualization, filtering and analysis of
// execution traces of task-parallel applications and run-time systems
// with explicit NUMA support, described in:
//
//	Drebes, Pop, Heydemann, Cohen. "Interactive Visualization of
//	Cross-Layer Performance Anomalies in Dynamic Task-Parallel
//	Applications and Systems". ISPASS 2016.
//
// The package bundles three layers behind one import:
//
//   - Ingest: load traces in every supported format (Open, ImportSpans,
//     SaveSnapshot) or follow one that is still being written
//     (NewLiveTrace, FollowTrace).
//   - Analysis and views: one Query over one TraceSource describes
//     every view of the paper's interface — derived metrics
//     (QuerySeries), statistics (QueryStats, QueryHistogram,
//     QueryCommMatrix), the timeline in all five modes (QueryTimeline),
//     task selection and counter attribution (QueryTasks,
//     QueryTaskDeltas, QueryTasksCSV) and ranked anomalies
//     (QueryAnomalies) — served interactively by NewViewer and NewHub.
//     Task graphs, plots, regressions and annotations complete it.
//   - Workload simulation: an OpenStream-like runtime simulator for
//     dependent task graphs on NUMA machine models, with the paper's
//     applications (seidel, k-means) as ready-made workloads — the
//     substrate that generates traces with the cross-layer anomalies
//     the paper analyzes.
package aftermath

import (
	"io"
	"time"

	"github.com/openstream/aftermath/internal/annotations"
	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/export"
	"github.com/openstream/aftermath/internal/hw"
	"github.com/openstream/aftermath/internal/ingest"
	"github.com/openstream/aftermath/internal/ingest/otlp"
	"github.com/openstream/aftermath/internal/metrics"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/regress"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/taskgraph"
	"github.com/openstream/aftermath/internal/topology"
	"github.com/openstream/aftermath/internal/trace"
	"github.com/openstream/aftermath/internal/ui"
)

// ---- Unified source/query API ----
//
// Every analysis surface in this package is built on two concepts:
//
//   - TraceSource yields epoch-versioned immutable *Trace snapshots.
//     A loaded batch trace is a source forever at epoch 0 (Static);
//     a LiveTrace is a source whose epoch advances on every publish.
//     Metrics, statistics, rendering, anomaly scanning and export all
//     accept any source through the Query* entry points.
//   - Query is a composable description of what to compute — window,
//     task filter, resolution, mode, counter and anomaly selection —
//     built fluently:
//
//	q := aftermath.NewQuery().Window(t0, t1).Types("seidel_block").Intervals(200)
//	series, epoch, err := aftermath.QuerySeries(src, q.Metric("avgdur"))
//
// Query.Canonical() is a deterministic, order-independent encoding of
// the query; together with the source's epoch it is the cache key the
// serving layer (NewViewer, NewHub) uses, so equivalent requests share
// one cache entry.

// TraceSource yields epoch-versioned immutable trace snapshots.
// *LiveTrace implements it directly; Static adapts a loaded trace.
type TraceSource = query.Source

// Query describes one computation over a snapshot: window, filter,
// resolution, mode/counter and anomaly selections. Its Canonical form
// doubles as the cache key of the serving layer.
type Query = query.Query

// IntervalStats is the schema-stable statistics summary for a window
// (the viewer's /stats body and QueryStats result).
type IntervalStats = query.StatsResult

// NewQuery returns an empty query: full span, no filter, defaults.
func NewQuery() *Query { return query.New() }

// Static adapts a loaded batch trace into a TraceSource forever at
// epoch 0.
func Static(tr *Trace) TraceSource { return query.NewStatic(tr) }

// QuerySeries computes the derived metric series a query selects
// ("idle", "avgdur", or a counter name) over the source's current
// snapshot, returning the snapshot epoch alongside.
func QuerySeries(src TraceSource, q *Query) (Series, uint64, error) {
	tr, epoch := src.Snapshot()
	s, err := query.SeriesOf(tr, q)
	return s, epoch, err
}

// QueryStats computes the statistics-panel summary for the query's
// window and filter.
func QueryStats(src TraceSource, q *Query) (IntervalStats, uint64) {
	tr, epoch := src.Snapshot()
	return query.StatsOf(tr, q), epoch
}

// QueryTimeline renders the timeline a query describes (window, mode,
// filter, dimensions, optional counter overlay).
func QueryTimeline(src TraceSource, q *Query) (*Framebuffer, uint64, error) {
	tr, epoch := src.Snapshot()
	fb, _, err := query.TimelineOf(tr, q)
	return fb, epoch, err
}

// QueryHistogram bins the durations of the executed tasks a query
// selects, as QueryTasks selects them.
func QueryHistogram(src TraceSource, q *Query) (*Histogram, uint64) {
	tr, epoch := src.Snapshot()
	return query.HistogramOf(tr, q), epoch
}

// QueryCommMatrix accumulates the communication matrix over the
// query's window (kinds selected with Query.Comm, default reads and
// writes).
func QueryCommMatrix(src TraceSource, q *Query) (*CommMatrix, uint64) {
	tr, epoch := src.Snapshot()
	return query.CommMatrixOf(tr, q), epoch
}

// QueryAnomalies scans the source's current snapshot and returns the
// ranked findings the query selects (window, filter, AnomalyWindows,
// MinScore, AnomalyKind, Limit).
func QueryAnomalies(src TraceSource, q *Query) ([]Anomaly, uint64, error) {
	tr, epoch := src.Snapshot()
	found, err := query.AnomaliesOf(tr, q)
	return found, epoch, err
}

// QueryTasks returns the tasks a query selects.
func QueryTasks(src TraceSource, q *Query) ([]*TaskInfo, uint64) {
	tr, epoch := src.Snapshot()
	return query.TasksOf(tr, q), epoch
}

// QueryTaskDeltas attributes the counter a query names (Query.Counter)
// to the executed tasks it selects, as QueryTasks selects them: each
// task's counter increase over its execution (paper Section V). An
// unknown counter name is an error.
func QueryTaskDeltas(src TraceSource, q *Query) ([]TaskDelta, uint64, error) {
	tr, epoch := src.Snapshot()
	deltas, err := query.TaskDeltasOf(tr, q)
	return deltas, epoch, err
}

// QueryTasksCSV writes the tasks a query selects (with counter
// attribution) as CSV.
func QueryTasksCSV(w io.Writer, src TraceSource, q *Query, counters []*Counter) (uint64, error) {
	tr, epoch := src.Snapshot()
	return epoch, query.TasksCSVTo(w, tr, q, counters)
}

// ---- Multi-trace Hub server ----

// Hub serves many named trace sources — batch and live mixed — from
// one process: an index at /, a JSON listing at /traces, and the full
// single-trace viewer under /t/<name>/. All traces share one LRU
// response cache keyed by (trace, epoch, canonical query).
type Hub = ui.Hub

// NewHub returns an empty hub. Register sources with Add:
//
//	hub := aftermath.NewHub()
//	hub.Add("seidel", aftermath.Static(tr))
//	hub.Add("run-live", liveTrace)
//	http.ListenAndServe(":8080", hub)
func NewHub() *Hub { return ui.NewHub() }

// ---- Trace model ----

// Trace is a loaded, indexed execution trace.
type Trace = core.Trace

// TaskInfo describes a task instance with its execution placement.
type TaskInfo = core.TaskInfo

// Interval is a half-open interval in trace time.
type Interval = core.Interval

// Counter is a performance counter with per-CPU samples.
type Counter = core.Counter

// Time is a point in trace time, in cycles.
type Time = trace.Time

// WorkerState identifies a worker thread activity.
type WorkerState = trace.WorkerState

// Worker states (see the trace format documentation).
const (
	StateIdle       = trace.StateIdle
	StateTaskExec   = trace.StateTaskExec
	StateTaskCreate = trace.StateTaskCreate
	StateResolve    = trace.StateResolve
	StateBroadcast  = trace.StateBroadcast
	StateSync       = trace.StateSync
)

// Well-known counter names emitted by the runtime simulator.
const (
	CounterCycles       = trace.CounterCycles
	CounterCacheMisses  = trace.CounterCacheMisses
	CounterBranchMisses = trace.CounterBranchMisses
	CounterOSSystemTime = trace.CounterOSSystemTime
	CounterResidentKB   = trace.CounterResidentKB
)

// Open loads and indexes a trace file. The format is detected from the
// file's content, never its name: native binary traces, their
// gzip-compressed form, columnar snapshot files written by SaveSnapshot
// (which open in O(touched pages) via mmap instead of re-decoding the
// stream), and foreign span streams (stdouttrace line-delimited JSON or
// OTLP-JSON, imported through the topology-inferring span importer) all
// open through this one entry point.
func Open(path string) (*Trace, error) { return ingest.Open(path) }

// SaveSnapshot writes a trace — batch or a live snapshot — to the
// columnar on-disk format: per-CPU event and counter columns plus the
// serialized aggregation pyramids, so a later Open maps it zero-copy
// and serves first queries without rebuilding indexes.
func SaveSnapshot(tr *Trace, path string) error { return core.SaveStore(tr, path) }

// OpenReader loads a trace from a stream, detecting the format from
// its content like Open (store snapshots excepted — those need the
// file for mmap).
func OpenReader(r io.Reader) (*Trace, error) { return ingest.OpenReader(r) }

// ImportReport summarizes what the span importer inferred from a
// foreign trace: the service topology, per-operation duration and
// error statistics, and each operation's voted call style.
type ImportReport = otlp.Report

// ImportSpans imports a foreign span stream — stdouttrace
// line-delimited JSON or OTLP-JSON — as a fully indexed trace. Task
// trees are reconstructed from parent span links, services are mapped
// onto a synthetic worker/CPU topology, and per-operation statistics
// are collected; the returned report describes what was inferred.
// Every analysis, rendering and serving API works on the imported
// trace unchanged.
func ImportSpans(r io.Reader) (*Trace, *ImportReport, error) { return ingest.ImportSpans(r) }

// ---- Live streaming ingest ----

// LiveTrace is an appendable trace: record batches stream in while
// readers query immutable epoch-versioned snapshots. A snapshot is
// byte-identical to a cold Open of the stream prefix consumed so far
// (the guarantee TestStreamEqualsBatch enforces), so every analysis,
// metric and rendering API in this package works on live traces
// unchanged.
type LiveTrace = core.Live

// TraceEvent is one push notification from LiveTrace.Watch: an epoch
// advance, a sticky ingest error, and/or a spill-state change.
// Subscriptions coalesce — a slow consumer's next receive always
// describes the latest published state, never a backlog.
type TraceEvent = core.TraceEvent

// RecordBatch is a decoded group of trace records, as produced by a
// StreamReader poll and consumed by LiveTrace.Append.
type RecordBatch = trace.RecordBatch

// StreamReader incrementally decodes a trace that is still being
// written; each Poll drains the bytes currently available and decodes
// every complete record, buffering the partial tail.
type StreamReader = trace.StreamReader

// NewLiveTrace returns an empty live trace at epoch 0.
func NewLiveTrace() *LiveTrace { return core.NewLive() }

// NewStreamReader returns a StreamReader decoding the trace stream r.
func NewStreamReader(r io.Reader) *StreamReader { return trace.NewStreamReader(r) }

// RetentionPolicy bounds a live trace's memory: epochs older than the
// hot tail spill to columnar segment files under Dir once SpillBytes
// of events accumulate in RAM, and spilled segments beyond MaxBytes or
// MaxAge are dropped oldest-first. Configure with LiveTrace.SetRetention
// before feeding.
type RetentionPolicy = core.RetentionPolicy

// SpillStats reports a live trace's spill state (segment count, bytes
// on disk, pending compactions, drops, sticky error).
type SpillStats = core.SpillStats

// Follower tails a growing trace file into a live trace. Unlike a bare
// Feed loop it owns its resources — Close stops the poll goroutine and
// releases the file handle — and it detects file truncation or
// rotation, surfacing a sticky descriptive ingest error on the live
// trace instead of silently decoding garbage at a stale offset.
type Follower = core.Follower

// FollowTrace opens path for live tailing into lv with the detected
// format's incremental decoder (native binary traces and span streams
// are both tailable), performs the initial feed and starts the poll
// loop. Close the returned Follower to stop polling and release the
// file handle; register it with Hub.AddCloser to tie its lifetime to a
// hub.
func FollowTrace(lv *LiveTrace, path string, pollEvery time.Duration) (*Follower, error) {
	return ingest.Follow(lv, path, pollEvery)
}

// ---- Derived metrics ----

// Series is a derived metric over time.
type Series = metrics.Series

// TaskDelta is a per-task counter increase.
type TaskDelta = metrics.TaskDelta

// ---- Statistics ----

// Histogram is a fixed-range histogram.
type Histogram = stats.Histogram

// CommMatrix is the NUMA communication incidence matrix.
type CommMatrix = stats.CommMatrix

// CommKinds selects read and/or write accesses.
type CommKinds = stats.CommKinds

// Communication kind selectors.
const (
	Reads          = stats.Reads
	Writes         = stats.Writes
	ReadsAndWrites = stats.ReadsAndWrites
)

// ---- Task graph ----

// Graph is a reconstructed task dependence graph.
type Graph = taskgraph.Graph

// DOTOptions controls task graph DOT export.
type DOTOptions = taskgraph.DOTOptions

// ReconstructGraph derives the task graph from the memory accesses in
// the trace (paper Section III-A).
func ReconstructGraph(tr *Trace) *Graph { return taskgraph.Reconstruct(tr) }

// ---- Regression ----

// Fit is a least-squares line with its coefficient of determination.
type Fit = regress.Fit

// LinearRegression fits a least-squares line (paper Section V).
func LinearRegression(xs, ys []float64) (Fit, error) { return regress.Linear(xs, ys) }

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 { return regress.Mean(xs) }

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return regress.StdDev(xs) }

// ---- Rendering ----

// Framebuffer is an offscreen image: one palette byte per pixel, RGBA
// from the first translucent or 257th colour drawn. Read pixels with
// At, or take a copy with RGBA.
type Framebuffer = render.Framebuffer

// TimelineMode selects one of the five timeline modes.
type TimelineMode = render.Mode

// Timeline modes (paper Section II-B).
const (
	ModeState     = render.ModeState
	ModeHeat      = render.ModeHeat
	ModeType      = render.ModeType
	ModeNUMARead  = render.ModeNUMARead
	ModeNUMAWrite = render.ModeNUMAWrite
	ModeNUMAHeat  = render.ModeNUMAHeat
)

// ASCIITimeline renders the state timeline as text for terminals.
func ASCIITimeline(tr *Trace, width, maxRows int) string {
	return render.ASCIITimeline(tr, width, maxRows)
}

// RenderCommMatrix renders a communication matrix view (Figure 15).
func RenderCommMatrix(m *CommMatrix, cellPx int) *Framebuffer {
	return render.RenderMatrix(m, cellPx)
}

// PlotConfig parameterizes standalone plots.
type PlotConfig = render.PlotConfig

// PlotSeries renders series as line plots.
func PlotSeries(cfg PlotConfig, series ...Series) (*Framebuffer, error) {
	return render.PlotSeries(cfg, series...)
}

// PlotScatter renders a scatter plot with an optional fit (Figure 19).
func PlotScatter(cfg PlotConfig, xs, ys []float64, fit *Fit) (*Framebuffer, error) {
	return render.PlotScatter(cfg, xs, ys, fit)
}

// Viewer is the interactive HTTP viewer server. It implements
// http.Handler; SetAnnotations overlays markers on rendered timelines.
type Viewer = ui.Server

// NewViewer returns the interactive HTTP viewer for a trace source —
// a loaded trace (Static) or a live one: timeline navigation, mode
// switching, filters, statistics, task details and the ranked
// /anomalies endpoint. On a live trace the views update as it grows,
// /live reports ingest status and /events pushes every epoch advance;
// cached responses are versioned by the publish epoch.
func NewViewer(src TraceSource, name string) *Viewer { return ui.NewServer(src, name) }

// ---- Anomaly detection ----

// Anomaly is one ranked finding of the anomaly detection engine.
type Anomaly = anomaly.Anomaly

// AnomalyKind classifies a finding.
type AnomalyKind = anomaly.Kind

// Anomaly kinds.
const (
	AnomalyDurationOutlier = anomaly.KindDurationOutlier
	AnomalyNUMARemote      = anomaly.KindNUMARemote
	AnomalyLoadImbalance   = anomaly.KindLoadImbalance
	AnomalyCounterSpike    = anomaly.KindCounterSpike
)

// AnomalyAnnotations converts the top max findings into an annotation
// set that renders as timeline markers and saves as JSON.
func AnomalyAnnotations(found []Anomaly, author string, max int) *AnnotationSet {
	return anomaly.Annotations(found, author, max)
}

// ---- Export and annotations ----

// ExportSeriesCSV writes derived metric series as CSV.
func ExportSeriesCSV(w io.Writer, series ...Series) error {
	return export.SeriesCSV(w, series...)
}

// Annotation marks a point of interest in a trace.
type Annotation = annotations.Annotation

// AnnotationSet is a collection of annotations stored separately from
// the trace (paper Section VI-C).
type AnnotationSet = annotations.Set

// LoadAnnotations reads an annotation file.
func LoadAnnotations(path string) (*AnnotationSet, error) { return annotations.Load(path) }

// ---- Simulation (the trace-producing substrate) ----

// Machine describes a NUMA machine.
type Machine = topology.Machine

// UV2000 models the paper's 192-core, 24-node SGI UV2000.
func UV2000() *Machine { return topology.UV2000() }

// Opteron6282SE models the paper's 64-core, 8-node AMD Opteron system.
func Opteron6282SE() *Machine { return topology.Opteron6282SE() }

// SmallMachine returns a uniform test machine.
func SmallMachine(nodes, cpusPerNode int) *Machine { return topology.Small(nodes, cpusPerNode) }

// HWModel holds hardware cost model parameters.
type HWModel = hw.Model

// DefaultHW returns the calibrated default hardware model.
func DefaultHW() HWModel { return hw.Default() }

// Program is a dependent-task program for the runtime simulator.
type Program = openstream.Program

// ProgramBuilder constructs Programs.
type ProgramBuilder = openstream.Builder

// TaskSpec describes one task of a Program.
type TaskSpec = openstream.TaskSpec

// RegionAccess is a task's access to a memory region.
type RegionAccess = openstream.Access

// RootTask marks tasks created by the control thread.
const RootTask = openstream.Root

// NewProgramBuilder returns an empty program builder.
func NewProgramBuilder() *ProgramBuilder { return openstream.NewBuilder() }

// SimConfig parameterizes a simulated execution.
type SimConfig = openstream.Config

// SimResult summarizes a simulated execution.
type SimResult = openstream.Result

// SchedPolicy selects the runtime scheduling strategy.
type SchedPolicy = openstream.SchedPolicy

// Scheduling policies: SchedRandom is the paper's non-optimized
// configuration, SchedNUMA the optimized one (Section IV).
const (
	SchedRandom = openstream.SchedRandom
	SchedNUMA   = openstream.SchedNUMA
)

// DefaultSimConfig returns a full-tracing configuration for a machine.
func DefaultSimConfig(m *Machine) SimConfig { return openstream.DefaultConfig(m) }

// Simulate executes a program and streams the trace to w (nil skips
// tracing).
func Simulate(p *Program, cfg SimConfig, w io.Writer) (SimResult, error) {
	if w == nil {
		return openstream.Run(p, cfg, nil)
	}
	tw := trace.NewWriter(w)
	res, err := openstream.Run(p, cfg, tw)
	if err != nil {
		return res, err
	}
	return res, tw.Flush()
}

// SimulateToFile executes a program and writes the trace to path
// (gzip-compressed when the path ends in .gz).
func SimulateToFile(p *Program, cfg SimConfig, path string) (SimResult, error) {
	fw, err := trace.Create(path)
	if err != nil {
		return SimResult{}, err
	}
	res, err := openstream.Run(p, cfg, fw.Writer)
	if err != nil {
		fw.Close()
		return res, err
	}
	return res, fw.Close()
}

// SimulateToTrace executes a program and loads the resulting trace
// directly.
func SimulateToTrace(p *Program, cfg SimConfig) (*Trace, SimResult, error) {
	return simulateToTrace(p, cfg)
}

// ---- Workloads ----

// SeidelConfig parameterizes the seidel stencil workload.
type SeidelConfig = apps.SeidelConfig

// KMeansConfig parameterizes the k-means workload.
type KMeansConfig = apps.KMeansConfig

// MonteCarloConfig parameterizes the Monte Carlo workload.
type MonteCarloConfig = apps.MonteCarloConfig

// DefaultSeidelConfig returns the paper-scale seidel configuration.
func DefaultSeidelConfig() SeidelConfig { return apps.DefaultSeidelConfig() }

// ScaledSeidelConfig returns a reduced seidel configuration.
func ScaledSeidelConfig(blocks, iters int) SeidelConfig {
	return apps.ScaledSeidelConfig(blocks, iters)
}

// DefaultKMeansConfig returns the paper-scale k-means configuration.
func DefaultKMeansConfig() KMeansConfig { return apps.DefaultKMeansConfig() }

// ScaledKMeansConfig returns a reduced k-means configuration.
func ScaledKMeansConfig(blocks, blockSize int) KMeansConfig {
	return apps.ScaledKMeansConfig(blocks, blockSize)
}

// DefaultMonteCarloConfig returns the quickstart workload configuration.
func DefaultMonteCarloConfig() MonteCarloConfig { return apps.DefaultMonteCarloConfig() }

// BuildSeidel constructs the seidel program (paper Section III).
func BuildSeidel(cfg SeidelConfig) (*Program, error) { return apps.BuildSeidel(cfg) }

// BuildKMeans constructs the k-means program (Sections III-C, V).
func BuildKMeans(cfg KMeansConfig) (*Program, error) { return apps.BuildKMeans(cfg) }

// BuildMonteCarlo constructs the Monte Carlo program.
func BuildMonteCarlo(cfg MonteCarloConfig) (*Program, error) { return apps.BuildMonteCarlo(cfg) }

// Seidel and k-means task type names, for filters.
const (
	SeidelInitType     = apps.SeidelInitType
	SeidelBlockType    = apps.SeidelBlockType
	KMeansDistanceType = apps.KMeansDistanceType
	KMeansInitType     = apps.KMeansInitType
)

// Command aftermath explores a trace file: it prints a summary and an
// ASCII timeline, and optionally serves the interactive HTTP viewer
// with the full timeline modes, filters and statistics of the paper.
// Input formats are detected from file content, never the name: native
// binary traces, gzip-compressed traces, columnar store snapshots, and
// foreign span streams (stdouttrace / OTLP-JSON, imported through the
// topology-inferring span importer) all work on every path.
// With -follow the trace may still be written while it is served: the
// file is polled for appended records and the viewer's timelines,
// statistics and anomaly rankings update continuously.
//
// With -serve many traces — whole directories of them — are served
// from one process as a multi-trace hub: every trace gets the full
// viewer under /t/<name>/, all behind one shared response cache, and
// -follow upgrades traces in tailable formats to live tailing.
//
// Usage:
//
//	aftermath trace.atm.gz                   # summary + ASCII timeline
//	aftermath spans.jsonl                    # import spans, print inference
//	aftermath -http :8080 trace.atm.gz       # interactive viewer
//	aftermath -dot graph.dot trace.atm.gz    # export the task graph
//	aftermath -anomalies trace.atm.gz        # ranked anomaly report
//	aftermath -follow -http :8080 trace.atm  # tail a growing trace
//	aftermath -serve -http :8080 runs/       # hub over every trace in runs/
//	aftermath -serve -follow -http :8080 done.atm.gz running.atm
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	aftermath "github.com/openstream/aftermath"
	"github.com/openstream/aftermath/internal/ingest"
	"github.com/openstream/aftermath/internal/stats"
	"github.com/openstream/aftermath/internal/symbols"
	"github.com/openstream/aftermath/internal/tmath"
)

func main() {
	var (
		httpAddr = flag.String("http", "", "serve the interactive viewer on this address (e.g. :8080)")
		dotOut   = flag.String("dot", "", "export the reconstructed task graph as DOT to this file")
		dotMax   = flag.Int("dotmax", 500, "maximum tasks in the DOT export")
		width    = flag.Int("width", 100, "ASCII timeline width")
		rows     = flag.Int("rows", 16, "ASCII timeline rows (0 = all CPUs)")
		nmPath   = flag.String("nm", "", "resolve work function names from this nm(1) output file")
		anoms    = flag.Bool("anomalies", false, "scan for cross-layer anomalies and print a ranked report")
		anomTop  = flag.Int("top", 15, "maximum anomalies printed/annotated in -anomalies mode")
		anomMin  = flag.Float64("minscore", 0, "anomaly severity cutoff (0 = default)")
		annOut   = flag.String("annotations", "", "write the top anomalies as an annotation JSON file")
		follow   = flag.Bool("follow", false, "tail a trace that is still being written and serve it live (requires -http; uncompressed traces only)")
		pollIv   = flag.Duration("poll", 500*time.Millisecond, "poll interval for -follow mode")
		serve    = flag.Bool("serve", false, "serve a multi-trace hub over the given trace files and directories (requires -http; with -follow, uncompressed traces are tailed live)")

		spillDir    = flag.String("spill-dir", "", "with -follow: spill frozen live-trace epochs to columnar segment files under this directory, bounding ingest RAM (a subdirectory per trace is created)")
		spillBytes  = flag.Int64("spill-bytes", 64<<20, "with -spill-dir: RAM budget in bytes for the hot unspilled tail before old epochs freeze to disk")
		retainBytes = flag.Int64("retain-bytes", 0, "with -spill-dir: cap on total spilled bytes; the oldest segments beyond it age out of the trace (0 = unlimited)")
		retainAge   = flag.Int64("retain-age", 0, "with -spill-dir: age out spilled segments ending more than this many cycles behind the span end (0 = unlimited)")
	)
	flag.Parse()
	if *serve && flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: aftermath -serve -http :8080 <trace-or-dir>...")
		flag.Usage()
		os.Exit(2)
	}
	if !*serve && flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: aftermath [flags] trace.atm[.gz]")
		flag.Usage()
		os.Exit(2)
	}
	opts := runOptions{
		httpAddr: *httpAddr, dotOut: *dotOut, dotMax: *dotMax,
		width: *width, rows: *rows, nmPath: *nmPath,
		anomalies: *anoms, anomTop: *anomTop, anomMinScore: *anomMin, annOut: *annOut,
		follow: *follow, pollEvery: *pollIv,
		spillDir: *spillDir, spillBytes: *spillBytes,
		retainBytes: *retainBytes, retainAge: *retainAge,
	}
	var err error
	switch {
	case *serve:
		err = runServe(flag.Args(), opts)
	case opts.follow:
		err = runFollow(flag.Arg(0), opts)
	default:
		err = run(flag.Arg(0), opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aftermath:", err)
		os.Exit(1)
	}
}

type runOptions struct {
	httpAddr, dotOut, nmPath string
	dotMax, width, rows      int
	anomalies                bool
	anomTop                  int
	anomMinScore             float64
	annOut                   string
	follow                   bool
	pollEvery                time.Duration

	spillDir                string
	spillBytes, retainBytes int64
	retainAge               int64
}

// retentionFor builds the live-trace retention policy for one trace,
// giving each trace its own segment subdirectory so multiple followed
// traces never interleave segment files. A zero policy (no -spill-dir)
// disables spilling.
func (o runOptions) retentionFor(name string) (aftermath.RetentionPolicy, error) {
	if o.spillDir == "" {
		return aftermath.RetentionPolicy{}, nil
	}
	dir := filepath.Join(o.spillDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return aftermath.RetentionPolicy{}, err
	}
	return aftermath.RetentionPolicy{
		Dir:        dir,
		SpillBytes: o.spillBytes,
		MaxBytes:   o.retainBytes,
		MaxAge:     aftermath.Time(o.retainAge),
	}, nil
}

// expandTraceArgs resolves trace files and directories into the list
// of trace paths to serve. Directories contribute every file whose
// content is a recognized trace format — native, gzip, store snapshot
// or span stream — sorted by name; a README or editor backup sitting
// in a runs directory is skipped, not fatal. Explicitly named files
// are taken as given, so a typo'd path still errors at open time
// instead of vanishing silently.
func expandTraceArgs(args []string) ([]string, error) {
	var paths []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			paths = append(paths, arg)
			continue
		}
		entries, err := os.ReadDir(arg)
		if err != nil {
			return nil, err
		}
		var found []string
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			p := filepath.Join(arg, e.Name())
			if fm, err := ingest.DetectFile(p); err == nil && fm != nil {
				found = append(found, p)
			}
		}
		sort.Strings(found)
		paths = append(paths, found...)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no recognized trace files (native, gzip, store snapshot or span stream) among the given arguments")
	}
	return paths, nil
}

// tailable reports whether the file at path can be upgraded to live
// tailing: ingest.OpenStream, what -follow opens it with, admits it.
func tailable(path string) bool {
	rc, _, err := ingest.OpenStream(path)
	if err != nil {
		return false
	}
	rc.Close()
	return true
}

// cleanHubName replaces the characters Hub.Add rejects ('/', '?', '#')
// so one oddly-named file cannot abort serving the rest, and maps
// unroutable results to "trace".
func cleanHubName(name string) string {
	name = strings.Map(func(r rune) rune {
		switch r {
		case '/', '?', '#':
			return '-'
		}
		return r
	}, name)
	if name == "" || name == "." || name == ".." {
		return "trace"
	}
	return name
}

// hubNames derives the registration names for the given trace paths.
// Identical basenames from different directories — runs/a/trace.atm
// and runs/b/trace.atm — are disambiguated by qualifying EVERY member
// of the colliding group with its parent directory, so the mapping is
// deterministic: a trace mounts under the same /t/<name>/ regardless
// of which other directories happen to be served alongside it, instead
// of whichever file sorts first silently claiming the bare name.
// Numeric suffixes remain only as a last resort (same basename, same
// parent directory name).
func hubNames(paths []string) []string {
	base := make([]string, len(paths))
	seen := make(map[string]int, len(paths))
	for i, p := range paths {
		n := strings.TrimSuffix(filepath.Base(p), ".gz")
		for _, suf := range []string{".atm", ".jsonl", ".json", ".store"} {
			if trimmed := strings.TrimSuffix(n, suf); trimmed != "" {
				n = trimmed
			}
		}
		base[i] = cleanHubName(n)
		seen[base[i]]++
	}
	names := make([]string, len(paths))
	taken := make(map[string]bool, len(paths))
	for i, p := range paths {
		name := base[i]
		if seen[name] > 1 {
			if dir := filepath.Base(filepath.Dir(p)); dir != "." && dir != string(filepath.Separator) {
				name = cleanHubName(dir) + "-" + name
			}
		}
		for b, n := name, 2; taken[name]; n++ {
			name = fmt.Sprintf("%s-%d", b, n)
		}
		taken[name] = true
		names[i] = name
	}
	return names
}

// runServe loads every given trace into one multi-trace hub and
// serves it: each trace's full viewer mounts under /t/<name>/ behind
// one shared response cache. With -follow, traces in tailable formats
// are tailed live — batch and live traces mix freely in one hub.
func runServe(args []string, o runOptions) error {
	if o.httpAddr == "" {
		return fmt.Errorf("-serve requires -http")
	}
	if o.anomalies || o.annOut != "" || o.dotOut != "" || o.nmPath != "" {
		return fmt.Errorf("-serve runs the multi-trace hub only; -anomalies/-annotations/-dot/-nm are one-shot analyses — query /t/<name>/anomalies on the hub, or run them per trace without -serve")
	}
	if o.pollEvery <= 0 {
		o.pollEvery = 500 * time.Millisecond
	}
	paths, err := expandTraceArgs(args)
	if err != nil {
		return err
	}
	hub, err := buildHub(paths, hubNames(paths), o)
	if err != nil {
		return err
	}
	fmt.Printf("serving %d traces on http://%s (index at /, JSON listing at /traces, push events at /events)\n",
		len(hub.Names()), o.httpAddr)
	return newServer(o.httpAddr, hub).ListenAndServe()
}

// Limits every serve mode's HTTP server applies to a connection before
// a handler runs: how long a client may take to send its request
// headers, how large they may be, and how long an idle keep-alive
// connection is held.
const (
	serveHeaderTimeout  = 10 * time.Second
	serveIdleTimeout    = 2 * time.Minute
	serveMaxHeaderBytes = 64 << 10
)

// newServer returns the server the viewer, the live follower and the
// hub all listen with. It sets no ReadTimeout or WriteTimeout: those
// run over the whole exchange, and an /events stream stays open for
// as long as its client does.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: serveHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
		MaxHeaderBytes:    serveMaxHeaderBytes,
	}
}

// buildHub mounts the given traces into a hub, upgrading tailable
// formats to live follows when -follow is set. The decision is based
// on the detected format, not the file name, so a store snapshot or a
// compressed trace sitting in a followed directory loads as a batch
// trace instead of failing the whole hub.
func buildHub(paths, names []string, o runOptions) (*aftermath.Hub, error) {
	hub := aftermath.NewHub()
	for i, path := range paths {
		name := names[i]
		if o.follow && tailable(path) {
			lv, f, err := followTrace(path, name, o)
			if err != nil {
				return nil, err
			}
			// The follower's lifetime is the hub's: Close stops the
			// poll goroutine, releases the file handle and flushes the
			// live trace's background spill compactions.
			hub.AddCloser(f)
			if err := hub.Add(name, lv); err != nil {
				return nil, err
			}
			fmt.Printf("  /t/%s/ <- %s (live, polling every %s)\n", name, path, o.pollEvery)
			continue
		}
		tr, err := aftermath.Open(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		// Warm the shared counter min/max trees before accepting
		// traffic, so the first overlay request is already fast.
		tr.BuildCounterIndex(0)
		if err := hub.Add(name, aftermath.Static(tr)); err != nil {
			return nil, err
		}
		fmt.Printf("  /t/%s/ <- %s (%d tasks, %d CPUs)\n", name, path, len(tr.Tasks), tr.NumCPUs())
	}
	return hub, nil
}

// followTrace opens a trace file for live tailing and starts its poll
// loop: the returned LiveTrace publishes a new epoch whenever appended
// records arrive, with retention configured before the first feed so
// the initial catch-up already spills. The Follower detects truncation
// and rotation, surfacing sticky ingest errors through /live, and its
// Close stops the poll goroutine and releases the file handle.
func followTrace(path, name string, o runOptions) (*aftermath.LiveTrace, *aftermath.Follower, error) {
	lv := aftermath.NewLiveTrace()
	pol, err := o.retentionFor(name)
	if err != nil {
		return nil, nil, err
	}
	if pol.Dir != "" {
		lv.SetRetention(pol)
	}
	f, err := aftermath.FollowTrace(lv, path, o.pollEvery)
	if err != nil {
		return nil, nil, err
	}
	return lv, f, nil
}

// runFollow tails a growing trace file and serves it live: every poll
// appends newly written records, publishes a snapshot and bumps the
// epoch, so the viewer's timelines, statistics and anomaly rankings
// track the run while it executes.
func runFollow(path string, o runOptions) error {
	if o.httpAddr == "" {
		return fmt.Errorf("-follow requires -http (the live trace is served, not summarized once)")
	}
	if o.anomalies || o.annOut != "" || o.dotOut != "" || o.nmPath != "" {
		return fmt.Errorf("-follow serves the live viewer only; -anomalies/-annotations/-dot/-nm are one-shot analyses — query /anomalies on the live server, or run them after the trace is complete")
	}
	if o.pollEvery <= 0 {
		o.pollEvery = 500 * time.Millisecond
	}
	lv, f, err := followTrace(path, hubNames([]string{path})[0], o)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, epoch := lv.Snapshot()
	fmt.Printf("following %s: epoch %d, %d tasks, %d CPUs, span %d cycles so far\n",
		path, epoch, len(tr.Tasks), tr.NumCPUs(), tr.Span.Duration())
	viewer := aftermath.NewViewer(lv, path)
	fmt.Printf("serving live viewer on http://%s (polling every %s; /live reports ingest status, /events pushes epoch advances)\n",
		o.httpAddr, o.pollEvery)
	return newServer(o.httpAddr, viewer).ListenAndServe()
}

// openTrace loads the trace at path; a span stream additionally
// yields the importer's inference report (nil for native formats).
func openTrace(path string) (*aftermath.Trace, *aftermath.ImportReport, error) {
	if fm, err := ingest.DetectFile(path); err == nil && fm != nil && fm.Name == "spans" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		return aftermath.ImportSpans(f)
	}
	tr, err := aftermath.Open(path)
	return tr, nil, err
}

// printImportReport summarizes what the span importer inferred: the
// synthetic topology and the per-operation statistics and call styles.
func printImportReport(rep *aftermath.ImportReport) {
	fmt.Printf("imported: %d spans in %d traces across %d services (%d duplicates dropped)\n",
		rep.Spans, rep.Traces, len(rep.Services), rep.Dropped)
	for _, svc := range rep.Services {
		fmt.Printf("  %s: node %d, %d workers\n", svc.Name, svc.Node, svc.Workers)
		for _, op := range svc.Ops {
			style := string(op.Style)
			if style == "" {
				style = "leaf"
			}
			fmt.Printf("    %-28s %6d calls  mean %8.1fµs  stddev %8.1fµs  errors %d  %s",
				op.Name, op.Count, op.MeanNs/1e3, op.StdDevNs/1e3, op.Errors, style)
			if len(op.Calls) > 0 {
				fmt.Printf(" -> %s", strings.Join(op.Calls, ", "))
			}
			fmt.Println()
		}
	}
}

func run(path string, o runOptions) error {
	httpAddr, dotOut, dotMax, width, rows, nmPath :=
		o.httpAddr, o.dotOut, o.dotMax, o.width, o.rows, o.nmPath
	tr, rep, err := openTrace(path)
	if err != nil {
		return err
	}
	if nmPath != "" {
		f, err := os.Open(nmPath)
		if err != nil {
			return err
		}
		table, err := symbols.ParseNM(f)
		f.Close()
		if err != nil {
			return err
		}
		n := symbols.Resolve(tr, table)
		fmt.Printf("resolved %d task type names from %s\n", n, nmPath)
	}

	fmt.Printf("trace:    %s\n", path)
	if rep != nil {
		printImportReport(rep)
	}
	fmt.Printf("machine:  %s (%d CPUs, %d NUMA nodes)\n", tr.Topology.Name, tr.NumCPUs(), tr.NumNodes())
	// The width unsigned: a span may be wider than 2^63-1 cycles.
	span := float64(uint64(tr.Span.End - tr.Span.Start))
	fmt.Printf("span:     %.3f Gcycles\n", span/1e9)
	fmt.Printf("tasks:    %d in %d types\n", len(tr.Tasks), len(tr.Types))
	// One counting pass over the tasks, not one per type: kernels
	// traced at fine granularity easily reach thousands of types and
	// millions of tasks, where the nested loop took minutes.
	perType := make(map[uint32]int, len(tr.Types))
	for i := range tr.Tasks {
		perType[uint32(tr.Tasks[i].Type)]++
	}
	for _, tt := range tr.Types {
		fmt.Printf("          %-24s %8d tasks (work fn 0x%x)\n", tr.TypeName(tt.ID), perType[uint32(tt.ID)], tt.Addr)
	}
	states := stats.StateTimes(tr, tr.Span.Start, tr.Span.End)
	var par float64
	if tr.Span.End > tr.Span.Start {
		par = float64(states[aftermath.StateTaskExec]) / span
	}
	fmt.Printf("parallelism: %.1f average\n", par)
	loc := stats.LocalityFraction(tr, stats.ReadsAndWrites, tr.Span.Start, tmath.SatAdd(tr.Span.End, 1))
	fmt.Printf("NUMA locality: %.1f%% of accessed bytes are node-local\n", 100*loc)
	var total int64
	for _, v := range states {
		total += v
	}
	if total > 0 {
		fmt.Printf("states:   ")
		for s, v := range states {
			if v > 0 {
				fmt.Printf("%s %.1f%%  ", aftermath.WorkerState(s), 100*float64(v)/float64(total))
			}
		}
		fmt.Println()
	}

	fmt.Println("\ntimeline (state mode; # exec, . idle, c create, r resolve, b broadcast):")
	fmt.Print(aftermath.ASCIITimeline(tr, width, rows))

	if dotOut != "" {
		g := aftermath.ReconstructGraph(tr)
		f, err := os.Create(dotOut)
		if err != nil {
			return err
		}
		if err := g.WriteDOT(f, aftermath.DOTOptions{MaxTasks: dotMax, Label: path}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\ntask graph written to %s (%d edges)\n", dotOut, g.NumEdges())
	}

	var anns *aftermath.AnnotationSet
	if o.anomalies {
		found, _, err := aftermath.QueryAnomalies(aftermath.Static(tr), aftermath.NewQuery().MinScore(o.anomMinScore))
		if err != nil {
			return err
		}
		fmt.Printf("\nanomalies: %d findings", len(found))
		top := o.anomTop
		if top <= 0 || top > len(found) {
			top = len(found)
		}
		if len(found) > top {
			fmt.Printf(" (top %d shown)", top)
		}
		fmt.Println()
		for _, a := range found[:top] {
			fmt.Println("  " + a.String())
		}
		anns = aftermath.AnomalyAnnotations(found, "anomaly-scan", top)
		if o.annOut != "" {
			anns.TracePath = path
			if err := anns.Save(o.annOut); err != nil {
				return err
			}
			fmt.Printf("annotations written to %s (%d entries)\n", o.annOut, len(anns.Annotations))
		}
	}

	if httpAddr != "" {
		// Warm the shared counter min/max trees before accepting
		// traffic, so the first overlay request is already fast.
		tr.BuildCounterIndex(0)
		viewer := aftermath.NewViewer(aftermath.Static(tr), path)
		if anns != nil {
			// Top findings render as timeline markers in the viewer.
			viewer.SetAnnotations(anns)
		}
		fmt.Printf("\nserving interactive viewer on http://%s\n", httpAddr)
		return newServer(httpAddr, viewer).ListenAndServe()
	}
	return nil
}

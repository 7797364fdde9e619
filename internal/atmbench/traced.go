package atmbench

import (
	"fmt"
	"os"
	"path/filepath"
)

// LayerMetric declares one per-layer metric: where the traced run
// takes it from and what it should move. Every traced run measures
// every workload — the selected one for the full duration, the others
// for one session — so each metric below is read off the same
// workload, in the same way, whichever workload was selected.
type LayerMetric struct {
	Name, Unit, Better string
	// From is the workload whose spans or tallies feed the metric;
	// empty for metrics of the selected workload itself.
	From string
}

// LayerMetrics lists the per-layer metrics in BENCHMARK.json order.
var LayerMetrics = []LayerMetric{
	{"ingest.detect_us", "us", "lower", ColdNative},
	{"trace.decode_ms", "ms", "lower", ColdNative},
	{"trace.decode_mb_per_s", "MB/s", "higher", ColdNative},
	{"trace.records", "count", "lower", ColdNative},
	{"trace.stream_poll_ms", "ms", "lower", LiveFollow},
	{"otlp.decode_ms", "ms", "lower", ColdSpans},
	{"otlp.spans", "count", "lower", ColdSpans},
	{"core.load_ms", "ms", "lower", ColdNative},
	{"core.apply_index_ms", "ms", "lower", ColdNative},
	{"core.dom_build_ms", "ms", "lower", ColdStore},
	{"core.counter_index_ms", "ms", "lower", ColdNative},
	{"core.from_decoder_ms", "ms", "lower", ColdSpans},
	{"core.open_store_ms", "ms", "lower", ColdStore},
	{"core.save_store_ms", "ms", "lower", ColdStore},
	{"core.append_ms", "ms", "lower", LiveFollow},
	{"core.publish_p50_ms", "ms", "lower", LiveFollow},
	{"core.publish_growth", "ratio", "lower", LiveFollow},
	{"core.notify_us", "us", "lower", LiveFollow},
	{"core.spill_segments", "count", "higher", LiveSpill},
	{"core.spilled_mb", "MB", "higher", LiveSpill},
	{"core.spill_pending_max", "count", "lower", LiveSpill},
	{"core.spill_dropped", "count", "lower", LiveSpill},
	{"store.open_us", "us", "lower", ColdStore},
	{"store.file_mb", "MB", "lower", ColdStore},
	{"store.bytes_per_trace_byte", "ratio", "lower", ColdStore},
	{"mragg.dominant_ns", "ns", "lower", PanZoom},
	{"mragg.lookups", "count", "lower", PanZoom},
	{"mragg.indexed_ratio", "ratio", "higher", PanZoom},
	{"mmtree.minmax_ns", "ns", "lower", PanZoom},
	{"mmtree.queries", "count", "lower", PanZoom},
	{"mmtree.overhead_ratio", "ratio", "lower", PanZoom},
	{"query.parse_us", "us", "lower", HotRevisit},
	{"query.canonical_us", "us", "lower", HotRevisit},
	{"query.timeline_ms", "ms", "lower", PanZoom},
	{"metrics.series_ms", "ms", "lower", LiveFollow},
	{"stats.stats_ms", "ms", "lower", PanZoom},
	{"stats.matrix_ms", "ms", "lower", PanZoom},
	{"anomaly.scan_ms", "ms", "lower", PanZoom},
	{"anomaly.findings", "count", "higher", PanZoom},
	{"render.timeline_state_ms", "ms", "lower", PanZoom},
	{"render.timeline_heatmap_ms", "ms", "lower", PanZoom},
	{"render.timeline_typemap_ms", "ms", "lower", PanZoom},
	{"render.timeline_numa_ms", "ms", "lower", PanZoom},
	{"render.overlay_ms", "ms", "lower", PanZoom},
	{"render.encode_png_ms", "ms", "lower", PanZoom},
	{"render.png_kb", "kB", "lower", PanZoom},
	{"render.plot_ms", "ms", "lower", LiveFollow},
	{"ui.miss_self_ms", "ms", "lower", PanZoom},
	{"ui.hit_us", "us", "lower", HotRevisit},
	{"ui.sse_frame_us", "us", "lower", LiveFollow},
	{"ui.coarse_paint_ms", "ms", "lower", LiveFollow},
	{"ui.hit_ratio", "ratio", "higher", ""},
	{"ui.cache_entries", "count", "lower", ""},
	{"ui.cache_mb", "MB", "lower", ""},
	{"bench.trace_overhead_ratio", "ratio", "lower", ""},
	{"bench.path_cover_ratio", "ratio", "higher", ""},
	{"bench.ref_slowdown", "ratio", "lower", ""},
	{"bench.setup_gen_s", "s", "lower", ""},
	{"bench.setup_write_s", "s", "lower", ""},
}

// tracedWork is what one workload of a traced run leaves behind.
type tracedWork struct {
	s              samples
	durs           map[string][]float64
	loopS          float64
	cacheN, cacheB int
	overhead       float64
	// slowdown is the speed reference over the workload's loop: the
	// traced timings are raw, and this is what to divide them by to
	// compare them with the end-to-end ones.
	slowdown float64
}

// RunTraced replays every workload's operations decomposed — each call
// into a layer's public functions under a span — and reports the
// per-layer metrics. cfg.Workload (or "all") runs for cfg.Seconds; the
// others run one session each, which is what keeps every per-layer
// metric measured, on the same inputs, whichever workload is selected.
func RunTraced(cfg Config) (*Result, error) {
	if _, ok := workloadInfo(cfg.Workload); !ok && cfg.Workload != "all" {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	e, err := newEnv()
	if err != nil {
		return nil, err
	}
	defer e.close()
	in, err := buildInputs(filepath.Join(cfg.Dir, "traced"), cfg.Seed, cfg.Sizes, needNative|needSpans|needStore)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(in.dir)

	rec := NewRecorder()
	res := newResult(cfg, true)
	res.LayerSelfMs = make(map[string]map[string]float64)
	works := make(map[string]*tracedWork)
	for _, w := range Workloads {
		seconds := 0.0
		if cfg.Workload == w.Name || cfg.Workload == "all" {
			seconds = cfg.Seconds
		}
		tw, err := runTracedWork(cfg, w, e, in, rec, seconds, res)
		if err != nil {
			return nil, err
		}
		works[w.Name] = tw
	}
	res.Spans = rec.Spans()
	durs, self := Durations(res.Spans), LayerSelfMs(res.Spans)
	for _, w := range Workloads {
		tw := works[w.Name]
		tw.durs = durs[w.Name]
		res.layerSelf(w.Name, tw, self[w.Name])
	}

	sel := works[cfg.Workload]
	if sel == nil {
		// "all": the selected-workload metrics describe the session the
		// paper is about, the analyst's.
		sel = works[PanZoom]
	}
	for _, m := range LayerMetrics {
		from := sel
		if m.From != "" {
			from = works[m.From]
		}
		res.Metrics[m.Name] = Metric{layerValue(m.Name, from, in), m.Unit}
	}
	return res, nil
}

// runTracedWork sets one workload up on the shared inputs and runs its
// decomposed sessions for the given time (at least one).
func runTracedWork(cfg Config, w WorkloadInfo, e *env, in *inputs, rec *Recorder, seconds float64, res *Result) (*tracedWork, error) {
	d, err := newDriver(w.Name, rig{sz: cfg.Sizes, env: e, rec: rec, rng: seededRand(cfg.Seed, w.Name), in: in})
	if err != nil {
		return nil, err
	}
	defer d.teardown()
	if err := d.setup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	start := stamp()
	loop, runErr := measure(d, seconds, w.Sessions)
	slowdown := e.ref.slowdown(start, stamp())
	if runErr == nil {
		runErr = d.finish()
	}
	tw := &tracedWork{s: d.rig().s, slowdown: slowdown}
	if h := d.hub(); h != nil {
		tw.cacheN, tw.cacheB = h.CacheStats()
	}
	// In one process the untraced cost of the same operations is what
	// their real part took; the rest of the loop is replay, probes and
	// span bookkeeping.
	tw.overhead = over(ms(loop), tw.s.count["real_ms"])
	res.fill(&tw.s, runErr)
	for name, v := range tw.s.extra {
		res.Timings[w.Name+"/"+name] = Summarize(v, 0)
	}
	res.Timings[w.Name+"/op_ms"] = Summarize(tw.s.op.ms, 0)
	res.Extras[w.Name+"/trace_overhead_ratio"] = Metric{tw.overhead, "ratio"}
	res.Extras[w.Name+"/path_cover_ratio"] = Metric{over(tw.s.count["path_ms"], tw.s.count["real_ms"]), "ratio"}
	return tw, nil
}

// layerSelf fills the workload's per-layer self-time row: the replayed
// spans by layer, and for ui what the real operation took beyond them.
func (res *Result) layerSelf(work string, tw *tracedWork, selfMs map[string]float64) {
	ops := float64(tw.s.ops.Attempted())
	if ops == 0 {
		return
	}
	row := make(map[string]float64)
	for layer, v := range selfMs {
		row[layer] = v / ops
	}
	row["ui"] = (tw.s.count["real_ms"] - tw.s.count["path_ms"]) / ops
	res.LayerSelfMs[work] = row
	for name, v := range tw.durs {
		if LayerOf(name) != "op" {
			res.Timings[work+"/"+name+"_ms"] = Summarize(v, 0)
		}
	}
}

// p50 returns the median of a workload's span durations, in ms.
func (tw *tracedWork) p50(span string) float64 { return medianOf(tw.durs[span]) }

// total returns the summed duration of a workload's spans, in ms.
func (tw *tracedWork) total(span string) float64 {
	t := 0.0
	for _, v := range tw.durs[span] {
		t += v
	}
	return t
}

// extraP50 returns the median of a named per-operation sample.
func (tw *tracedWork) extraP50(name string) float64 { return medianOf(tw.s.extra[name]) }

// per divides a tally by how often a span ran.
func (tw *tracedWork) per(tally, span string) float64 {
	return over(tw.s.count[tally], float64(len(tw.durs[span])))
}

// over divides, reading 0 — "never ran" — off an empty denominator.
func over(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValue computes one per-layer metric from the workload it is
// read off.
func layerValue(name string, tw *tracedWork, in *inputs) float64 {
	c := tw.s.count
	switch name {
	case "ingest.detect_us":
		return tw.p50("ingest.detect") * 1e3
	case "trace.decode_ms":
		return tw.p50("trace.decode")
	case "trace.decode_mb_per_s":
		return over(float64(in.nativeBytes)/1e6, tw.p50("trace.decode")/1e3)
	case "trace.records":
		return tw.per("trace.records", "trace.decode")
	case "trace.stream_poll_ms":
		return tw.p50("trace.stream_poll")
	case "otlp.decode_ms":
		return tw.p50("otlp.decode")
	case "otlp.spans":
		return tw.per("otlp.spans", "otlp.decode")
	case "core.load_ms":
		return tw.p50("core.load")
	case "core.apply_index_ms":
		return tw.p50("core.load") - tw.p50("trace.decode")
	case "core.dom_build_ms":
		return tw.p50("core.dom_build")
	case "core.counter_index_ms":
		return tw.p50("core.counter_index")
	case "core.from_decoder_ms":
		return tw.p50("core.from_decoder") - tw.p50("otlp.decode")
	case "core.open_store_ms":
		return tw.p50("core.open_store")
	case "core.save_store_ms":
		return in.saveStoreS * 1e3
	case "core.append_ms":
		return tw.p50("core.append")
	case "core.publish_p50_ms":
		return tw.p50("core.publish")
	case "core.publish_growth":
		return tw.extraP50("core.publish_growth")
	case "core.notify_us":
		return tw.p50("core.notify") * 1e3
	case "core.spill_segments", "core.spilled_mb", "core.spill_pending_max", "core.spill_dropped":
		return c[name]
	case "store.open_us":
		return tw.p50("store.open") * 1e3
	case "store.file_mb":
		return float64(in.storeBytes) / 1e6
	case "store.bytes_per_trace_byte":
		return over(float64(in.storeBytes), float64(in.nativeBytes))
	case "mragg.dominant_ns":
		return over(tw.total("mragg.dominant")*1e6, c["mragg.lookups"])
	case "mragg.lookups":
		return tw.per("mragg.lookups", "mragg.dominant")
	case "mragg.indexed_ratio":
		return over(c["mragg.indexed"], c["mragg.lookups"])
	case "mmtree.minmax_ns":
		return over(tw.total("mmtree.minmax")*1e6, c["mmtree.queries"])
	case "mmtree.queries":
		return tw.per("mmtree.queries", "mmtree.minmax")
	case "mmtree.overhead_ratio":
		return over(c["mmtree.overhead_bytes"], c["mmtree.data_bytes"])
	case "query.parse_us":
		return tw.p50("query.parse") * 1e3
	case "query.canonical_us":
		return tw.p50("query.canonical") * 1e3
	case "query.timeline_ms":
		return tw.p50("query.timeline")
	case "metrics.series_ms":
		return tw.p50("metrics.series")
	case "stats.stats_ms":
		return tw.p50("stats.stats")
	case "stats.matrix_ms":
		return tw.p50("stats.matrix")
	case "anomaly.scan_ms":
		return tw.p50("anomaly.scan")
	case "anomaly.findings":
		return over(c["anomaly.findings"], c["anomaly.scans"])
	case "render.timeline_state_ms", "render.timeline_heatmap_ms", "render.timeline_typemap_ms",
		"render.timeline_numa_ms", "render.overlay_ms", "render.encode_png_ms", "render.plot_ms":
		return tw.p50(name[:len(name)-len("_ms")])
	case "render.png_kb":
		return over(c["png_bytes"]/1e3, float64(len(tw.s.tile.ms)))
	case "ui.miss_self_ms", "ui.hit_us", "ui.sse_frame_us", "ui.coarse_paint_ms":
		return tw.extraP50(name)
	case "ui.hit_ratio":
		return over(float64(tw.s.hits), float64(tw.s.requests))
	case "ui.cache_entries":
		return float64(tw.cacheN)
	case "ui.cache_mb":
		return float64(tw.cacheB) / 1e6
	case "bench.trace_overhead_ratio":
		return tw.overhead
	case "bench.path_cover_ratio":
		return over(c["path_ms"], c["real_ms"])
	case "bench.ref_slowdown":
		return tw.slowdown
	case "bench.setup_gen_s":
		return in.genS
	case "bench.setup_write_s":
		return in.writeS
	}
	panic("atmbench: per-layer metric " + name + " has no definition")
}

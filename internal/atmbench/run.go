package atmbench

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// Config selects what one run measures.
type Config struct {
	// Workload names the measured workload. A traced run also accepts
	// "all": every workload then gets the full duration.
	Workload string
	Seed     int64
	// Seconds is how long the measured phase keeps starting sessions.
	// A session in progress at the deadline is finished, so a run is a
	// whole number of fixed-work sessions.
	Seconds float64
	// Dir is the scratch directory inputs are generated into; Run
	// creates and removes subdirectories of it.
	Dir   string
	Sizes Sizes
}

// EndToEndMetric declares one end-to-end metric and the share of the
// parent's median by which it may worsen before a change is a
// regression.
type EndToEndMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// EndToEnd lists the end-to-end metrics in BENCHMARK.json order. Every
// workload reports every one of them: op is the workload's primary
// operation (WorkloadInfo.Op), tile one /render GET, both timed from
// request sent to last body byte read; req_per_s is the median over
// sessions of requests per second of operation wall time. Every time
// is at reference speed (ref.go): the shared sandbox runs the same
// binary up to 1.5x slower for minutes at a stretch, and read against
// the speed reference the timings repeat to 2-10 % across such phases
// where the raw ones spread by 10-25 %.
//
// The timing bounds are as wide as the acceptance driver allows, which
// leaves the run-to-run spread at under half of them. Allocation counts
// and retained heap repeat to well under 1 %.
var EndToEnd = []EndToEndMetric{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"tile_p50_ms", "ms", "lower", 0.25},
	{"tile_tail_ms", "ms", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"retained_heap_mb", "MB", "lower", 0.05},
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Machine records where a result was measured.
type Machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// ThisMachine describes the running process.
func ThisMachine() Machine {
	m := Machine{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// Result is the outcome of one run: the declared metrics of its mode,
// further named numbers that only some workloads have, every timing's
// sample summary, and what the checkers found.
type Result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Metrics holds exactly the end-to-end metrics (untraced) or the
	// per-layer metrics (traced) that BENCHMARK.json declares.
	Metrics map[string]Metric `json:"metrics"`
	// Extras are named numbers outside the declared set: cells only
	// some workloads exercise (ingest_mb_per_s), and per-workload
	// detail of a traced run.
	Extras map[string]Metric `json:"extras,omitempty"`
	// Timings summarizes every timing with its sample count.
	Timings map[string]Summary `json:"timings,omitempty"`
	// LayerSelfMs is, per workload of a traced run, each layer's self
	// time on the replayed blocking path in milliseconds per
	// operation; "ui" is the real GETs minus their replayed stages.
	LayerSelfMs map[string]map[string]float64 `json:"layer_self_ms,omitempty"`
	Issues      []string                      `json:"issues,omitempty"`
	Warnings    []string                      `json:"warnings,omitempty"`
	// Spans are the traced run's raw spans.
	Spans []Span `json:"-"`
}

// newDriver builds the named workload's driver on a rig.
func newDriver(name string, r rig) (driver, error) {
	r.name = name
	switch name {
	case ColdNative:
		return &coldOpen{r: r, format: "native"}, nil
	case ColdSpans:
		return &coldOpen{r: r, format: "spans"}, nil
	case ColdStore:
		return &coldOpen{r: r, format: "store"}, nil
	case PanZoom:
		return &panZoom{r: r}, nil
	case HotRevisit:
		return &hotRevisit{r: r}, nil
	case LiveFollow:
		return &liveFeed{r: r}, nil
	case LiveSpill:
		return &liveFeed{r: r, spill: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// seededRand derives a workload's stream from the run seed, so every
// workload draws the same sequence whether it runs alone or after
// others.
func seededRand(seed int64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
}

// measure starts sessions until the deadline, and at least atLeast of
// them, and returns the loop's wall time.
func measure(d driver, seconds float64, atLeast int) (time.Duration, error) {
	// A probe either side of the loop, so that even the shortest run
	// has its speed reference.
	ref := d.rig().env.ref
	ref.probe()
	defer ref.probe()
	start := time.Now()
	d.rig().s.markAt = stamp()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for n := 1; ; n++ {
		if err := d.session(); err != nil {
			return time.Since(start), err
		}
		d.rig().s.sessionDone()
		if n >= atLeast && !time.Now().Before(deadline) {
			return time.Since(start), nil
		}
	}
}

// Run measures one workload untraced and reports the end-to-end
// metrics.
func Run(cfg Config) (*Result, error) {
	info, ok := workloadInfo(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	e, err := newEnv()
	if err != nil {
		return nil, err
	}
	defer e.close()

	// Set up several times: setup_s is the median, and only the last
	// set-up's state is measured.
	var d driver
	var in *inputs
	release := func() {
		if d != nil {
			d.teardown()
		}
		if in != nil {
			os.RemoveAll(in.dir)
		}
		d, in = nil, nil
	}
	defer release()
	// Each set-up is read against the probes taken just before, during
	// (its warm-up operations tick) and just after it.
	ref := e.ref
	probes := func() {
		for i := 0; i < refLeast; i++ {
			ref.probe()
		}
	}
	var setups, rawSetups []float64
	for i := 0; i < cfg.Sizes.Setups; i++ {
		release()
		probes()
		t0 := stamp()
		d, err = newDriver(cfg.Workload, rig{sz: cfg.Sizes, env: e, rng: seededRand(cfg.Seed, cfg.Workload)})
		if err != nil {
			return nil, err
		}
		in, err = buildInputs(filepath.Join(cfg.Dir, fmt.Sprintf("setup-%d", i)), cfg.Seed, cfg.Sizes, d.needs())
		if err != nil {
			return nil, err
		}
		d.rig().in = in
		if err := d.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
		}
		t1 := stamp()
		probes()
		raw := (t1 - t0).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw/ref.slowdown(t0, t1))
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	probed := ref.allocated()
	loopStart := stamp()
	_, runErr := measure(d, cfg.Seconds, 1)
	loopEnd := stamp()
	runtime.ReadMemStats(&m1)
	probed = ref.allocated() - probed
	// Retained heap: what stays reachable with the trace and hub of
	// the last operation still referenced, and nothing of the speed
	// reference.
	ref.release()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(d)
	if runErr == nil {
		runErr = d.finish()
	}

	s := &d.rig().s
	res := newResult(cfg, false)
	res.fill(s, runErr)
	op := Summarize(ref.normalized(s.op), info.TailPct)
	tile := Summarize(ref.normalized(s.tile), info.TailPct)
	rates := make([]float64, len(s.rates))
	for i, r := range s.rates {
		rates[i] = r.perS * ref.slowdown(r.from, r.to)
	}
	rate := Summarize(rates, 50)
	res.Timings["op_ms"], res.Timings["tile_ms"], res.Timings["session_req_per_s"] = op, tile, rate
	// The same timings as the clock read them, and the reference they
	// were divided by.
	res.Timings["raw_op_ms"] = Summarize(s.op.ms, info.TailPct)
	res.Timings["raw_tile_ms"] = Summarize(s.tile.ms, info.TailPct)
	res.Timings["ref_kernel_ms"] = Summarize(ref.ms, info.TailPct)
	res.Extras["ref_slowdown"] = Metric{ref.slowdown(loopStart, loopEnd), "ratio"}
	res.Timings["raw_setup_s"] = Summarize(rawSetups, 50)
	res.warnTail("op_ms", op)
	res.warnTail("tile_ms", tile)
	setup := Summarize(setups, 50)
	res.Timings["setup_s"] = setup
	ops := float64(s.ops.Attempted())
	res.Metrics = map[string]Metric{
		"setup_s":          {setup.P50, "s"},
		"op_p50_ms":        {op.P50, "ms"},
		"op_tail_ms":       {op.Tail, "ms"},
		"tile_p50_ms":      {tile.P50, "ms"},
		"tile_tail_ms":     {tile.Tail, "ms"},
		"req_per_s":        {rate.P50, "1/s"},
		"allocs_per_op":    {(float64(m1.Mallocs-m0.Mallocs) - probed) / ops, "count"},
		"retained_heap_mb": {float64(m2.HeapAlloc) / 1e6, "MB"},
	}
	res.ingestExtras(cfg.Workload, s, in)
	for name, v := range s.extra {
		res.Timings[name] = Summarize(v, info.TailPct)
	}
	return res, nil
}

func newResult(cfg Config, traced bool) *Result {
	return &Result{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: traced,
		Metrics: make(map[string]Metric), Extras: make(map[string]Metric),
		Timings: make(map[string]Summary),
	}
}

// fill records what the checkers found. A run that stopped on an error
// leaves its operation open, which opCount counts as failed.
func (res *Result) fill(s *samples, runErr error) {
	res.Attempted += s.ops.Attempted()
	res.Failed += s.ops.Failed()
	res.Issues = append(res.Issues, s.issues...)
	if runErr != nil {
		res.Issues = append(res.Issues, runErr.Error())
		if s.ops.Failed() == 0 {
			res.Failed++
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
}

// warnTail notes a tail read with fewer than ten samples beyond it.
func (res *Result) warnTail(name string, s Summary) {
	if s.Beyond < tailBeyond {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"%s: p%.0f of %d samples has only %d beyond it; p%.0f is the highest percentile with ten",
			name, s.TailPct, s.N, s.Beyond, TailPercentile(s.N)))
	}
}

// ingestExtras reports sustained ingest for the workloads that ingest:
// input bytes over the median open for the cold opens, bytes fed over
// the time spent inside Feed for the live ones.
func (res *Result) ingestExtras(workload string, s *samples, in *inputs) {
	switch workload {
	case ColdNative:
		if open := medianOf(s.extra["open_ms"]); open > 0 {
			res.Extras["ingest_mb_per_s"] = Metric{float64(in.nativeBytes) / 1e6 / (open / 1e3), "MB/s"}
		}
	case LiveFollow, LiveSpill:
		if s.count["feed_s"] > 0 {
			res.Extras["ingest_mb_per_s"] = Metric{s.count["fed_bytes"] / 1e6 / s.count["feed_s"], "MB/s"}
		}
	}
}

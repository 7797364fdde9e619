package atmbench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/openstream/aftermath/internal/ui"
)

// Workload names, in the order every listing uses.
const (
	ColdNative = "cold_open_native"
	ColdSpans  = "cold_open_spans"
	ColdStore  = "cold_open_store"
	PanZoom    = "pan_zoom"
	HotRevisit = "hot_revisit"
	LiveFollow = "live_follow"
	LiveSpill  = "live_spill"
)

// WorkloadInfo declares one workload: why it exists and at which
// percentile its tails are read. The percentile is fixed per workload,
// so the metric means the same on every run: the highest of the ladder
// that keeps ten samples beyond it at the counts a 12 s run reaches on
// the reference sandbox and that repeats from run to run (p99 of a
// 50 µs cache hit is the garbage collector's schedule, not the
// server's). A run that collects too few samples for it says so in its
// warnings.
type WorkloadInfo struct {
	Name    string
	Why     string
	TailPct float64
	// Op names the primary operation whose latency is op_p50_ms.
	Op string
	// Sessions is how many sessions a traced run gives the workload
	// when another one is selected: enough for a median of the layer
	// timings that are read off it.
	Sessions int
}

// Workloads lists the workloads in run order.
var Workloads = []WorkloadInfo{
	{ColdNative, "open a native trace file and paint its first tile: trace decode and core's sharded batch load dominate", 75, "open → first tile", 3},
	{ColdSpans, "open a stdouttrace span file and paint its first tile: the otlp importer feeding core.Live, a different path through core", 75, "open → first tile", 3},
	{ColdStore, "open a store snapshot and paint its first tile: mmap adopt makes ingest free, so the tile is the cost", 90, "open → first tile", 5},
	{PanZoom, "an analyst's pan/zoom session where every tile is a cache miss: query, index lookups, rasterize and PNG encode, no bytes decoded", 95, "one interaction step, every panel refreshed", 1},
	{HotRevisit, "Zipf-ordered revisits of warmed tiles, every response a cache hit: ui and query parsing do all the work, render none", 95, "one cached tile request", 1},
	{LiveFollow, "a producer feeding a live trace while a viewer repaints on each pushed epoch: stream decode, append/publish, SSE, growing-trace renders", 90, "chunk fed → pushed frame → exact tile", 1},
	{LiveSpill, "the same feed with spilling on and reads into the spilled half: disk writes beside stitched reads, the memory bound", 90, "chunk fed → pushed frame → exact tile", 1},
}

// workloadInfo looks a workload up by name.
func workloadInfo(name string) (WorkloadInfo, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadInfo{}, false
}

// samples is what a workload's measured phase accumulates.
type samples struct {
	ops opCount
	// op and tile are the primary-operation and /render latencies.
	op, tile timed
	// wall sums the operations' wall time: checks and tear-down
	// between operations are outside it.
	wall time.Duration
	// requests counts the GETs issued inside operations; hits those
	// answered X-Cache: HIT.
	requests, hits int
	// rates holds each finished session's requests per second of
	// operation wall time; markAt, markWall and markReqs are where the
	// current session began.
	rates    []sessionRate
	markAt   time.Duration
	markWall time.Duration
	markReqs int
	// extra holds named per-operation timings beyond the two above;
	// count named totals (lookups made, bytes fed).
	extra map[string][]float64
	count map[string]float64
	// issues keeps the first few check violations for the report.
	issues []string
}

func (s *samples) add(name string, v float64) {
	if s.extra == nil {
		s.extra = make(map[string][]float64)
	}
	s.extra[name] = append(s.extra[name], v)
}

func (s *samples) counts() map[string]float64 {
	if s.count == nil {
		s.count = make(map[string]float64)
	}
	return s.count
}

// tally adds v to the total kept under name.
func (s *samples) tally(name string, v float64) { s.counts()[name] += v }

// peak keeps the largest value seen under name.
func (s *samples) peak(name string, v float64) {
	if c := s.counts(); v > c[name] {
		c[name] = v
	}
}

// sessionRate is one session's throughput and when the session ran.
type sessionRate struct {
	from, to time.Duration
	perS     float64
}

// sessionDone closes the books on one session's throughput.
func (s *samples) sessionDone() {
	now := stamp()
	if wall := s.wall - s.markWall; wall > 0 {
		s.rates = append(s.rates, sessionRate{s.markAt, now, float64(s.requests-s.markReqs) / wall.Seconds()})
	}
	s.markAt, s.markWall, s.markReqs = now, s.wall, s.requests
}

// violated records why an operation failed its checks.
func (s *samples) violated(format string, args ...interface{}) {
	if len(s.issues) < 8 {
		s.issues = append(s.issues, fmt.Sprintf(format, args...))
	}
}

// reply accounts one GET of an operation.
func (s *samples) reply(r reply) {
	s.requests++
	if r.XCache == "HIT" {
		s.hits++
	}
}

// rig is what every workload driver shares: the loopback environment,
// the recorder (nil when untraced), the seeded stream, the inputs and
// the samples collected so far.
type rig struct {
	name string
	sz   Sizes
	env  *env
	rec  *Recorder
	rng  *rand.Rand
	in   *inputs
	s    samples
}

// tick gives the speed reference its chance to probe. Drivers call it
// between operations.
func (r *rig) tick() { r.env.ref.tick() }

// unmeasured runs f — a warm-up — keeping its samples and spans out of
// the results.
func (r *rig) unmeasured(f func() error) error {
	s, rec := r.s, r.rec
	r.s, r.rec = samples{}, nil
	err := f()
	r.s, r.rec = s, rec
	return err
}

// driver is one workload. setup pre-opens and warms (it is part of
// setup_s); session runs one fixed unit of work, so the counts of a
// session repeat exactly and a run is a whole number of sessions;
// finish runs the checks deferred out of the measured phase; teardown
// releases everything setup and the sessions hold.
type driver interface {
	needs() need
	setup() error
	session() error
	finish() error
	teardown()
	rig() *rig
	// hub returns the hub the last operation was served from.
	hub() *ui.Hub
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// walk is the analyst's walk over a trace span. Its shape is scripted
// — drill down, look around, back out, drill down elsewhere — so every
// session visits the same zoom depths in the same order and costs the
// same on every seed; the seed picks where each zoom lands and which
// way each pan goes. Every window is shifted by a per-step offset so
// that no two steps of a run ever share one: each tile is a cache miss.
type walk struct {
	rng        *rand.Rand
	start, end int64
	t0, t1     int64
	pos        int
	step       int64
}

// walkScript is one session: i zooms in by two around a seeded centre,
// o zooms out by two, p pans half a window. It reaches depth 10 (a
// window of span/1024) and ends where the next session resets.
const walkScript = "iiiiiipppiiiipppooooppiiiippoo"

func newWalk(rng *rand.Rand, start, end int64) *walk {
	return &walk{rng: rng, start: start, end: end, t0: start, t1: end}
}

// reset returns to the full span and the start of the script, as a new
// session does.
func (w *walk) reset() { w.t0, w.t1, w.pos = w.start, w.end, 0 }

// next makes the script's next move and returns the step's window.
func (w *walk) next() (t0, t1 int64) {
	if w.pos == len(walkScript) {
		w.reset()
	}
	width := w.t1 - w.t0
	switch walkScript[w.pos] {
	case 'i':
		lo := w.t0 + w.rng.Int63n(width/2+1)
		w.t0, w.t1 = lo, lo+width/2
	case 'o':
		mid := w.t0 + width/2
		w.t0, w.t1 = mid-width, mid+width
	case 'p':
		d := width / 2
		if w.rng.Intn(2) == 0 {
			d = -d
		}
		w.t0, w.t1 = w.t0+d, w.t1+d
	}
	w.pos++
	// Keep the window inside the span, at its width.
	width = w.t1 - w.t0
	if span := w.end - w.start; width > span {
		width = span
	}
	if w.t0 < w.start {
		w.t0 = w.start
	}
	if w.t0 > w.end-width {
		w.t0 = w.end - width
	}
	w.t1 = w.t0 + width
	w.step++
	// The offset is at most a few thousand cycles against windows of
	// at least span/1024; it only has to make the cache key unique.
	return w.t0 + w.step, w.t1 + w.step
}

// Package atmbench is the benchmark harness behind cmd/atmbench: seeded
// input generators, closed-loop workload drivers that exercise the
// viewer over real loopback HTTP, a span recorder for the traced
// (per-layer) run, the statistics both runs report, and the output
// checkers that decide whether an operation counts as failed.
//
// The program under test only ever sees the generated files and URLs;
// everything here is derived from one seed. See bench/README.md for
// the workloads, the metrics and how they interact.
package atmbench

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/topology"
	"github.com/openstream/aftermath/internal/trace"
)

// NativeSpec sizes the native trace: a Seidel stencil of Blocks x
// Blocks blocks for Iters sweeps on the paper's Opteron machine.
type NativeSpec struct {
	Blocks, Iters int
}

// NativeInfo is what the generator knows about the trace it wrote; the
// cold-open checker compares the loaded trace against it.
type NativeInfo struct {
	Tasks int
}

// GenNative simulates the seeded Seidel run and streams its native
// trace to w. The seed reaches both sources of randomness — the
// per-task compute jitter and the scheduler's steal-victim choice — so
// two seeds differ in durations and in placement.
func GenNative(w io.Writer, spec NativeSpec, seed int64) (NativeInfo, error) {
	cfg := apps.ScaledSeidelConfig(spec.Blocks, spec.Iters)
	cfg.Seed = seed
	prog, err := apps.BuildSeidel(cfg)
	if err != nil {
		return NativeInfo{}, err
	}
	sim := openstream.DefaultConfig(topology.Opteron6282SE())
	sim.Seed = seed
	tw := trace.NewWriter(w)
	res, err := openstream.Run(prog, sim, tw)
	if err != nil {
		return NativeInfo{}, fmt.Errorf("simulate seidel: %w", err)
	}
	if err := tw.Flush(); err != nil {
		return NativeInfo{}, fmt.Errorf("write native trace: %w", err)
	}
	return NativeInfo{Tasks: res.TasksExecuted}, nil
}

// SpansSpec sizes the span stream.
type SpansSpec struct {
	// Spans is the minimum number of spans; generation stops at the
	// first request boundary at or past it.
	Spans int
}

// SpansInfo is the generator's ground truth, checked against the
// importer's inference report.
type SpansInfo struct {
	Spans    int
	Requests int
	Errors   int
	Outliers int
	// Ops counts spans per "service.operation".
	Ops map[string]int
	// Services lists the service names in topology order.
	Services []string
}

// spanOp is one operation of the synthetic microservice topology: the
// service it runs in, its own processing time, and the operations it
// calls — together (parallel) or one after the other.
type spanOp struct {
	service, name string
	selfUs        int64
	calls         []int // indexes into spanTopology
	parallel      bool
}

// spanTopology is a five-service shop: the gateway fans out to cart
// and catalog in parallel; cart chains two db operations
// sequentially; catalog fans out to the db and a cache. Indexes are
// stable — the generator walks them, never a map. The db operations
// take well over a millisecond, so cart's second call starts outside
// the window in which the importer would read a fan-out.
var spanTopology = []spanOp{
	0: {service: "gateway", name: "GET /order", selfUs: 800, calls: []int{1, 2}, parallel: true},
	1: {service: "cart", name: "checkout", selfUs: 600, calls: []int{3, 4}},
	2: {service: "catalog", name: "lookup", selfUs: 400, calls: []int{5, 6}, parallel: true},
	3: {service: "db", name: "query", selfUs: 2500},
	4: {service: "db", name: "commit", selfUs: 1500},
	5: {service: "db", name: "scan", selfUs: 2000},
	6: {service: "cache", name: "get", selfUs: 150},
}

const (
	// spanEpochNs is the first request's start: 2026-01-01T00:00:00Z.
	spanEpochNs = 1767225600 * int64(time.Second)
	// One span in ~100 ends in error and one in ~4000 is a 25x latency
	// outlier, drawn from the seeded stream so their positions move
	// with the seed.
	spanErrorRate    = 0.01
	spanOutlierRate  = 1.0 / 4000
	spanOutlierScale = 25
	// spanLanes is how many requests are in flight at once; it bounds
	// the worker lanes the importer infers per service.
	spanLanes = 4
)

type genSpan struct {
	id, parent, traceID uint64
	op                  int
	start, end          int64
	err                 bool
}

// GenSpans writes a seeded stdouttrace JSONL stream of synthetic
// requests through spanTopology. Spans are emitted as the SDK's stdout
// exporter would: when they end, so children precede their parents.
func GenSpans(w io.Writer, spec SpansSpec, seed int64) (SpansInfo, error) {
	rng := rand.New(rand.NewSource(seed))
	info := SpansInfo{Ops: make(map[string]int)}
	seen := make(map[string]bool)
	for _, op := range spanTopology {
		if !seen[op.service] {
			seen[op.service] = true
			info.Services = append(info.Services, op.service)
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var (
		nextID  uint64 = 1
		spans   []genSpan
		laneEnd [spanLanes]int64
		line    []byte
	)
	for i := range laneEnd {
		laneEnd[i] = spanEpochNs + int64(i)*137_000
	}
	dur := func(us int64) int64 {
		f := 1 + 0.15*rng.NormFloat64()
		if f < 0.3 {
			f = 0.3
		}
		d := int64(float64(us*1000) * f)
		if rng.Float64() < spanOutlierRate {
			d *= spanOutlierScale
			info.Outliers++
		}
		return d
	}
	// emit lays out op starting at start under parent and returns its
	// end; children are appended before their parent.
	var emit func(op int, parent, traceID uint64, start int64) int64
	emit = func(op int, parent, traceID uint64, start int64) int64 {
		o := &spanTopology[op]
		id := nextID
		nextID++
		self := dur(o.selfUs)
		t := start + self/2
		end := t
		for _, c := range o.calls {
			cEnd := emit(c, id, traceID, t)
			if cEnd > end {
				end = cEnd
			}
			if !o.parallel {
				t = cEnd + 20_000
			}
		}
		end += self - self/2
		isErr := rng.Float64() < spanErrorRate
		if isErr {
			info.Errors++
		}
		spans = append(spans, genSpan{id: id, parent: parent, traceID: traceID, op: op, start: start, end: end, err: isErr})
		return end
	}
	for info.Spans < spec.Spans {
		// The next request starts on the lane that frees up first.
		lane := 0
		for i := range laneEnd {
			if laneEnd[i] < laneEnd[lane] {
				lane = i
			}
		}
		info.Requests++
		spans = spans[:0]
		start := laneEnd[lane] + int64(rng.Intn(200_000))
		laneEnd[lane] = emit(0, 0, uint64(info.Requests), start)
		sort.SliceStable(spans, func(a, b int) bool { return spans[a].end < spans[b].end })
		for i := range spans {
			s := &spans[i]
			o := &spanTopology[s.op]
			info.Ops[o.service+"."+o.name]++
			line = appendSpanLine(line[:0], s, o)
			if _, err := bw.Write(line); err != nil {
				return info, fmt.Errorf("write span stream: %w", err)
			}
		}
		info.Spans += len(spans)
	}
	if err := bw.Flush(); err != nil {
		return info, fmt.Errorf("write span stream: %w", err)
	}
	return info, nil
}

// appendSpanLine renders one span as a stdouttrace document.
func appendSpanLine(b []byte, s *genSpan, o *spanOp) []byte {
	b = append(b, `{"Name":`...)
	b = strconv.AppendQuote(b, o.name)
	b = append(b, `,"SpanContext":{"TraceID":"`...)
	b = appendHex(b, s.traceID, 32)
	b = append(b, `","SpanID":"`...)
	b = appendHex(b, s.id, 16)
	b = append(b, `"},"Parent":{"SpanID":"`...)
	b = appendHex(b, s.parent, 16)
	b = append(b, `"},"StartTime":"`...)
	b = time.Unix(0, s.start).UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","EndTime":"`...)
	b = time.Unix(0, s.end).UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","Status":{"Code":"`...)
	if s.err {
		b = append(b, "Error"...)
	} else {
		b = append(b, "Unset"...)
	}
	b = append(b, `"},"Resource":[{"Key":"service.name","Value":{"Type":"STRING","Value":`...)
	b = strconv.AppendQuote(b, o.service)
	b = append(b, "}}]}\n"...)
	return b
}

func appendHex(b []byte, v uint64, width int) []byte {
	s := strconv.FormatUint(v, 16)
	for i := len(s); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, s...)
}

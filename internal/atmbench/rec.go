package atmbench

import (
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer, as the traced run records it:
// the layer-qualified name ("render.encode_png"), when it ran
// (nanoseconds since the recorder started), the span that caused it
// (-1 for an operation's root), and the operation and workload both
// belong to. The "real" layer is the operation as the user issues it
// (real.open, real.get); every other span is the same work replayed
// stage by stage. A probe measures a layer next to the operation — a
// decode without the apply, an index lookup loop without the drawing —
// and is not part of the operation's blocking path.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Work   string `json:"work"`
	Probe  bool   `json:"probe,omitempty"`
}

// Recorder keeps the traced run's spans in memory until the run ends.
// It is driven from the one benchmark goroutine, so nesting is a
// stack: a span begun while another is open is its child. A nil
// Recorder records nothing — the untraced run passes nil through the
// same driver code.
type Recorder struct {
	t0    time.Time
	spans []Span
	open  []int
	op    int
	work  string
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// On reports whether spans are being recorded.
func (r *Recorder) On() bool { return r != nil }

// NextOp starts a new operation of the named workload: spans begun
// from now on carry its id.
func (r *Recorder) NextOp(work string) {
	if r != nil {
		r.op++
		r.work = work
	}
}

// Begin opens a span and returns its id for End.
func (r *Recorder) Begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Op: r.op, Work: r.work})
	r.open = append(r.open, id)
	return id
}

// BeginProbe opens a span that is not on the operation's blocking path.
func (r *Recorder) BeginProbe(name string) int {
	id := r.Begin(name)
	if id >= 0 {
		r.spans[id].Probe = true
	}
	return id
}

// End closes the span Begin returned, and any span left open inside it.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	for n := len(r.open); n > 0; n = len(r.open) {
		top := r.open[n-1]
		r.open = r.open[:n-1]
		r.spans[top].End = now
		if top == id {
			return
		}
	}
}

// Spans returns the recorded spans in begin order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SelfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap one
// another (a fan-out) or overhang their parent (a span measured on
// another goroutine); covered time is the union of the child
// intervals clipped to the parent, so nothing is subtracted twice.
func SelfTimes(spans []Span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// LayerOf returns the layer a span name belongs to: the module name
// before the first dot.
func LayerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// Durations groups span durations (milliseconds) by workload and span
// name.
func Durations(spans []Span) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, s := range spans {
		if out[s.Work] == nil {
			out[s.Work] = make(map[string][]float64)
		}
		out[s.Work][s.Name] = append(out[s.Work][s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// LayerSelfMs sums self time (milliseconds) per workload and layer over
// the replayed blocking path: probes, the real operation and the
// operation roots are left out.
func LayerSelfMs(spans []Span) map[string]map[string]float64 {
	self := SelfTimes(spans)
	out := make(map[string]map[string]float64)
	for i, s := range spans {
		layer := LayerOf(s.Name)
		if s.Probe || layer == "real" || layer == "op" {
			continue
		}
		if out[s.Work] == nil {
			out[s.Work] = make(map[string]float64)
		}
		out[s.Work][layer] += float64(self[i]) / 1e6
	}
	return out
}

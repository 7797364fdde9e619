package atmbench

import (
	"bytes"
	"encoding/json"
	"image"
	"image/png"
	"runtime"
	"sort"
	"time"
)

// The sandbox this benchmark is judged on shares its cores with other
// tenants: for tens of seconds to minutes at a time everything
// compute-dense runs up to 1.5x slower (a busy sibling hyperthread),
// while memory-latency-bound work barely changes. A median over a 12 s
// run cannot average that away — the whole run sits inside one phase —
// so every timing is instead read against a speed reference measured
// beside it: a fixed kernel, run between operations, that mixes
// compute-dense work (a PNG encode, a JSON decode) with a dependent
// walk through memory in about the proportion the workloads do. A
// timing is reported as
//
//	measured × refNominalMs / (the kernel's median time around it)
//
// that is, in milliseconds on a machine where the kernel takes
// refNominalMs — the quiet sandbox. The kernel uses only the standard
// library and nothing of the program under test, so no change to the
// program can move it; the raw timings are still printed.

// refNominalMs is what the kernel takes on the quiet reference sandbox
// (2-core Xeon 2.1 GHz, go1.24): the median probe of runs made while
// nothing else had the cores. It only fixes the scale; a run's
// slowdown reads 1.0 when the machine is that fast.
const refNominalMs = 4.0

const (
	// refEvery is the least time between two probes: about 4 % of the
	// run goes to the reference.
	refEvery = 100 * time.Millisecond
	// refWindow is how far either side of a timing its probes are
	// taken from. The machine's phases last tens of seconds.
	refWindow = time.Second
	// refLeast is the least number of probes a slowdown is the median
	// of; the nearest ones are used when the window holds fewer.
	refLeast = 3

	refImgW, refImgH = 500, 200
	refDocs          = 200
	refTable         = 2 << 20 // int32 entries: 8 MiB, far beyond the caches
	refSteps         = 14_000
)

// clockBase is what every logged time is an offset from: 8 bytes a
// stamp, on the monotonic clock.
var clockBase = time.Now()

// stamp returns the time now as an offset from clockBase.
func stamp() time.Duration { return time.Since(clockBase) }

// speedRef is the reference kernel and the log of its probes.
type speedRef struct {
	img   *image.RGBA
	enc   png.Encoder
	out   bytes.Buffer
	doc   []byte
	table []int32
	sink  int

	at   []time.Duration // when each probe ended, ascending
	ms   []float64
	last time.Duration
	// mallocs is how many heap objects one probe allocates, so that a
	// workload's allocation count can leave them out.
	mallocs float64
	scratch []float64
}

// pool hands the PNG encoder its one buffer back, so an encode
// allocates nothing.
type pool struct{ b *png.EncoderBuffer }

func (p *pool) Get() *png.EncoderBuffer  { return p.b }
func (p *pool) Put(b *png.EncoderBuffer) { p.b = b }

func newSpeedRef() *speedRef {
	r := &speedRef{img: image.NewRGBA(image.Rect(0, 0, refImgW, refImgH))}
	r.enc.BufferPool = &pool{}
	// Sparse noise on a flat ground: runs for the filter and the
	// matcher, literals for the Huffman coder, as a timeline tile has.
	x := uint32(1)
	for i := range r.img.Pix {
		x = x*1664525 + 1013904223
		if i%64 < 3 {
			r.img.Pix[i] = byte(x >> 24)
		}
	}
	type attr struct {
		Key   string
		Value int
	}
	type span struct {
		Name, TraceID, StartTime string
		SpanID                   int
		Attributes               []attr
	}
	docs := make([]span, refDocs)
	for i := range docs {
		docs[i] = span{"op", "abcdef0123456789", "2020-01-01T00:00:00Z", i, []attr{{"k", i}}}
	}
	r.doc, _ = json.Marshal(docs) // plain structs of strings and ints cannot fail to marshal
	// A full-period affine map (odd increment, multiplier ≡ 1 mod 4)
	// whose 31 KiB strides make every step a cache and TLB miss that
	// the next step depends on.
	r.table = make([]int32, refTable)
	for i := range r.table {
		r.table[i] = int32((i*7921 + 13) % refTable)
	}

	// The first probes page the table in and size the buffers; then
	// count what a warm probe allocates.
	for i := 0; i < 3; i++ {
		r.kernel()
	}
	const counted = 4
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < counted; i++ {
		r.kernel()
	}
	runtime.ReadMemStats(&m1)
	r.mallocs = float64(m1.Mallocs-m0.Mallocs) / counted
	return r
}

// kernel runs the reference work once and returns how long it took.
func (r *speedRef) kernel() time.Duration {
	t0 := time.Now()
	r.out.Reset()
	_ = r.enc.Encode(&r.out, r.img) // a bytes.Buffer takes every write
	var v []map[string]interface{}
	_ = json.Unmarshal(r.doc, &v) // r.doc is json.Marshal's own output
	p := int32(r.sink & (refTable - 1))
	for i := 0; i < refSteps; i++ {
		p = r.table[p]
	}
	r.sink = int(p) + len(v) + r.out.Len()
	return time.Since(t0)
}

// probe runs the kernel and logs it.
func (r *speedRef) probe() {
	d := r.kernel()
	r.last = stamp()
	r.at = append(r.at, r.last)
	r.ms = append(r.ms, ms(d))
}

// tick probes when the last probe is refEvery old. Drivers call it
// between operations, never inside a timed one.
func (r *speedRef) tick() {
	if stamp()-r.last >= refEvery {
		r.probe()
	}
}

// allocated returns the heap objects the logged probes allocated.
func (r *speedRef) allocated() float64 { return r.mallocs * float64(len(r.ms)) }

// release drops the kernel's data, so that a retained-heap reading
// taken afterwards holds none of it. The probe log stays.
func (r *speedRef) release() {
	r.img, r.doc, r.table = nil, nil, nil
	r.enc, r.out = png.Encoder{}, bytes.Buffer{}
}

// slowdown returns how much slower than nominal the machine ran over
// [from, to]: the median of the probes that ended within refWindow of
// the interval — the refLeast nearest when there are fewer — over
// refNominalMs. Without any probe it is 1.
func (r *speedRef) slowdown(from, to time.Duration) float64 {
	n := len(r.at)
	if n == 0 {
		return 1
	}
	lo := sort.Search(n, func(i int) bool { return r.at[i] >= from-refWindow })
	hi := sort.Search(n, func(i int) bool { return r.at[i] > to+refWindow })
	for hi-lo < refLeast && (lo > 0 || hi < n) {
		// Grow towards whichever neighbour is nearer the interval.
		switch {
		case lo == 0:
			hi++
		case hi == n:
			lo--
		case from-r.at[lo-1] <= r.at[hi]-to:
			lo--
		default:
			hi++
		}
	}
	r.scratch = append(r.scratch[:0], r.ms[lo:hi]...)
	sort.Float64s(r.scratch)
	return Median(r.scratch) / refNominalMs
}

// timed is a series of durations in milliseconds with the time each
// one ended.
type timed struct {
	ms []float64
	at []time.Duration
}

func (t *timed) add(d time.Duration) {
	t.ms = append(t.ms, ms(d))
	t.at = append(t.at, stamp())
}

// normalized returns the series at reference speed: each duration
// divided by the slowdown over its own interval.
func (r *speedRef) normalized(t timed) []float64 {
	out := make([]float64, len(t.ms))
	for i, v := range t.ms {
		end := t.at[i]
		out[i] = v / r.slowdown(end-time.Duration(v*float64(time.Millisecond)), end)
	}
	return out
}

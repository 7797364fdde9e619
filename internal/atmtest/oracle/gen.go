package oracle

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"net/url"
	"strconv"

	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/tmath"
	"github.com/openstream/aftermath/internal/trace"
)

// Gen returns a seeded adversarial trace and requests to ask about it.
// The trace has one to four CPUs, the last sometimes MaxCPUID, with
// a few dozen states each — one seed in eight gives CPU 0 thousands —
// of every kind — zero-length ones, an out-of-range one now and
// then — in units of one or of many cycles, from a time origin of 0,
// 2⁴⁰, MinInt64 or just short of MaxInt64, or with the first CPU's near
// MinInt64 and the others' near MaxInt64. Executions come with and
// without task records, some of a type no record declares, some of a
// task executed twice. Accesses go to regions, to a re-registered
// address, to a region homed outside the topology and to no region;
// samples of a counter fall on CPUs with and without states. One seed
// in four is malformed instead: one CPU's states overlap, one ends
// before it starts, or one comes before its predecessor. The requests
// cover all six modes, filters, heat scales, shades, labels, levels and
// the counter overlay as value and as rate, /stats, /matrix and /plot,
// over the full span and windows a few events deep, narrower than the
// plot in cycles, overhanging the span or empty.
func Gen(seed int64) (data []byte, targets []string) {
	rng := rand.New(rand.NewSource(seed))
	scale := []int64{1, 1, 1000, 35_000}[rng.Intn(4)]
	ids := make([]int32, 1+rng.Intn(4))
	for i := range ids {
		ids[i] = int32(i)
	}
	if rng.Intn(4) == 0 {
		ids[len(ids)-1] = trace.MaxCPUID
	}

	// Everything is generated from time 0 and shifted to the origin.
	var states []trace.StateEvent
	var comms []trace.CommEvent
	var samples []trace.CounterSample
	var tasks []trace.Task
	addrs := []uint64{0x1000, 0x1800, 0x2000, 0x2400, 0x3000, 0x9000}
	id, extent := trace.TaskID(0), int64(0)
	dense := rng.Intn(8) == 0
	for _, cpu := range ids {
		at, value := int64(rng.Intn(20))*scale, int64(0)
		n := rng.Intn(40)
		if dense && cpu == 0 {
			n = 3000 // enough for a pyramid of three levels
		}
		for ; n >= 0; n-- {
			at += int64(rng.Intn(4)) * scale
			d := int64(rng.Intn(30)) * scale
			if rng.Intn(8) == 0 {
				d = 0
			}
			s := trace.StateEvent{CPU: cpu, State: trace.WorkerState(rng.Intn(trace.NumWorkerStates)), Start: at, End: at + d}
			switch r := rng.Intn(40); {
			case r == 0:
				s.State = trace.WorkerState(trace.NumWorkerStates + 1)
			case r < 20:
				s.State = trace.StateTaskExec
			}
			if s.State == trace.StateTaskExec && rng.Intn(10) > 0 {
				if id++; rng.Intn(10) > 0 {
					s.Task = id
				} else {
					s.Task = trace.TaskID(1 + rng.Intn(int(id))) // executed again
				}
				if rng.Intn(4) > 0 {
					tasks = append(tasks, trace.Task{ID: s.Task, Type: trace.TypeID(1 + rng.Intn(3)), CreatorCPU: cpu})
				}
				access := func(when int64, kind trace.CommKind) {
					ev := trace.CommEvent{Kind: kind, CPU: cpu, SrcCPU: -1, Time: when, Task: s.Task, Addr: addrs[rng.Intn(len(addrs))] + uint64(rng.Intn(0x200)), Size: uint64(8 << rng.Intn(6))}
					if rng.Intn(10) == 0 {
						ev.Size, ev.Kind = 0, trace.CommKind(rng.Intn(trace.NumCommKinds))
					}
					comms = append(comms, ev)
				}
				if rng.Intn(4) > 0 {
					access(at, trace.CommRead)
				}
				if d > 0 && rng.Intn(3) == 0 {
					access(at+rng.Int63n(d), trace.CommWrite)
				}
				if rng.Intn(4) > 0 {
					access(at+d, trace.CommWrite)
				}
			}
			states = append(states, s)
			if rng.Intn(3) == 0 {
				value += rng.Int63n(2000) - 500
				samples = append(samples, trace.CounterSample{CPU: cpu, Counter: 9, Time: at, Value: value})
			}
			at += d
		}
		extent = max(extent, at)
	}
	// A CPU with samples and no states.
	for i, n := 0, rng.Intn(6); i < n; i++ {
		samples = append(samples, trace.CounterSample{CPU: int32(len(ids)) + 2, Counter: 9, Time: int64(i) * extent / 5, Value: rng.Int63n(1 << 40)})
	}

	// Every CPU's times are shifted to the origin — but in one case in
	// five the first CPU's go near MinInt64 and the others' near
	// MaxInt64, a span more than 2^63-1 cycles wide.
	var origin, first int64
	switch rng.Intn(5) {
	case 1:
		origin = 1 << 40
	case 2:
		origin = math.MinInt64 + rng.Int63n(3)
	case 3:
		origin = math.MaxInt64 - extent - rng.Int63n(2)
	case 4:
		origin, first = math.MaxInt64-extent-rng.Int63n(2), math.MinInt64+rng.Int63n(3)
	}
	shift := func(cpu int32) int64 {
		if cpu == ids[0] && first != 0 {
			return first
		}
		return origin
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	nodes := int32(1)
	if rng.Intn(3) > 0 {
		nodes = 1 + rng.Int31n(3)
		topo := trace.Topology{Name: "gen", NumNodes: nodes, NodeOfCPU: make([]int32, rng.Intn(len(ids)+2)), Distance: make([]int32, nodes*nodes)}
		for i := range topo.NodeOfCPU {
			topo.NodeOfCPU[i] = rng.Int31n(nodes)
		}
		must(w.WriteTopology(topo))
	}
	must(w.WriteTaskType(trace.TaskType{ID: 2, Name: "beta"}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Name: "alpha"}))
	must(w.WriteTaskType(trace.TaskType{ID: 1, Name: "gamma"}))
	for i, a := range addrs[:5] {
		must(w.WriteRegion(trace.MemRegion{ID: trace.RegionID(i), Addr: a, Size: 0x800, Node: rng.Int31n(nodes + 1)}))
	}
	must(w.WriteRegion(trace.MemRegion{ID: 9, Addr: 0x2000, Size: 0x100, Node: rng.Int31n(nodes)}))
	if rng.Intn(2) == 0 {
		must(w.WriteCounterDesc(trace.CounterDesc{ID: 9, Name: "events", Monotonic: true}))
	}
	for _, t := range tasks {
		must(w.WriteTask(t))
	}
	for _, s := range states {
		s.Start, s.End = s.Start+shift(s.CPU), s.End+shift(s.CPU)
		must(w.WriteState(s))
	}
	for _, ev := range comms {
		ev.Time += shift(ev.CPU)
		must(w.WriteComm(ev))
	}
	for _, s := range samples {
		s.Time += shift(s.CPU)
		must(w.WriteSample(s))
	}
	must(w.WriteCounterDesc(trace.CounterDesc{ID: 9, Name: "events", Monotonic: true}))
	must(w.Flush())
	data = buf.Bytes()
	if rng.Intn(4) == 0 && len(states) > 0 {
		// One state the format forbids, appended raw: it overlaps or
		// precedes its CPU's last state, or ends before it starts.
		s := states[len(states)-1]
		s.Start, s.End = s.Start+shift(s.CPU), s.End+shift(s.CPU)
		switch rng.Intn(3) {
		case 0:
			s.Start -= 1 + rng.Int63n(scale)
		case 1:
			s.Start, s.End = s.End-1, s.End+scale
		default:
			s.Start, s.End = s.End, s.End-1-rng.Int63n(scale)
		}
		p := binary.AppendVarint(nil, int64(s.CPU))
		p = binary.AppendUvarint(p, uint64(s.State))
		p = binary.AppendVarint(p, s.Start)
		p = binary.AppendUvarint(p, uint64(s.End-s.Start))
		p = binary.AppendUvarint(p, uint64(s.Task))
		data = append(binary.AppendUvarint(append(data, 4 /* state record */), uint64(len(p))), p...)
	}
	return data, requests(rng, origin, origin+extent, scale)
}

// requests returns the requests Gen asks about a trace spanning about
// [lo, hi).
func requests(rng *rand.Rand, lo, hi, scale int64) []string {
	itoa := func(n int64) string { return strconv.FormatInt(n, 10) }
	window := func(v url.Values, plotW int) {
		span := max(hi-lo, 1)
		a := lo + rng.Int63n(span)
		set := func(t0, t1 int64) { v.Set("t0", itoa(t0)); v.Set("t1", itoa(t1)) }
		switch rng.Intn(11) {
		case 1:
			set(0, 0)
		case 8:
			set(a, math.MaxInt64)
		case 9: // wider than an int64 span
			set(math.MinInt64, math.MaxInt64)
		case 10: // span·x past 2⁶³
			set(tmath.SatSub(lo, 1<<62), tmath.SatAdd(hi, 1<<61))
		case 2: // a few events deep
			set(a, a+1+rng.Int63n(8*15*scale))
		case 3: // narrower than the plot in cycles
			set(a, a+1+rng.Int63n(int64(plotW)))
		case 4:
			set(a, a+rng.Int63n(hi-a+1))
		case 5:
			v.Set("t0", itoa(a))
		case 6: // overhanging the span
			set(lo-rng.Int63n(span)/2, hi+rng.Int63n(span)/2)
		case 7:
			set(a, a-rng.Int63n(2))
		}
	}
	var filter func(v url.Values)
	filter = func(v url.Values) {
		if rng.Intn(4) == 0 {
			filter(v)
		}
		kv := [][2]string{
			{"types", "alpha"}, {"types", "beta,alpha,nosuch"}, {"types", ","},
			{"mindur", itoa(rng.Int63n(20 * scale))}, {"maxdur", itoa(1 + rng.Int63n(20*scale))},
			{"rnodes", "0"}, {"wnodes", "1,0"}, {}, {}, {},
		}[rng.Intn(10)]
		if kv[0] != "" {
			v.Set(kv[0], kv[1])
		}
	}
	var out []string
	for i := 0; i < 14; i++ {
		w := 100 + rng.Intn(300)
		v := url.Values{"w": {itoa(int64(w))}, "h": {itoa(50 + rng.Int63n(100))}, "mode": {render.Mode(i % 6).String()}}
		window(v, w)
		filter(v)
		for _, p := range [][]string{
			{"labels", "0"}, {"shades", itoa(rng.Int63n(70))}, {"level", itoa(1 + rng.Int63n(3))},
			{"heatmin", itoa(rng.Int63n(10 * scale)), "heatmax", itoa(rng.Int63n(40 * scale))},
			{"counter", "events", "rate", itoa(rng.Int63n(2))},
		} {
			if rng.Intn(4) > 0 {
				continue
			}
			for k := 0; k < len(p); k += 2 {
				v.Set(p[k], p[k+1])
			}
		}
		out = append(out, "/render?"+v.Encode())
	}
	for i := 0; i < 4; i++ {
		v := url.Values{}
		window(v, 100)
		filter(v)
		out = append(out, "/stats?"+v.Encode())
		v = url.Values{}
		window(v, 100)
		v.Set("cell", itoa(rng.Int63n(70)))
		out = append(out, "/matrix?"+v.Encode())
		v = url.Values{"kind": {[]string{"idle", "avgdur", "events", "bogus"}[i]}, "n": {itoa(rng.Int63n(300))}}
		filter(v)
		if rng.Intn(3) == 0 {
			v.Set("level", itoa(1+rng.Int63n(4)))
		}
		out = append(out, "/plot?"+v.Encode())
	}
	return out
}

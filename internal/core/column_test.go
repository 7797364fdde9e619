package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/openstream/aftermath/internal/agg"
	"github.com/openstream/aftermath/internal/trace"
)

// Row sizes of the spillable columns — what liveCol.rowBytes charges a
// segment per event — for sizing retention budgets in the spill tests.
const (
	stateEventBytes    = int64(unsafe.Sizeof(trace.StateEvent{}))
	commEventBytes     = int64(unsafe.Sizeof(Comm{}))
	counterSampleBytes = int64(unsafe.Sizeof(Sample{}))
)

// TestRecordSizes pins the bytes a row of each event column takes: a
// column's records carry no key its position gives, so a sample is its
// time and value and a communication event packs without its CPU.
// States and discrete events keep their CPU: without it they would pad
// to the same size.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Sample", unsafe.Sizeof(Sample{}), 16},
		{"Comm", unsafe.Sizeof(Comm{}), 40},
		{"trace.StateEvent", unsafe.Sizeof(trace.StateEvent{}), 32},
		{"trace.DiscreteEvent", unsafe.Sizeof(trace.DiscreteEvent{}), 24},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// sampleRows and commRows return records as their columns hold them.
func sampleRows(s []trace.CounterSample) []Sample {
	out := make([]Sample, len(s))
	for i := range s {
		out[i] = toSample(&s[i])
	}
	return out
}

func commRows(s []trace.CommEvent) []Comm {
	out := make([]Comm, len(s))
	for i := range s {
		out[i] = toComm(&s[i])
	}
	return out
}

// modelEv is the small event type the column model test runs on.
type modelEv struct {
	t  trace.Time
	id int
}

func modelEvTime(e *modelEv) trace.Time { return e.t }

// capturedCol is a column value as a snapshot holds it, with the
// contents it had at capture.
type capturedCol struct {
	col  Column[modelEv]
	want []modelEv
}

func (s *capturedCol) read() []modelEv { return suffix(s.col.leaves(), 0) }

// suffix returns items [from, Len()) of a view.
func suffix(lv agg.Leaves[modelEv], from int) []modelEv {
	var got []modelEv
	lv.Each(from, func(_ int, e *modelEv) { got = append(got, *e) })
	return got
}

// TestColumnModel drives a liveCol through seeded random sequences of
// every builder operation and checks it after each step against a
// plain slice: logical contents, len, the view an index reads it
// through from every i on, the bytes charged to segments, the sort a
// publish makes of a column that took late events — and that every
// snapshot value captured so far still reads exactly what it read at
// capture, which a concurrent reader also re-checks while the writer
// goes on (under -race that reader is the proof that no operation
// writes at an index a captured value covers).
func TestColumnModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		runColumnModel(t, seed, 600)
	}
}

func runColumnModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	var (
		c       liveCol[modelEv]
		model   []modelEv // logical contents, stream order
		partLen []int     // model of the part list: rows per part
		partSeg []*spillSeg
		late    bool // a late push since the last publish
		seen    bool
		nextSeg int
		nextID  int
		now     trace.Time
		caught  []*capturedCol
	)
	rowBytes := int64(unsafe.Sizeof(modelEv{}))

	// The concurrent reader re-reads every captured value it is handed
	// until the writer is done.
	feed := make(chan *capturedCol, steps)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var held []*capturedCol
		check := func(s *capturedCol) {
			if !slices.Equal(s.read(), s.want) {
				t.Errorf("seed %d: concurrent reader: captured snapshot changed", seed)
			}
		}
		for s := range feed {
			held = append(held, s)
			check(s)
			check(held[len(held)/2])
		}
		for _, s := range held {
			check(s)
		}
	}()
	defer func() {
		close(feed)
		<-readerDone
	}()

	// A late push unspills the column. seen and now survive freezes and
	// drops emptying the column: neither may re-arm the first-event
	// exemption, or the publish would find nothing to sort.
	push := func(ts trace.Time) {
		ev := modelEv{t: ts, id: nextID}
		nextID++
		c.push(ev, ts)
		if seen && ts < now {
			late = true
			partLen, partSeg = nil, nil
		}
		now, seen = max(now, ts), true
		model = append(model, ev)
	}
	// publish is what a publish does to the column before it captures,
	// freezes or drops anything: sort it if it took late events.
	publish := func() {
		if sorted := c.sort(modelEvTime); sorted != late {
			t.Fatalf("seed %d: sort after a publish with late events %v reported %v", seed, late, sorted)
		}
		if late {
			slices.SortStableFunc(model, func(a, b modelEv) int { return cmp.Compare(a.t, b.t) })
			late = false
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op < 9: // in-order pushes
			for n := 1 + rng.Intn(5); n > 0; n-- {
				push(now + trace.Time(rng.Intn(3)))
			}
		case op == 9: // a late event
			push(now - 1 - trace.Time(rng.Intn(5)))
		case op < 13: // publish and freeze
			publish()
			seg := &spillSeg{id: nextSeg}
			nextSeg++
			tail := len(c.Rows)
			rows := c.freeze(seg, modelEvTime, modelEvTime)
			if tail == 0 {
				if rows != nil {
					t.Fatalf("seed %d: froze an empty column", seed)
				}
				break
			}
			if len(rows) != tail || seg.bytes != int64(tail)*rowBytes {
				t.Fatalf("seed %d: freeze moved %d rows / %d bytes, tail had %d", seed, len(rows), seg.bytes, tail)
			}
			partLen, partSeg = append(partLen, tail), append(partSeg, seg)
		case op < 15: // install: swap one part's rows for an equal copy
			if len(partSeg) == 0 {
				break
			}
			k := rng.Intn(len(partSeg))
			before := c.parts
			view := append([]modelEv(nil), c.parts[k].rows...)
			c.install(partSeg[k], view)
			if &c.parts[k].rows[0] != &view[0] {
				t.Fatalf("seed %d: install left part %d on its old rows", seed, k)
			}
			if &before[k].rows[0] == &view[0] {
				t.Fatalf("seed %d: install edited the captured part list in place", seed)
			}
			// Installing for a segment the column has no part of is a
			// no-op.
			c.install(&spillSeg{id: -1}, view)
		case op < 16: // publish and drop the oldest parts
			publish()
			if len(partSeg) == 0 {
				break
			}
			k := 1 + rng.Intn(len(partSeg))
			keep := nextSeg
			if k < len(partSeg) {
				keep = partSeg[k].id
			}
			want := 0
			for _, n := range partLen[:k] {
				want += n
			}
			if got := c.drop(keep); got != want {
				t.Fatalf("seed %d: drop(%d) removed %d events, want %d", seed, keep, got, want)
			}
			model = model[want:]
			partLen, partSeg = partLen[k:], partSeg[k:]
		case op < 17: // unspill
			c.unspill()
			for _, seg := range partSeg {
				if seg.bytes != 0 {
					t.Fatalf("seed %d: unspill left %d bytes charged to segment %d", seed, seg.bytes, seg.id)
				}
			}
			partLen, partSeg = nil, nil
		default: // publish and capture a snapshot value
			publish()
			s := &capturedCol{col: c.Column, want: append([]modelEv(nil), model...)}
			caught = append(caught, s)
			feed <- s
		}

		// The column against the model.
		if c.len() != len(model) {
			t.Fatalf("seed %d step %d: len = %d, want %d", seed, step, c.len(), len(model))
		}
		spilled := 0
		for k, n := range partLen {
			spilled += n
			if len(c.parts[k].rows) != n || c.parts[k].seg != partSeg[k] {
				t.Fatalf("seed %d step %d: part %d has %d rows of segment %d, want %d of %d",
					seed, step, k, len(c.parts[k].rows), c.parts[k].seg.id, n, partSeg[k].id)
			}
			if partSeg[k].bytes != int64(n)*rowBytes {
				t.Fatalf("seed %d step %d: segment %d charged %d bytes for %d rows", seed, step, partSeg[k].id, partSeg[k].bytes, n)
			}
		}
		if len(c.parts) != len(partLen) || c.len()-len(c.Rows) != spilled {
			t.Fatalf("seed %d step %d: %d parts / %d rows in parts, want %d / %d",
				seed, step, len(c.parts), c.len()-len(c.Rows), len(partLen), spilled)
		}
		if c.tailBytes() != int64(len(model)-spilled)*rowBytes {
			t.Fatalf("seed %d step %d: tailBytes = %d for a %d-row tail", seed, step, c.tailBytes(), len(model)-spilled)
		}
		for _, i := range []int{0, rng.Intn(len(model) + 1), len(model)} {
			if got := suffix(c.leaves(), i); !slices.Equal(got, model[i:]) {
				t.Fatalf("seed %d step %d: view from %d = %v, want %v", seed, step, i, got, model[i:])
			}
		}
		// Immutability: every value captured so far reads as it did.
		for k, s := range caught {
			if got := s.read(); !slices.Equal(got, s.want) {
				t.Fatalf("seed %d step %d: snapshot %d changed after capture:\n got %v\nwant %v", seed, step, k, got, s.want)
			}
		}
	}
}

// TestValuesAtMatchesValueAt: the one forward walk of ValuesAt answers
// every time of a non-decreasing row as ValueAt does — before the first
// sample, on repeated timestamps, on equal times, past the last sample
// and across the parts of a spilled column — and leaves the times before
// the first sample untouched.
func TestValuesAtMatchesValueAt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lv := NewLive()
	lv.SetRetention(RetentionPolicy{Dir: t.TempDir(), SpillBytes: 1})
	defer lv.Close()
	var snap *Trace
	at := int64(100)
	for part := 0; part < 6; part++ {
		b := &trace.RecordBatch{CounterIDs: []trace.CounterID{4}}
		for i := rng.Intn(40); i >= 0; i-- {
			at += int64(rng.Intn(3)) * 10 // repeated timestamps, also across parts
			b.Samples = append(b.Samples, trace.CounterSample{CPU: 0, Counter: 4, Time: at, Value: rng.Int63n(1000)})
		}
		snap = publishSettled(t, lv, b)
	}
	c := snap.Counters[0]
	if c.PerCPU[0].runs() < 4 {
		t.Fatalf("precondition: the column has %d runs, want a spilled one", c.PerCPU[0].runs())
	}
	batch := &Counter{PerCPU: []Column[Sample]{{Rows: c.Samples(0)}}}
	for _, tc := range []struct {
		name string
		c    *Counter
		cpu  int32
	}{{"spilled", c, 0}, {"one run", batch, 0}, {"no samples", batch, 1}} {
		for q := 0; q < 200; q++ {
			ts := []trace.Time{int64(rng.Intn(int(at) + 200))}
			for i := rng.Intn(70); i > 0; i-- {
				ts = append(ts, ts[len(ts)-1]+int64(rng.Intn(3)*rng.Intn(int(at)/20+1)))
			}
			vals := make([]int64, len(ts))
			for i := range vals {
				vals[i] = -1
			}
			from := tc.c.ValuesAt(tc.cpu, ts, vals)
			for i, ti := range ts {
				v, ok := tc.c.ValueAt(tc.cpu, ti)
				if ok != (i >= from) || ok && vals[i] != v || !ok && vals[i] != -1 {
					t.Fatalf("%s: ValuesAt(%v) from %d: time %d answers %d, ValueAt (%d, %v)", tc.name, ts, from, ti, vals[i], v, ok)
				}
			}
		}
	}
}

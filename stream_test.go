// Tests for live streaming trace ingest: the batch-equivalence harness
// (the correctness spine of the streaming path — every checkpoint of a
// streamed trace must be byte-identical to a cold load of the same
// prefix) and a writer-vs-readers race stress test across the metric,
// rendering and anomaly layers.
package aftermath

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/metrics"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/topology"
	"github.com/openstream/aftermath/internal/trace"
)

// simTraceBytes simulates a seidel run on a small NUMA machine and
// returns the raw trace stream bytes.
func simTraceBytes(tb testing.TB, blocks, iters int) []byte {
	tb.Helper()
	prog, err := apps.BuildSeidel(apps.ScaledSeidelConfig(blocks, iters))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := openstream.DefaultConfig(topology.Small(4, 4))
	cfg.Seed = 7
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if _, err := openstream.Run(prog, cfg, w); err != nil {
		tb.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// growingTrace exposes data[:limit] and reports io.EOF at the current
// limit — a trace file that is still being written.
type growingTrace struct {
	data  []byte
	limit int
	off   int
}

func (g *growingTrace) Read(p []byte) (int, error) {
	if g.off >= g.limit {
		return 0, io.EOF
	}
	n := copy(p, g.data[g.off:g.limit])
	g.off += n
	return n, nil
}

// assertStreamEqualsBatch compares the streamed snapshot against a
// cold load of the same prefix: raw structure, derived metric series,
// the anomaly ranking and rendered timeline pixels.
func assertStreamEqualsBatch(t *testing.T, ctx string, snap, cold *core.Trace) {
	t.Helper()
	// Raw structure.
	if snap.Span != cold.Span {
		t.Fatalf("%s: span = %+v, want %+v", ctx, snap.Span, cold.Span)
	}
	if !reflect.DeepEqual(snap.Topology, cold.Topology) {
		t.Fatalf("%s: topology differs", ctx)
	}
	if !reflect.DeepEqual(snap.CPUs, cold.CPUs) {
		t.Fatalf("%s: per-CPU event arrays differ", ctx)
	}
	if !reflect.DeepEqual(snap.Tasks, cold.Tasks) {
		t.Fatalf("%s: task tables differ (%d vs %d tasks)", ctx, len(snap.Tasks), len(cold.Tasks))
	}
	if !reflect.DeepEqual(snap.Types, cold.Types) {
		t.Fatalf("%s: type tables differ", ctx)
	}
	if !reflect.DeepEqual(snap.Regions, cold.Regions) {
		t.Fatalf("%s: region tables differ", ctx)
	}
	if len(snap.Counters) != len(cold.Counters) {
		t.Fatalf("%s: %d counters, want %d", ctx, len(snap.Counters), len(cold.Counters))
	}
	for i := range snap.Counters {
		if snap.Counters[i].Desc != cold.Counters[i].Desc {
			t.Fatalf("%s: counter %d desc differs", ctx, i)
		}
		if !reflect.DeepEqual(snap.Counters[i].PerCPU, cold.Counters[i].PerCPU) {
			t.Fatalf("%s: counter %d samples differ", ctx, i)
		}
	}

	// Derived metric series (bit-exact float comparison via DeepEqual).
	gi := metrics.WorkersInState(snap, trace.StateIdle, 64)
	wi := metrics.WorkersInState(cold, trace.StateIdle, 64)
	if !reflect.DeepEqual(gi, wi) {
		t.Fatalf("%s: WorkersInState series differ", ctx)
	}
	gd := metrics.AverageTaskDuration(snap, 48, nil)
	wd := metrics.AverageTaskDuration(cold, 48, nil)
	if !reflect.DeepEqual(gd, wd) {
		t.Fatalf("%s: AverageTaskDuration series differ", ctx)
	}

	// Anomaly ranking, including scores and explanations (which read
	// the counter index — seeded incrementally on the streaming side).
	ga := anomaly.Scan(snap, anomaly.Config{})
	wa := anomaly.Scan(cold, anomaly.Config{})
	if !reflect.DeepEqual(ga, wa) {
		t.Fatalf("%s: anomaly rankings differ (%d vs %d findings)", ctx, len(ga), len(wa))
	}

	// Timeline rows, byte-identical pixels.
	if snap.Span.Duration() > 0 {
		cfg := render.TimelineConfig{Width: 320, Height: 120, Mode: render.ModeState}
		gfb, _, gerr := render.Timeline(snap, cfg)
		wfb, _, werr := render.Timeline(cold, cfg)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: timeline errors differ: %v vs %v", ctx, gerr, werr)
		}
		if gerr == nil && !bytes.Equal(gfb.RGBA().Pix, wfb.RGBA().Pix) {
			t.Fatalf("%s: timeline pixels differ", ctx)
		}
	}
}

// TestStreamEqualsBatch is the batch-equivalence harness: a simulated
// trace is streamed through the live ingest path with randomized
// checkpoint boundaries, and at every checkpoint the published
// snapshot must equal a fresh batch load of exactly the stream prefix
// consumed so far — timeline rows, metric series, anomaly rankings and
// all raw tables. Runs under both a single-core and a parallel
// schedule (CI additionally pins GOMAXPROCS=1 and 4).
func TestStreamEqualsBatch(t *testing.T) {
	data := simTraceBytes(t, 6, 4)
	for _, gmp := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					g := &growingTrace{data: data}
					sr := trace.NewStreamReader(g)
					lv := core.NewLive()
					const checkpoints = 12
					step := len(data) / checkpoints
					for k := 1; k <= checkpoints; k++ {
						if k == checkpoints {
							g.limit = len(data)
						} else {
							g.limit += 1 + rng.Intn(2*step)
							if g.limit > len(data) {
								g.limit = len(data)
							}
						}
						if _, err := lv.Feed(sr); err != nil {
							t.Fatalf("checkpoint %d: feed: %v", k, err)
						}
						off := sr.Consumed()
						if off == 0 {
							continue
						}
						snap, _ := lv.Snapshot()
						cold, err := core.FromReader(bytes.NewReader(data[:off]))
						if err != nil {
							t.Fatalf("checkpoint %d: cold load of %d-byte prefix: %v", k, off, err)
						}
						assertStreamEqualsBatch(t, fmt.Sprintf("checkpoint %d (offset %d)", k, off), snap, cold)
					}
					if err := sr.Done(); err != nil {
						t.Fatalf("stream did not end cleanly: %v", err)
					}
					if sr.Consumed() != int64(len(data)) {
						t.Fatalf("consumed %d of %d bytes", sr.Consumed(), len(data))
					}
				})
			}
		})
	}
}

// assertSpilledEqualsBatch is assertStreamEqualsBatch for snapshots
// whose event columns may live in spilled segment files: raw tables
// that never spill compare directly, the per-CPU event and sample
// columns compare through the stitched accessors (full-range windows,
// so zero-length states at the span edges are included), and every
// derived layer (metrics, anomaly ranking with and without the index,
// timeline pixels) must be byte-identical to the cold load.
func assertSpilledEqualsBatch(t *testing.T, ctx string, snap, cold *core.Trace) {
	t.Helper()
	if snap.Span != cold.Span {
		t.Fatalf("%s: span = %+v, want %+v", ctx, snap.Span, cold.Span)
	}
	if !reflect.DeepEqual(snap.Topology, cold.Topology) {
		t.Fatalf("%s: topology differs", ctx)
	}
	if !reflect.DeepEqual(snap.Tasks, cold.Tasks) {
		t.Fatalf("%s: task tables differ (%d vs %d tasks)", ctx, len(snap.Tasks), len(cold.Tasks))
	}
	if !reflect.DeepEqual(snap.Types, cold.Types) {
		t.Fatalf("%s: type tables differ", ctx)
	}
	if !reflect.DeepEqual(snap.Regions, cold.Regions) {
		t.Fatalf("%s: region tables differ", ctx)
	}
	if snap.NumCPUs() != cold.NumCPUs() {
		t.Fatalf("%s: %d CPUs, want %d", ctx, snap.NumCPUs(), cold.NumCPUs())
	}
	const lo, hi = math.MinInt64, math.MaxInt64
	for cpu := int32(0); int(cpu) < cold.NumCPUs(); cpu++ {
		gs, ws := snap.StatesIn(cpu, lo, hi), cold.CPUs[cpu].States.Rows
		if len(gs) != len(ws) || (len(ws) > 0 && !reflect.DeepEqual(gs, ws)) {
			t.Fatalf("%s: cpu %d states differ (%d vs %d)", ctx, cpu, len(gs), len(ws))
		}
		gd, wd := snap.DiscreteIn(cpu, lo, hi), cold.CPUs[cpu].Discrete.Rows
		if len(gd) != len(wd) || (len(wd) > 0 && !reflect.DeepEqual(gd, wd)) {
			t.Fatalf("%s: cpu %d discrete events differ (%d vs %d)", ctx, cpu, len(gd), len(wd))
		}
		gc, wc := snap.CommIn(cpu, lo, hi), cold.CPUs[cpu].Comm.Rows
		if len(gc) != len(wc) || (len(wc) > 0 && !reflect.DeepEqual(gc, wc)) {
			t.Fatalf("%s: cpu %d comm events differ (%d vs %d)", ctx, cpu, len(gc), len(wc))
		}
	}
	if len(snap.Counters) != len(cold.Counters) {
		t.Fatalf("%s: %d counters, want %d", ctx, len(snap.Counters), len(cold.Counters))
	}
	for i := range snap.Counters {
		if snap.Counters[i].Desc != cold.Counters[i].Desc {
			t.Fatalf("%s: counter %d desc differs", ctx, i)
		}
		for cpu := range cold.Counters[i].PerCPU {
			gs := snap.Counters[i].Samples(int32(cpu))
			ws := cold.Counters[i].PerCPU[cpu].Rows
			if len(gs) != len(ws) || (len(ws) > 0 && !reflect.DeepEqual(gs, ws)) {
				t.Fatalf("%s: counter %d cpu %d samples differ (%d vs %d)", ctx, i, cpu, len(gs), len(ws))
			}
		}
	}
	ge, gsm := snap.EventCounts()
	we, wsm := cold.EventCounts()
	if ge != we || gsm != wsm {
		t.Fatalf("%s: EventCounts (%d, %d), want (%d, %d)", ctx, ge, gsm, we, wsm)
	}

	gi := metrics.WorkersInState(snap, trace.StateIdle, 64)
	wi := metrics.WorkersInState(cold, trace.StateIdle, 64)
	if !reflect.DeepEqual(gi, wi) {
		t.Fatalf("%s: WorkersInState series differ", ctx)
	}
	gd := metrics.AverageTaskDuration(snap, 48, nil)
	wd := metrics.AverageTaskDuration(cold, 48, nil)
	if !reflect.DeepEqual(gd, wd) {
		t.Fatalf("%s: AverageTaskDuration series differ", ctx)
	}
	ga := anomaly.Scan(snap, anomaly.Config{})
	wa := anomaly.Scan(cold, anomaly.Config{})
	if !reflect.DeepEqual(ga, wa) {
		t.Fatalf("%s: anomaly rankings differ (%d vs %d findings)", ctx, len(ga), len(wa))
	}
	if snap.Span.Duration() > 0 {
		cfg := render.TimelineConfig{Width: 320, Height: 120, Mode: render.ModeState}
		gfb, _, gerr := render.Timeline(snap, cfg)
		wfb, _, werr := render.Timeline(cold, cfg)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: timeline errors differ: %v vs %v", ctx, gerr, werr)
		}
		if gerr == nil && !bytes.Equal(gfb.RGBA().Pix, wfb.RGBA().Pix) {
			t.Fatalf("%s: timeline pixels differ", ctx)
		}
	}
}

// TestStreamEqualsBatchSpilled reruns the batch-equivalence harness
// with epoch spilling forced at every publish (a 1-byte RAM budget, and
// Close after each feed waits for the compaction), so each randomized
// checkpoint boundary is also a spill boundary. Snapshots whose columns are stitched from
// mmap-backed segment files and the RAM tail must stay byte-identical
// to cold loads of the consumed prefix across every layer.
func TestStreamEqualsBatchSpilled(t *testing.T) {
	data := simTraceBytes(t, 6, 4)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := &growingTrace{data: data}
			sr := trace.NewStreamReader(g)
			lv := core.NewLive()
			lv.SetRetention(core.RetentionPolicy{
				Dir:        t.TempDir(),
				SpillBytes: 1,
			})
			defer lv.Close()
			const checkpoints = 12
			step := len(data) / checkpoints
			for k := 1; k <= checkpoints; k++ {
				if k == checkpoints {
					g.limit = len(data)
				} else {
					g.limit += 1 + rng.Intn(2*step)
					if g.limit > len(data) {
						g.limit = len(data)
					}
				}
				if _, err := lv.Feed(sr); err != nil {
					t.Fatalf("checkpoint %d: feed: %v", k, err)
				}
				if err := lv.Close(); err != nil {
					t.Fatalf("checkpoint %d: compaction: %v", k, err)
				}
				off := sr.Consumed()
				if off == 0 {
					continue
				}
				snap, _ := lv.Snapshot()
				cold, err := core.FromReader(bytes.NewReader(data[:off]))
				if err != nil {
					t.Fatalf("checkpoint %d: cold load of %d-byte prefix: %v", k, off, err)
				}
				assertSpilledEqualsBatch(t, fmt.Sprintf("checkpoint %d (offset %d)", k, off), snap, cold)
			}
			if err := sr.Done(); err != nil {
				t.Fatalf("stream did not end cleanly: %v", err)
			}
			snap, _ := lv.Snapshot()
			st, ok := snap.SpillStats()
			if !ok || st.Segments == 0 {
				t.Fatalf("spilling never engaged: stats %+v ok %v", st, ok)
			}
			if st.Err != "" {
				t.Fatalf("segment compaction failed: %s", st.Err)
			}
			if st.Pending != 0 {
				t.Fatalf("%d segments still pending after Close", st.Pending)
			}
		})
	}
}

// TestLiveConcurrentAppendAndQuery is the -race stress test: one
// writer goroutine appends and publishes while reader goroutines
// continuously run timeline rendering, derived metrics and anomaly
// scans against the latest snapshot. Readers assert epoch coherence:
// epochs and span ends are monotone, and a snapshot never changes
// after publication.
func TestLiveConcurrentAppendAndQuery(t *testing.T) {
	data := simTraceBytes(t, 4, 3)
	g := &growingTrace{data: data}
	sr := trace.NewStreamReader(g)
	lv := core.NewLive()

	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		step := len(data)/64 + 1
		for g.limit < len(data) {
			g.limit += step
			if g.limit > len(data) {
				g.limit = len(data)
			}
			if _, err := lv.Feed(sr); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()

	type query func(tr *core.Trace)
	queries := []query{
		func(tr *core.Trace) {
			metrics.WorkersInState(tr, trace.StateIdle, 32)
			metrics.AverageTaskDuration(tr, 16, nil)
		},
		func(tr *core.Trace) {
			if tr.Span.Duration() > 0 {
				cfg := render.TimelineConfig{Width: 200, Height: 64, Mode: render.ModeState}
				if _, _, err := render.Timeline(tr, cfg); err != nil {
					t.Errorf("reader render: %v", err)
				}
			}
		},
		func(tr *core.Trace) {
			anomaly.Scan(tr, anomaly.Config{Windows: 16})
		},
	}
	for r := range queries {
		wg.Add(1)
		go func(run query) {
			defer wg.Done()
			var lastEpoch uint64
			var lastEnd int64
			for {
				done := writerDone.Load()
				tr, epoch := lv.Snapshot()
				if epoch < lastEpoch {
					t.Errorf("reader: epoch went backwards (%d after %d)", epoch, lastEpoch)
					return
				}
				if tr.Span.End < lastEnd {
					t.Errorf("reader: span end shrank (%d after %d)", tr.Span.End, lastEnd)
					return
				}
				lastEpoch, lastEnd = epoch, tr.Span.End
				run(tr)
				// The ID map of a live snapshot is built by whichever
				// reader asks first, while the writer keeps publishing.
				if n := len(tr.Tasks); n > 0 {
					if ti, ok := tr.TaskByID(tr.Tasks[n-1].ID); !ok || ti != &tr.Tasks[n-1] {
						t.Errorf("reader: TaskByID does not resolve the last task of epoch %d", epoch)
						return
					}
				}
				// A snapshot must be frozen: re-reading its span after
				// running queries (while the writer kept appending)
				// must give the same value.
				if tr.Span.End != lastEnd {
					t.Errorf("reader: snapshot span mutated after publication")
					return
				}
				if done {
					return
				}
			}
		}(queries[r])
	}
	wg.Wait()
	if err := sr.Done(); err != nil {
		t.Fatalf("stream did not end cleanly: %v", err)
	}

	// After the dust settles the final snapshot equals a cold load.
	snap, _ := lv.Snapshot()
	cold, err := core.FromReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	assertStreamEqualsBatch(t, "final", snap, cold)
}

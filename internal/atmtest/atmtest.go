// Package atmtest provides shared helpers for tests and benchmarks:
// simulated workload traces loaded into the in-memory representation.
package atmtest

import (
	"bytes"
	"io"
	"testing"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/topology"
	"github.com/openstream/aftermath/internal/trace"
)

// RunToTrace simulates a program and loads the resulting trace.
func RunToTrace(tb testing.TB, p *openstream.Program, cfg openstream.Config) *core.Trace {
	tb.Helper()
	tr, _, err := RunToTraceErr(p, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// RunToTraceErr simulates a program and loads the resulting trace,
// returning errors instead of failing a test (for use outside tests).
func RunToTraceErr(p *openstream.Program, cfg openstream.Config) (*core.Trace, openstream.Result, error) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	res, err := openstream.Run(p, cfg, w)
	if err != nil {
		return nil, res, err
	}
	if err := w.Flush(); err != nil {
		return nil, res, err
	}
	tr, err := core.FromReader(&buf)
	return tr, res, err
}

// SeidelTrace simulates a scaled seidel run on a small NUMA machine.
func SeidelTrace(tb testing.TB, blocks, iters int, sched openstream.SchedPolicy) *core.Trace {
	tb.Helper()
	p, err := apps.BuildSeidel(apps.ScaledSeidelConfig(blocks, iters))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := openstream.DefaultConfig(topology.Small(4, 4))
	cfg.Sched = sched
	cfg.Seed = 5
	return RunToTrace(tb, p, cfg)
}

// KMeansTrace simulates a scaled k-means run.
func KMeansTrace(tb testing.TB, blocksCount, blockSize, maxIters int, uncond bool) *core.Trace {
	tb.Helper()
	cfg := apps.ScaledKMeansConfig(blocksCount, blockSize)
	cfg.MaxIterations = maxIters
	cfg.Unconditional = uncond
	p, err := apps.BuildKMeans(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rcfg := openstream.DefaultConfig(topology.Small(4, 4))
	rcfg.Seed = 5
	return RunToTrace(tb, p, rcfg)
}

// prefixReader exposes data[:limit] and reports io.EOF at the current
// limit — a trace file that is still being written.
type prefixReader struct {
	data  []byte
	limit int
	off   int
}

func (g *prefixReader) Read(p []byte) (int, error) {
	if g.off >= g.limit {
		return 0, io.EOF
	}
	n := copy(p, g.data[g.off:g.limit])
	g.off += n
	return n, nil
}

// RunToLiveTrace simulates a program and streams its trace through the
// live ingest path in several publishes, returning the final snapshot
// (RunToTrace is the batch load of the same bytes).
func RunToLiveTrace(tb testing.TB, p *openstream.Program, cfg openstream.Config, publishes int) *core.Trace {
	tb.Helper()
	return runToLive(tb, p, cfg, publishes, core.RetentionPolicy{})
}

// runToLive is RunToLiveTrace under a retention policy; the zero policy
// keeps everything in memory.
func runToLive(tb testing.TB, p *openstream.Program, cfg openstream.Config, publishes int, policy core.RetentionPolicy) *core.Trace {
	tb.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if _, err := openstream.Run(p, cfg, w); err != nil {
		tb.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	data := buf.Bytes()
	if publishes < 1 {
		publishes = 1
	}
	g := &prefixReader{data: data}
	sr := trace.NewStreamReader(g)
	lv := core.NewLive()
	if policy.Dir != "" {
		lv.SetRetention(policy)
		tb.Cleanup(func() {
			if err := lv.Close(); err != nil {
				tb.Error(err)
			}
		})
	}
	step := len(data)/publishes + 1
	for g.limit < len(data) {
		g.limit += step
		if g.limit > len(data) {
			g.limit = len(data)
		}
		if _, err := lv.Feed(sr); err != nil {
			tb.Fatal(err)
		}
		// Wait for the feed's compaction, so the next publish stitches it.
		if err := lv.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sr.Done(); err != nil {
		tb.Fatal(err)
	}
	snap, _ := lv.Snapshot()
	return snap
}

// SeidelLiveTrace is SeidelTrace streamed through the live ingest path.
func SeidelLiveTrace(tb testing.TB, blocks, iters int, sched openstream.SchedPolicy, publishes int) *core.Trace {
	tb.Helper()
	return seidelLive(tb, blocks, iters, sched, publishes, core.RetentionPolicy{})
}

// SeidelSpilledTrace is SeidelLiveTrace with every publish spilling the
// tail it finds, so the final snapshot stitches most of its events from
// segment files (removed, with the live trace closed, when the test
// ends).
func SeidelSpilledTrace(tb testing.TB, blocks, iters int, sched openstream.SchedPolicy, publishes int) *core.Trace {
	tb.Helper()
	snap := seidelLive(tb, blocks, iters, sched, publishes,
		core.RetentionPolicy{Dir: tb.TempDir(), SpillBytes: 1})
	if st, ok := snap.SpillStats(); !ok || st.Segments == 0 || st.Err != "" {
		tb.Fatalf("snapshot did not spill: %+v", st)
	}
	return snap
}

func seidelLive(tb testing.TB, blocks, iters int, sched openstream.SchedPolicy, publishes int, policy core.RetentionPolicy) *core.Trace {
	tb.Helper()
	p, err := apps.BuildSeidel(apps.ScaledSeidelConfig(blocks, iters))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := openstream.DefaultConfig(topology.Small(4, 4))
	cfg.Sched = sched
	cfg.Seed = 5
	return runToLive(tb, p, cfg, publishes, policy)
}

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
	tr, err := core.FromReader(bytes.NewReader(runBytes(tb, p, cfg)))
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// runBytes simulates a program and returns its native trace.
func runBytes(tb testing.TB, p *openstream.Program, cfg openstream.Config) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if _, err := openstream.Run(p, cfg, w); err != nil {
		tb.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// SeidelTrace simulates a scaled seidel run on a small NUMA machine.
func SeidelTrace(tb testing.TB, blocks, iters int, sched openstream.SchedPolicy) *core.Trace {
	tb.Helper()
	tr, err := core.FromReader(bytes.NewReader(SeidelBytes(tb, blocks, iters, sched)))
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// SeidelBytes is the native trace SeidelTrace loads.
func SeidelBytes(tb testing.TB, blocks, iters int, sched openstream.SchedPolicy) []byte {
	tb.Helper()
	p, err := apps.BuildSeidel(apps.ScaledSeidelConfig(blocks, iters))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := openstream.DefaultConfig(topology.Small(4, 4))
	cfg.Sched = sched
	cfg.Seed = 5
	return runBytes(tb, p, cfg)
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

// LiveTrace streams a native trace's bytes through the live ingest path
// in several publishes and returns the final snapshot (core.FromReader
// is the batch load of the same bytes). With spill, every publish
// spills the tail it finds (a one-byte budget, in a directory removed,
// with the live trace closed, when the test ends).
func LiveTrace(tb testing.TB, data []byte, publishes int, spill bool) *core.Trace {
	tb.Helper()
	g := &prefixReader{data: data}
	sr := trace.NewStreamReader(g)
	lv := core.NewLive()
	if spill {
		lv.SetRetention(core.RetentionPolicy{Dir: tb.TempDir(), SpillBytes: 1})
		tb.Cleanup(func() {
			if err := lv.Close(); err != nil {
				tb.Error(err)
			}
		})
	}
	step := len(data)/max(publishes, 1) + 1
	for g.limit < len(data) {
		g.limit = min(g.limit+step, len(data))
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
	return LiveTrace(tb, SeidelBytes(tb, blocks, iters, sched), publishes, false)
}

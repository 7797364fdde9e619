// Package figs reproduces every figure and table of the paper's
// evaluation (Sections III-VI): each FigNN method regenerates the
// corresponding artifact (timeline renderings, derived metric plots,
// task graph exports, parameter sweeps, regressions) and checks the
// paper's qualitative result — who wins, by what factor, where the
// crossovers fall. cmd/aftermath-figs drives all of them at paper
// scale; the root benchmarks reuse them at reduced scale.
package figs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"github.com/openstream/aftermath/internal/apps"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/hw"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/topology"
	"github.com/openstream/aftermath/internal/trace"
)

// Row is one paper-vs-measured comparison.
type Row struct {
	Metric   string
	Paper    string
	Measured string
	OK       bool
}

// Report is the outcome of reproducing one figure or table.
type Report struct {
	ID        string
	Title     string
	Rows      []Row
	Artifacts []string
	Err       error
}

// Pass reports whether every row check held and no error occurred.
func (r *Report) Pass() bool {
	if r.Err != nil {
		return false
	}
	for _, row := range r.Rows {
		if !row.OK {
			return false
		}
	}
	return true
}

func (r *Report) row(metric, paper string, measured string, ok bool) {
	r.Rows = append(r.Rows, Row{Metric: metric, Paper: paper, Measured: measured, OK: ok})
}

func (r *Report) fail(err error) Report {
	r.Err = err
	return *r
}

// Runner regenerates the paper's experiments. The zero value is not
// usable; construct with NewPaperRunner or NewSmallRunner.
type Runner struct {
	// OutDir receives artifacts (PNG, CSV, DOT, traces); empty skips
	// artifact writing.
	OutDir string
	// Seidel configuration and machine (paper: UV2000).
	SeidelCfg     apps.SeidelConfig
	SeidelMachine *topology.Machine
	// KMeans configuration and machine (paper: Opteron 6282 SE).
	KMeansCfg     apps.KMeansConfig
	KMeansMachine *topology.Machine
	// SweepSizes are the Figure 12 block sizes, largest first.
	SweepSizes []int
	// SweepRuns is the number of repetitions per block size (the
	// paper uses 50; the default runner uses fewer since the
	// simulator's variance is smaller).
	SweepRuns int
	// Seed is the base RNG seed.
	Seed int64
	// Relaxed loosens absolute thresholds for reduced-scale runs:
	// shape checks (who wins, where crossovers fall) still apply,
	// but paper-scale magnitudes do not.
	Relaxed bool
	// HW optionally overrides the hardware model (the small runner
	// scales the page fault cost up to emulate the 192-worker
	// allocation storm of the paper's machine on a 16-CPU model).
	HW *hw.Model

	seidelRand    *core.Trace
	seidelNUMA    *core.Trace
	seidelRandRes openstream.Result
	seidelNUMARes openstream.Result
	kmeansCond    *core.Trace
	kmeansCondRes openstream.Result
}

// NewPaperRunner reproduces the evaluation at paper scale.
func NewPaperRunner(outDir string) *Runner {
	return &Runner{
		OutDir:        outDir,
		SeidelCfg:     apps.DefaultSeidelConfig(),
		SeidelMachine: topology.UV2000(),
		KMeansCfg:     apps.DefaultKMeansConfig(),
		KMeansMachine: topology.Opteron6282SE(),
		SweepSizes: []int{1280000, 640000, 320000, 160000, 80000,
			40000, 20000, 10000, 5000, 2500},
		SweepRuns: 5,
		Seed:      1,
	}
}

// NewSmallRunner reproduces the evaluation at test/benchmark scale:
// the same shapes on a small machine in a few seconds. Blocks keep the
// paper's 2^8 edge so page-fault-dominated initialization remains
// visible, and the small machine keeps multi-hop NUMA distances so the
// locality contrast survives the scale-down.
func NewSmallRunner() *Runner {
	s := apps.DefaultSeidelConfig()
	s.N = 12 * s.BlockSize // 12x12 blocks keep 16 CPUs saturated mid-run
	s.Iterations = 6
	k := apps.ScaledKMeansConfig(64, 1000)
	k.MaxIterations = 6
	m, err := topology.New(topology.Config{
		Name:        "small-numa",
		Nodes:       4,
		CPUsPerNode: 4,
		Distance: func(a, b int) int {
			if a/2 == b/2 {
				return 1
			}
			return 3
		},
	})
	if err != nil {
		panic(err)
	}
	hwm := hw.Default()
	hwm.PageFaultCycles *= 5
	return &Runner{
		SeidelCfg:     s,
		SeidelMachine: m,
		KMeansCfg:     k,
		KMeansMachine: m,
		SweepSizes:    []int{16000, 8000, 4000, 2000, 1000, 500, 250, 125},
		SweepRuns:     3,
		Seed:          1,
		Relaxed:       true,
		HW:            &hwm,
	}
}

// runTraced simulates a program with the given tracing options and
// loads the resulting trace, optionally archiving it under OutDir.
func (r *Runner) runTraced(p *openstream.Program, m *topology.Machine, sched openstream.SchedPolicy,
	tracing openstream.Tracing, name string) (*core.Trace, openstream.Result, error) {

	cfg := openstream.DefaultConfig(m)
	cfg.Sched = sched
	cfg.Seed = r.Seed
	cfg.Tracing = tracing
	if r.HW != nil {
		cfg.HW = *r.HW
	}
	if r.OutDir != "" {
		dir := filepath.Join(r.OutDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, openstream.Result{}, err
		}
		path := filepath.Join(dir, name+".atm.gz")
		fw, err := trace.Create(path)
		if err != nil {
			return nil, openstream.Result{}, err
		}
		res, err := openstream.Run(p, cfg, fw.Writer)
		if err != nil {
			fw.Close()
			return nil, res, err
		}
		if err := fw.Close(); err != nil {
			return nil, res, err
		}
		tr, err := core.Load(path)
		return tr, res, err
	}
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

// SeidelTraces returns (building on first use) the two seidel traces:
// the non-optimized (random stealing) and optimized (NUMA-aware)
// executions of Section IV.
func (r *Runner) SeidelTraces() (rand, numa *core.Trace, randRes, numaRes openstream.Result, err error) {
	if r.seidelRand == nil {
		p, err := apps.BuildSeidel(r.SeidelCfg)
		if err != nil {
			return nil, nil, randRes, numaRes, err
		}
		r.seidelRand, r.seidelRandRes, err = r.runTraced(p, r.SeidelMachine, openstream.SchedRandom, openstream.TraceAll(), "seidel-random")
		if err != nil {
			return nil, nil, randRes, numaRes, err
		}
		p2, err := apps.BuildSeidel(r.SeidelCfg)
		if err != nil {
			return nil, nil, randRes, numaRes, err
		}
		r.seidelNUMA, r.seidelNUMARes, err = r.runTraced(p2, r.SeidelMachine, openstream.SchedNUMA, openstream.TraceAll(), "seidel-numa")
		if err != nil {
			return nil, nil, randRes, numaRes, err
		}
	}
	return r.seidelRand, r.seidelNUMA, r.seidelRandRes, r.seidelNUMARes, nil
}

// KMeansTrace returns (building on first use) the k-means trace of
// Sections III-C and V: the conditional-update variant at the default
// block size on the Opteron machine, NUMA-aware scheduling.
func (r *Runner) KMeansTrace() (*core.Trace, openstream.Result, error) {
	if r.kmeansCond == nil {
		p, err := apps.BuildKMeans(r.KMeansCfg)
		if err != nil {
			return nil, openstream.Result{}, err
		}
		r.kmeansCond, r.kmeansCondRes, err = r.runTraced(p, r.KMeansMachine, openstream.SchedNUMA, openstream.TraceAll(), "kmeans")
		if err != nil {
			return nil, openstream.Result{}, err
		}
	}
	return r.kmeansCond, r.kmeansCondRes, nil
}

// FreeSeidel drops the cached seidel traces to bound memory use.
func (r *Runner) FreeSeidel() {
	r.seidelRand, r.seidelNUMA = nil, nil
}

// art returns the artifact path for name and records it in the report;
// it returns "" when artifacts are disabled.
func (r *Runner) art(rep *Report, name string) string {
	if r.OutDir == "" {
		return ""
	}
	if err := os.MkdirAll(r.OutDir, 0o755); err != nil {
		rep.Err = err
		return ""
	}
	path := filepath.Join(r.OutDir, name)
	rep.Artifacts = append(rep.Artifacts, path)
	return path
}

// writeArtifact writes data through fn when artifacts are enabled.
func writeArtifact(path string, fn func(*os.File) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// All regenerates every figure and table in order.
func (r *Runner) All() []Report {
	reports := []Report{
		r.Fig02(), r.Fig03(), r.Fig05(), r.Fig06(), r.Fig07(),
		r.Fig08(), r.Fig09(), r.Fig10(), r.Fig14(), r.Fig15(),
	}
	r.FreeSeidel()
	reports = append(reports,
		r.Fig11(), r.Fig12(), r.Fig13(), r.Fig16(), r.Fig17(),
		r.Fig18(), r.Fig19(), r.TableV(), r.TableVI(),
	)
	return reports
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func mcycles(v float64) string { return fmt.Sprintf("%.2fMcycles", v/1e6) }

func within(v, lo, hi float64) bool { return v >= lo && v <= hi }

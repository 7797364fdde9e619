package atmbench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/ingest"
)

// Sizes scales the inputs and the fixed-work sessions. FullSizes is
// what cmd/atmbench measures; TinySizes lets `go test` run every
// workload in a few seconds.
type Sizes struct {
	Native NativeSpec
	Spans  SpansSpec
	// TileW x TileH is the timeline tile every workload requests.
	TileW, TileH int
	// HotTiles is how many distinct tiles hot_revisit warms, HotBatch
	// its requests per session.
	HotTiles, HotBatch int
	// LiveChunk bytes are handed to Feed per epoch, LiveEpochs times
	// per live session; SpillBytes is live_spill's RAM-tail budget.
	LiveChunk, LiveEpochs int
	SpillBytes            int64
	// Setups is how many times an untraced run sets up; setup_s is
	// their median.
	Setups int
}

// FullSizes are the measured sizes: a 22 MB / 76k-task native trace, a
// 7 MB / 20k-span stream, 4 MiB live sessions. They are sized so one
// run — three set-ups plus the measured phase — stays under 20 s on
// two cores; bench/README.md has the reasoning.
func FullSizes() Sizes {
	return Sizes{
		Native: NativeSpec{Blocks: 48, Iters: 32},
		Spans:  SpansSpec{Spans: 20_000},
		TileW:  1000, TileH: 400,
		HotTiles: 64, HotBatch: 2000,
		LiveChunk: 128 << 10, LiveEpochs: 32,
		SpillBytes: 2 << 20,
		Setups:     3,
	}
}

// TinySizes shrink every input and session to smoke-test scale.
func TinySizes() Sizes {
	return Sizes{
		Native: NativeSpec{Blocks: 8, Iters: 4},
		Spans:  SpansSpec{Spans: 600},
		TileW:  200, TileH: 100,
		HotTiles: 8, HotBatch: 50,
		LiveChunk: 8 << 10, LiveEpochs: 8,
		SpillBytes: 32 << 10,
		Setups:     2,
	}
}

// need selects the inputs a set-up builds.
type need uint8

const (
	needNative need = 1 << iota
	needSpans
	needStore
)

// inputs are the generated files of one set-up and the generator's
// ground truth about them.
type inputs struct {
	dir                 string
	native, spans, stor string
	nativeInfo          NativeInfo
	spansInfo           SpansInfo
	nativeBytes         int64
	storeBytes          int64
	// liveData is the native trace's bytes, the source the live
	// workloads feed from.
	liveData []byte
	// genS and writeS split the input cost into generating bytes and
	// writing files; saveStoreS is core.SaveStore alone.
	genS, writeS, saveStoreS float64
}

// buildInputs generates the selected inputs from seed into dir.
func buildInputs(dir string, seed int64, sz Sizes, n need) (*inputs, error) {
	in := &inputs{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	emit := func(name string, gen func(*bytes.Buffer) error) (string, []byte, error) {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := gen(&buf); err != nil {
			return "", nil, err
		}
		t1 := time.Now()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return "", nil, err
		}
		in.genS += t1.Sub(t0).Seconds()
		in.writeS += time.Since(t1).Seconds()
		return path, buf.Bytes(), nil
	}
	var err error
	if n&(needNative|needStore) != 0 {
		in.native, in.liveData, err = emit("native.atm", func(b *bytes.Buffer) (err error) {
			in.nativeInfo, err = GenNative(b, sz.Native, seed)
			return err
		})
		if err != nil {
			return nil, err
		}
		in.nativeBytes = int64(len(in.liveData))
	}
	if n&needSpans != 0 {
		in.spans, _, err = emit("spans.jsonl", func(b *bytes.Buffer) (err error) {
			in.spansInfo, err = GenSpans(b, sz.Spans, seed)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if n&needStore != 0 {
		tr, err := ingest.Open(in.native)
		if err != nil {
			return nil, err
		}
		in.stor = filepath.Join(dir, "native.atms")
		t0 := time.Now()
		if err := core.SaveStore(tr, in.stor); err != nil {
			return nil, fmt.Errorf("save store: %w", err)
		}
		in.saveStoreS = time.Since(t0).Seconds()
		fi, err := os.Stat(in.stor)
		if err != nil {
			return nil, err
		}
		in.storeBytes = fi.Size()
	}
	return in, nil
}

package atmbench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/ingest"
	"github.com/openstream/aftermath/internal/ingest/otlp"
	"github.com/openstream/aftermath/internal/par"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/store"
	"github.com/openstream/aftermath/internal/trace"
	"github.com/openstream/aftermath/internal/ui"
)

// coldOpen opens one input file the way the CLI does and paints its
// first tile: ingest.Open → query.NewStatic → Hub.Add → GET /render,
// then drops everything. One session is one open.
type coldOpen struct {
	r      rig
	format string // "native", "spans" or "store"
	path   string
	tile   tileReq
	// The checker's reference: the first tile and the counts of a
	// direct batch load of the same data. A store snapshot is checked
	// against the native trace it was saved from, so its tile must be
	// byte-identical to the native one.
	refTile     []byte
	last        *ui.Hub
	wantTasks   int
	wantEvents  int64
	wantSamples int64
}

func (c *coldOpen) rig() *rig    { return &c.r }
func (c *coldOpen) hub() *ui.Hub { return c.last }

func (c *coldOpen) needs() need {
	switch c.format {
	case "spans":
		return needSpans
	case "store":
		return needStore
	}
	return needNative
}

func (c *coldOpen) setup() error {
	in := c.r.in
	ref, genTasks := in.native, in.nativeInfo.Tasks
	switch c.format {
	case "native":
		c.path = in.native
	case "store":
		c.path = in.stor
	case "spans":
		c.path, ref, genTasks = in.spans, in.spans, in.spansInfo.Spans
	}
	c.tile = tileReq{Mode: render.ModeState, W: c.r.sz.TileW, H: c.r.sz.TileH}
	tr, err := ingest.Open(ref)
	if err != nil {
		return err
	}
	if len(tr.Tasks) != genTasks {
		return fmt.Errorf("%s: loaded %d tasks, the generator made %d", ref, len(tr.Tasks), genTasks)
	}
	c.wantTasks = genTasks
	c.wantEvents, c.wantSamples = tr.EventCounts()
	if c.refTile, err = c.tile.direct(tr, nil); err != nil {
		return err
	}
	// One unmeasured cycle pages the file in and warms the allocator.
	return c.r.unmeasured(c.session)
}

func (c *coldOpen) session() error {
	r, rec := &c.r, c.r.rec
	r.tick()
	rec.NextOp(r.name)
	root := rec.Begin("op.cold_open")
	defer rec.End(root)
	r.s.ops.begin()

	t0 := time.Now()
	id := rec.Begin("real.open")
	tr, err := ingest.Open(c.path)
	rec.End(id)
	if err != nil {
		return err
	}
	hub := ui.NewHub()
	if err := hub.Add("x", query.NewStatic(tr)); err != nil {
		return err
	}
	r.env.mount(hub)
	id = rec.Begin("real.get")
	rep, err := r.env.get(c.tile.path())
	rec.End(id)
	if err != nil {
		return err
	}
	op := time.Since(t0)

	ok := true
	if rep.Status != 200 || rep.XCache != "MISS" {
		ok = false
		r.s.violated("first tile: status %d X-Cache %q", rep.Status, rep.XCache)
	} else if !bytes.Equal(rep.Body, c.refTile) {
		ok = false
		r.s.violated("first tile of %s differs from the reference render", c.format)
	}
	if ev, sm := tr.EventCounts(); len(tr.Tasks) != c.wantTasks || ev != c.wantEvents || sm != c.wantSamples {
		ok = false
		r.s.violated("%s: %d tasks %d events %d samples, want %d/%d/%d",
			c.format, len(tr.Tasks), ev, sm, c.wantTasks, c.wantEvents, c.wantSamples)
	}
	r.s.ops.end(ok)
	r.s.reply(rep)
	r.s.op.add(op)
	r.s.tile.add(rep.Dur)
	r.s.wall += op
	r.s.add("open_ms", ms(op-rep.Dur))

	r.env.mount(nil)
	c.last = hub
	if err := hub.Close(); err != nil {
		return err
	}
	if rec.On() {
		return c.replay(op)
	}
	return nil
}

// replay repeats the open stage by stage on a second, equally cold
// load: detect, decode alone (a probe: the load below decodes again),
// the load itself, then the tile's query stages.
func (c *coldOpen) replay(op time.Duration) error {
	r, rec := &c.r, c.r.rec
	t0 := time.Now()
	id := rec.Begin("ingest.detect")
	_, err := ingest.DetectFile(c.path)
	rec.End(id)
	if err != nil {
		return err
	}
	f, err := os.Open(c.path)
	if err != nil {
		return err
	}
	defer f.Close()
	// probe times a stage the load below repeats, keeps it off the
	// path, and rewinds the file for the load.
	var probes time.Duration
	probe := func(name string, stage func() error) error {
		p0 := time.Now()
		id := rec.BeginProbe(name)
		err := stage()
		rec.End(id)
		if err == nil {
			_, err = f.Seek(0, io.SeekStart)
		}
		probes += time.Since(p0)
		return err
	}
	var tr *core.Trace
	load := func(name string, open func() (*core.Trace, error)) error {
		id := rec.Begin(name)
		defer rec.End(id)
		tr, err = open()
		return err
	}
	switch c.format {
	case "native":
		err = probe("trace.decode", func() error {
			return trace.ReadBatched(f, par.Workers(), func(b *trace.RecordBatch) error {
				r.s.tally("trace.records", float64(len(b.Tasks)+len(b.States)+len(b.Discrete)+len(b.Samples)+len(b.Comms)))
				return nil
			})
		})
		if err == nil {
			err = load("core.load", func() (*core.Trace, error) { return core.FromReader(f) })
		}
	case "spans":
		err = probe("otlp.decode", func() error {
			d := otlp.NewDecoder(f)
			n, err := d.Poll(func(*trace.RecordBatch) error { return nil })
			r.s.tally("otlp.spans", float64(n))
			if err != nil {
				return err
			}
			return d.Done()
		})
		if err == nil {
			err = load("core.from_decoder", func() (*core.Trace, error) { return core.FromDecoder(otlp.NewDecoder(f)) })
		}
	case "store":
		err = probe("store.open", func() error {
			m, err := store.Open(c.path)
			if err != nil {
				return err
			}
			return m.Close()
		})
		if err == nil {
			err = load("core.open_store", func() (*core.Trace, error) { return core.OpenStore(c.path) })
		}
	}
	if err != nil {
		return err
	}
	defer tr.Close()
	opened := time.Since(t0) - probes

	// What the load left to build lazily, before the tile forces it.
	id = rec.BeginProbe("core.dom_build")
	dom := tr.DomIndex()
	for cpu := 0; cpu < tr.NumCPUs(); cpu++ {
		dom.CPU(tr, int32(cpu))
	}
	rec.End(id)
	id = rec.BeginProbe("core.counter_index")
	tr.BuildCounterIndex(0)
	rec.End(id)

	s0 := time.Now()
	if _, err := c.tile.parse(tr, c.tile.raw(), rec); err != nil {
		return err
	}
	if _, err := c.tile.direct(tr, rec); err != nil {
		return err
	}
	r.s.tally("path_ms", ms(opened+time.Since(s0)))
	r.s.tally("real_ms", ms(op))
	return nil
}

func (c *coldOpen) finish() error { return nil }
func (c *coldOpen) teardown()     {}

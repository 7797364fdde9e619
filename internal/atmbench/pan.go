package atmbench

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/ingest"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/ui"
)

// numModes is the number of timeline modes the walk rotates through.
const numModes = int(render.ModeNUMAHeat) + 1

// Bundle cadence of one interaction step: a counter overlay on every
// 4th tile, the communication matrix every 5th step, an anomaly scan
// every 10th, and a byte-for-byte audit of every 50th tile.
const (
	overlayEvery = 4
	matrixEvery  = 5
	anomalyEvery = 10
	auditEvery   = 50
)

// opened is a native trace pre-opened in a hub, the state pan_zoom and
// hot_revisit start from.
type opened struct {
	tr *core.Trace
	h  *ui.Hub
}

func (o opened) hub() *ui.Hub { return o.h }

// preopen loads the native input the way the CLI serves it — counter
// index warmed — and mounts it as trace "x".
func preopen(r *rig) (opened, error) {
	tr, err := ingest.Open(r.in.native)
	if err != nil {
		return opened{}, err
	}
	if _, ok := tr.CounterByName(overlayName); !ok {
		return opened{}, fmt.Errorf("%s: no %s counter to overlay", r.in.native, overlayName)
	}
	tr.BuildCounterIndex(0)
	hub := ui.NewHub()
	if err := hub.Add("x", query.NewStatic(tr)); err != nil {
		return opened{}, err
	}
	r.env.mount(hub)
	return opened{tr: tr, h: hub}, nil
}

// tileAt is step k's tile over [t0, t1): the mode rotates over all six,
// every overlayEvery-th tile carries the counter overlay.
func tileAt(sz Sizes, k int, t0, t1 int64) tileReq {
	t := tileReq{T0: t0, T1: t1, Mode: render.Mode(k % numModes), W: sz.TileW, H: sz.TileH}
	if k%overlayEvery == overlayEvery-1 {
		t.Counter = overlayName
	}
	return t
}

// audit is a served tile kept for a byte-for-byte comparison with a
// direct render once the measured phase is over.
type audit struct {
	tile tileReq
	body []byte
}

// panZoom is one analyst session after another on a pre-opened trace:
// a scripted walk with seeded positions where each step issues the
// page's bundle sequentially — /render, /stats, /plot, sometimes
// /matrix and /anomalies. One session is walkScript, from the full span.
type panZoom struct {
	r rig
	opened
	w      *walk
	steps  int
	audits []audit
}

func (p *panZoom) rig() *rig   { return &p.r }
func (p *panZoom) needs() need { return needNative }

func (p *panZoom) setup() (err error) {
	if p.opened, err = preopen(&p.r); err != nil {
		return err
	}
	p.w = newWalk(p.r.rng, p.tr.Span.Start, p.tr.Span.End)
	// A short unmeasured walk builds every lazily built index and
	// fills the one entry /plot keeps hitting.
	return p.r.unmeasured(func() error {
		for i := 0; i < 2*numModes; i++ {
			if err := p.step(); err != nil {
				return err
			}
		}
		return nil
	})
}

func (p *panZoom) session() error {
	p.r.env.mount(p.h)
	p.w.reset()
	for range walkScript {
		if err := p.step(); err != nil {
			return err
		}
	}
	return nil
}

func (p *panZoom) step() error {
	r, rec := &p.r, p.r.rec
	r.tick()
	rec.NextOp(r.name)
	root := rec.Begin("op.pan_zoom")
	defer rec.End(root)
	r.s.ops.begin()
	k := p.steps
	p.steps++
	t0, t1 := p.w.next()
	tile := tileAt(r.sz, k, t0, t1)

	var step, stages time.Duration
	ok := true
	// fetch issues one panel's GET; replay, when tracing, repeats the
	// panel's stages directly and is charged to stages.
	fetch := func(path string, replay func() error) (reply, error) {
		id := rec.Begin("real.get")
		rep, err := r.env.get(path)
		rec.End(id)
		if err != nil {
			return rep, err
		}
		r.s.reply(rep)
		step += rep.Dur
		if rep.Status != 200 {
			ok = false
			r.s.violated("GET %s: status %d", path, rep.Status)
		}
		if rec.On() && replay != nil {
			s0 := time.Now()
			err = replay()
			stages += time.Since(s0)
		}
		return rep, err
	}

	var tileStages time.Duration
	rep, err := fetch(tile.path(), func() error {
		s0 := time.Now()
		if _, err := tile.parse(p.tr, tile.raw(), rec); err != nil {
			return err
		}
		_, err := tile.direct(p.tr, rec)
		tileStages = time.Since(s0)
		return err
	})
	if err != nil {
		return err
	}
	if rep.XCache != "MISS" || !isPNG(rep.Body) {
		ok = false
		r.s.violated("tile %s: X-Cache %q, %d bytes", tile.raw(), rep.XCache, len(rep.Body))
	}
	r.s.tile.add(rep.Dur)
	r.s.tally("png_bytes", float64(len(rep.Body)))
	if k%auditEvery == 0 {
		p.audits = append(p.audits, audit{tile, append([]byte(nil), rep.Body...)})
	}
	if rec.On() {
		r.s.add("ui.miss_self_ms", ms(rep.Dur-tileStages))
		if tile.Mode == render.ModeState {
			n, ix := tile.probeDominant(p.tr, rec)
			r.s.tally("mragg.lookups", float64(n))
			r.s.tally("mragg.indexed", float64(ix))
		}
		if tile.Counter != "" {
			r.s.tally("mmtree.queries", float64(tile.probeMinMax(p.tr, rec)))
		}
	}

	if _, err := fetch("/t/x/stats"+tile.windowQuery(), func() error {
		_, err := tile.directStats(p.tr, rec)
		return err
	}); err != nil {
		return err
	}
	// /plot ignores the window by design, so after the first step it
	// is a HIT: that is what the user gets, and there is no stage to
	// replay.
	if _, err := fetch(plotPath(0), nil); err != nil {
		return err
	}
	if k%matrixEvery == 0 {
		if _, err := fetch("/t/x/matrix"+tile.windowQuery(), func() error {
			_, err := tile.directMatrix(p.tr, rec)
			return err
		}); err != nil {
			return err
		}
	}
	if k%anomalyEvery == 0 {
		if _, err := fetch("/t/x/anomalies"+tile.windowQuery(), func() error {
			n, err := tile.directAnomalies(p.tr, rec)
			r.s.tally("anomaly.findings", float64(n))
			r.s.tally("anomaly.scans", 1)
			return err
		}); err != nil {
			return err
		}
	}

	r.s.ops.end(ok)
	r.s.op.add(step)
	r.s.wall += step
	if rec.On() {
		r.s.tally("path_ms", ms(stages))
		r.s.tally("real_ms", ms(step))
	}
	return nil
}

// finish compares every audited tile with a direct render and, when
// tracing, weighs the counter trees' index overhead against their data.
func (p *panZoom) finish() error {
	if p.r.rec.On() {
		ci := p.tr.CounterIndex()
		for _, c := range p.tr.Counters {
			for cpu := 0; cpu < p.tr.NumCPUs(); cpu++ {
				t := ci.Tree(c, int32(cpu))
				p.r.s.tally("mmtree.overhead_bytes", float64(t.OverheadBytes()))
				p.r.s.tally("mmtree.data_bytes", float64(t.DataBytes()))
			}
		}
	}
	for _, a := range p.audits {
		want, err := a.tile.direct(p.tr, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(a.body, want) {
			p.r.s.ops.spoil()
			p.r.s.violated("tile %s differs from a direct render", a.tile.raw())
		}
	}
	return nil
}

func (p *panZoom) teardown() { closeOpened(&p.r, p.opened) }

func closeOpened(r *rig, o opened) {
	r.env.mount(nil)
	if o.h != nil {
		_ = o.h.Close() // a batch-loaded trace holds nothing Close could fail to release
	}
}

// hotRevisit requests the warmed tiles of a short session over and
// over in Zipf order, spelling each request differently — parameters
// shuffled, one duplicated — so that every one has to canonicalize to
// the warmed key. One session is HotBatch requests.
type hotRevisit struct {
	r rig
	opened
	tiles  []tileReq
	bodies [][]byte
	zipf   *rand.Zipf
}

func (h *hotRevisit) rig() *rig   { return &h.r }
func (h *hotRevisit) needs() need { return needNative }

func (h *hotRevisit) setup() (err error) {
	r := &h.r
	if h.opened, err = preopen(r); err != nil {
		return err
	}
	w := newWalk(r.rng, h.tr.Span.Start, h.tr.Span.End)
	for k := 0; k < r.sz.HotTiles; k++ {
		t0, t1 := w.next()
		tile := tileAt(r.sz, k, t0, t1)
		rep, err := r.env.get(tile.path())
		if err != nil {
			return err
		}
		if rep.Status != 200 || rep.XCache != "MISS" {
			return fmt.Errorf("warming %s: status %d X-Cache %q", tile.raw(), rep.Status, rep.XCache)
		}
		h.tiles = append(h.tiles, tile)
		h.bodies = append(h.bodies, append([]byte(nil), rep.Body...))
	}
	h.zipf = rand.NewZipf(r.rng, 1.1, 1, uint64(len(h.tiles)-1))
	return r.unmeasured(h.session)
}

// respell returns the tile's query string with its parameters in a
// seeded order and one of them repeated.
func (h *hotRevisit) respell(t tileReq) string {
	p := t.params()
	h.r.rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return strings.Join(append(p, p[h.r.rng.Intn(len(p))]), "&")
}

func (h *hotRevisit) session() error {
	h.r.env.mount(h.h)
	for n := 0; n < h.r.sz.HotBatch; n++ {
		if err := h.revisit(); err != nil {
			return err
		}
	}
	return nil
}

func (h *hotRevisit) revisit() error {
	r, rec := &h.r, h.r.rec
	r.tick()
	rec.NextOp(r.name)
	root := rec.Begin("op.hot_revisit")
	defer rec.End(root)
	r.s.ops.begin()
	i := int(h.zipf.Uint64())
	raw := h.respell(h.tiles[i])
	id := rec.Begin("real.get")
	rep, err := r.env.get("/t/x/render?" + raw)
	rec.End(id)
	if err != nil {
		return err
	}
	same := bytes.Equal(rep.Body, h.bodies[i])
	ok := rep.Status == 200 && rep.XCache == "HIT" && same
	if !ok {
		r.s.violated("revisit %s: status %d X-Cache %q, body matches: %v", raw, rep.Status, rep.XCache, same)
	}
	r.s.ops.end(ok)
	r.s.reply(rep)
	r.s.op.add(rep.Dur)
	r.s.tile.add(rep.Dur)
	r.s.wall += rep.Dur
	if rec.On() {
		s0 := time.Now()
		if _, err := h.tiles[i].parse(h.tr, raw, rec); err != nil {
			return err
		}
		stages := time.Since(s0)
		r.s.add("ui.hit_us", ms(rep.Dur-stages)*1e3)
		r.s.tally("path_ms", ms(stages))
		r.s.tally("real_ms", ms(rep.Dur))
	}
	return nil
}

func (h *hotRevisit) finish() error { return nil }
func (h *hotRevisit) teardown()     { closeOpened(&h.r, h.opened) }

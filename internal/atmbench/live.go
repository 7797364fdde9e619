package atmbench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/trace"
	"github.com/openstream/aftermath/internal/ui"
)

// growing is the producer's side of a trace file that is still being
// written: Read returns the bytes up to lim and then io.EOF, until the
// producer raises lim.
type growing struct {
	data     []byte
	off, lim int
}

func (g *growing) Read(p []byte) (int, error) {
	if g.off >= g.lim {
		return 0, io.EOF
	}
	n := copy(p, g.data[g.off:g.lim])
	g.off += n
	return n, nil
}

// feedLine is one core.Live with the decoder and the growing source
// that feed it.
type feedLine struct {
	lv  *core.Live
	src *growing
	sr  *trace.StreamReader
}

func newFeedLine(data []byte, spillDir string, spillBytes int64) (*feedLine, error) {
	l := &feedLine{lv: core.NewLive(), src: &growing{data: data}}
	l.sr = trace.NewStreamReader(l.src)
	if spillDir != "" {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, err
		}
		l.lv.SetRetention(core.RetentionPolicy{Dir: spillDir, SpillBytes: spillBytes})
	}
	return l, nil
}

// liveSession is everything one live session holds.
type liveSession struct {
	*feedLine
	hub *ui.Hub
	sub *stream
	// shadow is a second live trace the traced run feeds the same
	// chunks stage by stage (poll, append, publish apart), since the
	// real one only exposes Feed as a whole.
	shadow      *feedLine
	shadowWatch <-chan core.TraceEvent
	stopWatch   context.CancelFunc
}

// liveFeed is the benchmark as producer and poll loop: it hands the
// native trace to Live.Feed one chunk at a time while one viewer
// connection holds /events and, on each pushed epoch frame, repaints
// as the index page does — coarse tile, exact tile, idle plot. The
// next chunk is fed when the repaint finishes, so epochs are
// deterministic. One session is LiveEpochs epochs on a fresh trace.
//
// With spill set the trace runs under a retention policy (background
// compaction, as the CLI runs it) and every epoch after the first also reads a
// seeded window in the oldest half of the trace, where spilled
// segments are stitched to the RAM tail.
type liveFeed struct {
	r     rig
	spill bool
	cur   *liveSession
	// sessions numbers the spill directories; lastTile and consumed
	// are the final exact tile of the last session and the stream
	// offset it reflects, for the batch-equivalence check.
	sessions    int
	lastTile    []byte
	consumed    int64
	exact, crse tileReq
}

func (l *liveFeed) rig() *rig   { return &l.r }
func (l *liveFeed) needs() need { return needNative }
func (l *liveFeed) hub() *ui.Hub {
	if l.cur == nil {
		return nil
	}
	return l.cur.hub
}

func (l *liveFeed) setup() error {
	l.exact = tileReq{Mode: render.ModeState, W: l.r.sz.TileW, H: l.r.sz.TileH}
	l.crse = l.exact
	l.crse.Level = coarseLevel
	if need := l.r.sz.LiveChunk * l.r.sz.LiveEpochs; len(l.r.in.liveData) < need {
		return fmt.Errorf("native trace has %d bytes, a live session feeds %d", len(l.r.in.liveData), need)
	}
	// A few unmeasured epochs exercise every path once: connect,
	// feed, pushed frame, the three panels.
	return l.r.unmeasured(func() error { return l.feed(warmEpochs) })
}

// warmEpochs is the length of the set-up's unmeasured live session.
const warmEpochs = 4

func (l *liveFeed) session() error { return l.feed(l.r.sz.LiveEpochs) }

func (l *liveFeed) open() (*liveSession, error) {
	r := &l.r
	l.sessions++
	dir := func(kind string) string {
		if !l.spill {
			return ""
		}
		return filepath.Join(r.in.dir, fmt.Sprintf("%s-%s-%d", r.name, kind, l.sessions))
	}
	line, err := newFeedLine(r.in.liveData, dir("spill"), r.sz.SpillBytes)
	if err != nil {
		return nil, err
	}
	s := &liveSession{feedLine: line, hub: ui.NewHub()}
	if err := s.hub.Add("x", s.lv); err != nil {
		return nil, err
	}
	r.env.mount(s.hub)
	if s.sub, err = r.env.subscribe("/t/x/events"); err != nil {
		return nil, err
	}
	// The stream opens with a status frame for the empty trace.
	if _, err := s.sub.await(0); err != nil {
		return nil, err
	}
	if r.rec.On() {
		if s.shadow, err = newFeedLine(r.in.liveData, dir("shadow"), r.sz.SpillBytes); err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.shadowWatch, s.stopWatch = s.shadow.lv.Watch(ctx), cancel
	}
	return s, nil
}

// closeSession releases the current session: the SSE stream, the hub
// (which waits for the live trace's compactions) and its spill files.
func (l *liveFeed) closeSession() error {
	s := l.cur
	if s == nil {
		return nil
	}
	l.cur = nil
	s.sub.close()
	l.r.env.mount(nil)
	err := s.hub.Close()
	if s.shadow != nil {
		s.stopWatch()
		for range s.shadowWatch {
		}
		if e := s.shadow.lv.Close(); err == nil {
			err = e
		}
	}
	if l.spill {
		for _, d := range []string{"spill", "shadow"} {
			os.RemoveAll(filepath.Join(l.r.in.dir, fmt.Sprintf("%s-%s-%d", l.r.name, d, l.sessions)))
		}
	}
	return err
}

// feed runs one session of the given number of epochs on a fresh trace.
func (l *liveFeed) feed(epochs int) error {
	// The previous session stayed open until now so that the retained
	// heap is measured with a trace and hub still referenced.
	if err := l.closeSession(); err != nil {
		return err
	}
	s, err := l.open()
	if err != nil {
		return err
	}
	l.cur = s
	var publishMs []float64
	for e := 0; e < epochs; e++ {
		pub, err := l.epoch(s, e)
		if err != nil {
			return err
		}
		publishMs = append(publishMs, pub)
	}
	if l.r.rec.On() {
		l.r.s.add("core.publish_growth", growth(publishMs))
	}
	return nil
}

// growth is the median of the last decile of per-epoch costs over the
// median of the first: 1.0 means an epoch costs the same however long
// the trace already is.
func growth(perEpoch []float64) float64 {
	n := len(perEpoch) / 10
	if n < 1 {
		n = 1
	}
	first, last := medianOf(perEpoch[:n]), medianOf(perEpoch[len(perEpoch)-n:])
	if first <= 0 {
		return 0
	}
	return last / first
}

// epoch feeds one chunk and repaints; it returns the replayed publish
// cost in milliseconds (0 when untraced).
func (l *liveFeed) epoch(s *liveSession, e int) (publishMs float64, err error) {
	r, rec := &l.r, l.r.rec
	r.tick()
	rec.NextOp(r.name)
	root := rec.Begin("op.live")
	defer rec.End(root)
	r.s.ops.begin()
	before := s.lv.Epoch()

	t0 := time.Now()
	s.src.lim += r.sz.LiveChunk
	id := rec.Begin("real.feed")
	n, err := s.lv.Feed(s.sr)
	rec.End(id)
	fed := time.Now()
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("epoch %d: a %d-byte chunk held no complete record", e, r.sz.LiveChunk)
	}
	epoch := s.lv.Epoch()
	id = rec.Begin("real.frame_wait")
	fr, err := s.sub.await(epoch)
	rec.End(id)
	if err != nil {
		return 0, err
	}

	ok := epoch > before && fr.Epoch == epoch
	if !ok {
		r.s.violated("epoch %d: published %d after %d, frame says %d", e, epoch, before, fr.Epoch)
	}
	fetch := func(path string) (reply, error) {
		id := rec.Begin("real.get")
		rep, err := r.env.get(path)
		rec.End(id)
		if err != nil {
			return rep, err
		}
		r.s.reply(rep)
		if rep.Status != 200 {
			ok = false
			r.s.violated("GET %s: status %d", path, rep.Status)
		}
		return rep, nil
	}
	if _, err := fetch(l.crse.path()); err != nil {
		return 0, err
	}
	coarse := time.Since(t0)
	rep, err := fetch(l.exact.path())
	if err != nil {
		return 0, err
	}
	op := time.Since(t0)
	if rep.XCache != "MISS" || !isPNG(rep.Body) {
		ok = false
		r.s.violated("epoch %d exact tile: X-Cache %q, %d bytes", e, rep.XCache, len(rep.Body))
	}
	// Kept for the batch-equivalence check of the session's last tile.
	l.lastTile = append(l.lastTile[:0], rep.Body...)
	l.consumed = s.sr.Consumed()
	if !l.spill {
		r.s.tile.add(rep.Dur)
	}
	if _, err := fetch(plotPath(0)); err != nil {
		return 0, err
	}

	// The spilled-window read: a tile and its stats inside the oldest
	// half of what has been fed so far.
	var old tileReq
	spilledRead := l.spill && e > 0
	if spilledRead {
		tr, _ := s.lv.Snapshot()
		span := tr.Span.End - tr.Span.Start
		width := span / 8
		at := tr.Span.Start + r.rng.Int63n(span/2-width+1)
		old = tileReq{T0: at + 1, T1: at + 1 + width, Mode: render.ModeState, W: r.sz.TileW, H: r.sz.TileH}
		rep, err := fetch(old.path())
		if err != nil {
			return 0, err
		}
		if rep.XCache != "MISS" || !isPNG(rep.Body) {
			ok = false
			r.s.violated("epoch %d spilled-window tile: X-Cache %q, %d bytes", e, rep.XCache, len(rep.Body))
		}
		r.s.tile.add(rep.Dur)
		if _, err := fetch("/t/x/stats" + old.windowQuery()); err != nil {
			return 0, err
		}
	}
	wall := time.Since(t0)

	if l.spill {
		if st, has := s.lv.SpillStats(); has {
			r.s.peak("core.spill_pending_max", float64(st.Pending))
			if st.Err != "" {
				ok = false
				r.s.violated("epoch %d: spill error: %s", e, st.Err)
			}
		}
	}
	r.s.ops.end(ok)
	r.s.op.add(op)
	r.s.wall += wall
	r.s.add("feed_ms", ms(fed.Sub(t0)))
	r.s.add("ui.sse_frame_us", ms(fr.At.Sub(fed))*1e3)
	r.s.add("ui.coarse_paint_ms", ms(coarse))
	r.s.tally("fed_bytes", float64(r.sz.LiveChunk))
	r.s.tally("feed_s", fed.Sub(t0).Seconds())

	if !rec.On() {
		return 0, nil
	}
	// Replay: the same chunk through the shadow trace stage by stage,
	// then each panel's stages directly on the snapshot just painted.
	s0 := time.Now()
	sh := s.shadow
	sh.src.lim = s.src.lim
	var batches []*trace.RecordBatch
	id = rec.Begin("trace.stream_poll")
	_, err = sh.sr.Poll(func(b *trace.RecordBatch) error { batches = append(batches, b); return nil })
	rec.End(id)
	if err != nil {
		return 0, err
	}
	id = rec.Begin("core.append")
	err = sh.lv.Append(batches...)
	rec.End(id)
	if err != nil {
		return 0, err
	}
	id = rec.Begin("core.publish")
	p0 := time.Now()
	sh.lv.Publish()
	publishMs = ms(time.Since(p0))
	rec.End(id)
	id = rec.Begin("core.notify")
	<-s.shadowWatch
	rec.End(id)

	tr, _ := s.lv.Snapshot()
	if _, err := l.crse.direct(tr, rec); err != nil {
		return 0, err
	}
	if _, err := l.exact.direct(tr, rec); err != nil {
		return 0, err
	}
	if _, err := directPlot(tr, 0, rec); err != nil {
		return 0, err
	}
	if spilledRead {
		if _, err := old.direct(tr, rec); err != nil {
			return 0, err
		}
		if _, err := old.directStats(tr, rec); err != nil {
			return 0, err
		}
	}
	r.s.tally("path_ms", ms(time.Since(s0)))
	r.s.tally("real_ms", ms(wall))
	return publishMs, nil
}

// finish lets the last session's compactions land, reads the spill
// state, and checks the final tile against a batch load of exactly the
// bytes the stream had consumed.
func (l *liveFeed) finish() error {
	r := &l.r
	s := l.cur
	if s == nil {
		return fmt.Errorf("%s: no session ran", r.name)
	}
	if l.spill {
		if err := s.lv.Close(); err != nil {
			return err
		}
		st, _ := s.lv.SpillStats()
		r.s.tally("core.spill_segments", float64(st.Segments))
		r.s.tally("core.spilled_mb", float64(st.SpilledBytes)/1e6)
		r.s.tally("core.spill_dropped", float64(st.DroppedSegs))
		if st.Segments < 3 || st.Pending != 0 || st.Err != "" {
			r.s.ops.spoil()
			r.s.violated("spill state after the last session: %+v", st)
		}
	}
	ref, err := core.FromReader(bytes.NewReader(r.in.liveData[:l.consumed]))
	if err != nil {
		return err
	}
	want, err := l.exact.direct(ref, nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(l.lastTile, want) {
		r.s.ops.spoil()
		r.s.violated("final live tile differs from a batch load of the same %d bytes", l.consumed)
	}
	return nil
}

func (l *liveFeed) teardown() {
	_ = l.closeSession() // reported by the sessions that ran; nothing left to save here
}

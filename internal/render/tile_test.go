package render

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/trace"
)

// fuzzTimeline builds the tile FuzzTimelineEncode encodes from data: a
// configuration — one of the six modes with 2–64 heat shades, 1–4000
// pixels wide, 1–120 high, labels on or off, over the span or a part
// of it — and a trace of one to five CPUs, ids from 0 to MaxCPUID (a
// label as wide as "CPU 1048576" overhangs the gutter), each with up to
// 240 states, the executions of tasks of one to 300 types that read and
// write regions on four nodes. Missing bytes read as zero. It returns
// a nil trace where the bytes make none.
func fuzzTimeline(t *testing.T, data []byte) (*core.Trace, TimelineConfig) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	cfg := TimelineConfig{
		Width:  1 + (next()|next()<<8)%4000,
		Height: 1 + next()%120,
		Mode:   Mode(next() % 6),
		Shades: 2 + next()%63,
		Labels: next()%2 == 0,
	}
	window, from, part := next()%2 == 1, int64(next()), int64(1+next()%8)
	ids := []int32{0, 1, 7, 999, 1000, 12345, trace.MaxCPUID}
	ntypes := []int{1, 2, 3, 15, 16, 17, 255, 300}[next()%8]

	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for ty := 1; ty <= ntypes; ty++ {
		must(w.WriteTaskType(trace.TaskType{ID: trace.TypeID(ty), Name: fmt.Sprintf("t%d", ty)}))
	}
	nodes := make([]int32, 16)
	for cpu := range nodes {
		nodes[cpu] = int32(cpu % 4)
	}
	must(w.WriteTopology(trace.Topology{NodeOfCPU: nodes, NumNodes: 4, Distance: make([]int32, 16)}))
	for node := int32(0); node < 4; node++ {
		must(w.WriteRegion(trace.MemRegion{ID: trace.RegionID(node + 1), Addr: uint64(node+1) << 20, Size: 1 << 20, Node: node}))
	}
	task, first := trace.TaskID(0), next()
	for c, n := 0, 1+next()%5; c < n; c++ {
		cpu := ids[(first+c)%len(ids)]
		at := int64(next())
		for k := next() % 61 * 4; k > 0; k-- {
			s := trace.StateEvent{CPU: cpu, State: trace.WorkerState(next() % trace.NumWorkerStates), Start: at, End: at + int64(next()%40)}
			if next()%2 == 0 {
				task++
				s.State, s.Task = trace.StateTaskExec, task
				must(w.WriteTask(trace.Task{ID: task, Type: trace.TypeID(1 + (next()|next()<<8)%ntypes), CreatorCPU: cpu}))
				for _, kind := range []trace.CommKind{trace.CommRead, trace.CommWrite} {
					must(w.WriteComm(trace.CommEvent{Kind: kind, CPU: cpu, SrcCPU: -1, Time: s.Start, Task: task,
						Addr: uint64(1+next()%4)<<20 + 64, Size: uint64(8 << (next() % 6))}))
				}
			}
			must(w.WriteState(s))
			at = s.End + int64(next()%8)
		}
	}
	must(w.Flush())
	tr, err := core.FromReader(&buf)
	if err != nil || tr.NumCPUs() == 0 {
		return nil, cfg
	}
	if span := tr.Span.End - tr.Span.Start; window && span > 4 {
		cfg.Start = tr.Span.Start + from*span/1024
		cfg.End = cfg.Start + 1 + span/part
	}
	return tr, cfg
}

// fuzzSeed is a configuration's bytes for fuzzTimeline followed by
// seeded random ones for the trace.
func fuzzSeed(config ...byte) []byte {
	trace := make([]byte, 2000)
	rand.New(rand.NewSource(int64(len(config)) + int64(config[0]))).Read(trace)
	return append(config, trace...)
}

// drawTile draws the picture Timeline makes of tr under cfg with the
// calls a painter makes: each labelled row's label with text, then the
// row's runs with fill.
func drawTile(t *testing.T, tr *core.Trace, cfg TimelineConfig, text func(x, y int, s string, c color.RGBA), fill func(x, y, w, h int, c color.RGBA)) {
	t.Helper()
	g, rows, labels, _, err := timelineRuns(tr, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for row := range rows {
		y := row * g.rowH
		if labels != nil && g.labeled(row) {
			text(0, labelY(y, g.rowH), fmt.Sprintf("CPU %d", labels[row]), TextColor)
		}
		for _, r := range rows[row].runs {
			fill(g.gutter+int(r.x0), y, int(r.x1-r.x0), g.drawH, r.c)
		}
	}
}

// tileModel is the plainImage of the picture Timeline makes of tr under
// cfg, drawn as drawTile draws it.
func tileModel(t *testing.T, tr *core.Trace, cfg TimelineConfig) *plainImage {
	m := &plainImage{img: image.NewRGBA(image.Rect(0, 0, cfg.Width, cfg.Height)), drawn: map[color.RGBA]bool{}}
	m.clear(Background)
	m.ops = 0
	drawTile(t, tr, cfg, m.text, m.fill)
	return m
}

// FuzzTimelineEncode: the tile Timeline makes, whose scanlines share
// their rows' runs, encodes to the very bytes of the same picture drawn
// from NewFramebuffer with DrawText and FillRect, whose scanlines own
// every run; and those bytes decode to the pixels of a plainImage drawn
// with the same calls. Tile, drawing and model agree on the operation
// count and on truecolour — whatever the mode, the width (a multiple
// of 8 or not, 1–4000), the labels, however far they overhang the
// gutter, and the palette, across the bit depths' edges and past 256
// colours. So does the tile of a shape whose label gutter is cold (the
// first, which keeps it and records its code) and one whose gutter is
// warm (the second, which copies its heads and reads its code), each
// encoded also as though no gutter were cached.
func FuzzTimelineEncode(f *testing.F) {
	f.Add(fuzzSeed(0xe8, 3, 99, 0, 9, 0, 0, 0, 0, 0, 4, 4))    // state, 1000 wide, labels up to CPU 1048576
	f.Add(fuzzSeed(0xd0, 7, 49, 2, 9, 0, 1, 100, 2, 7, 0, 2))  // typemap of 300 types, 2000 wide, a window
	f.Add(fuzzSeed(0x4d, 1, 96, 2, 9, 0, 0, 0, 0, 5, 5, 3))    // typemap of 17 types, 334 wide
	f.Add(fuzzSeed(0x9f, 0xf, 119, 5, 9, 1, 0, 0, 0, 0, 0, 4)) // numa-heat, 4000 wide, no labels
	f.Add(fuzzSeed(48, 0, 6, 1, 14, 0, 1, 30, 3, 3, 6, 4))     // heatmap, 49 wide, rows 1 high
	f.Add(fuzzSeed(7, 0, 20, 3, 9, 1, 0, 0, 0, 1, 2, 1))       // numa-read, 8 wide
	f.Add(fuzzSeed(0x2b, 2, 60, 2, 1, 0, 0, 0, 0, 1, 3, 4))    // typemap of 2 types, 556 wide
	f.Add(fuzzSeed(43, 1, 10, 1, 14, 1, 0, 0, 0, 3, 0, 4))     // heatmap, 300 wide, rows 1 high, no labels
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfg := fuzzTimeline(t, data)
		if tr == nil {
			return
		}
		if _, _, err := Timeline(tr, cfg); err != nil {
			return
		}
		drawn := NewFramebuffer(cfg.Width, cfg.Height)
		drawTile(t, tr, cfg, drawn.DrawText, drawn.FillRect)
		m := tileModel(t, tr, cfg)
		if drawn.Ops != m.ops || drawn.truecolour != m.truecolour {
			t.Fatalf("%+v: drawn %d operations, truecolour %v; model %d, %v", cfg, drawn.Ops, drawn.truecolour, m.ops, m.truecolour)
		}
		var owned bytes.Buffer
		if err := drawn.EncodePNG(&owned); err != nil {
			t.Fatal(err)
		}
		resetGutters()
		for _, gutter := range []string{"cold", "warm"} {
			tile, _, err := Timeline(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tile.Ops != m.ops || tile.truecolour != m.truecolour {
				t.Fatalf("%+v, %s gutter: tile %d operations, truecolour %v; model %d, %v",
					cfg, gutter, tile.Ops, tile.truecolour, m.ops, m.truecolour)
			}
			var shared bytes.Buffer
			if err := tile.EncodePNG(&shared); err != nil {
				t.Fatal(err)
			}
			live, _, err := encodeLive(tile)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(shared.Bytes(), owned.Bytes()) || !bytes.Equal(live, owned.Bytes()) {
				t.Fatalf("%+v, %s gutter: the tile encodes to %d bytes (%d without the gutter), the drawn picture to %d other ones",
					cfg, gutter, shared.Len(), len(live), owned.Len())
			}
		}
		if got := decodedPix(t, owned.Bytes()); !bytes.Equal(got, m.img.Pix) {
			t.Fatalf("%+v: the PNG does not decode to the model's pixels", cfg)
		}
	})
}

// decodedPix decodes the PNG b through image/png and returns its pixels
// as an image.RGBA's, a palette entry's bytes looked up once.
func decodedPix(t *testing.T, b []byte) []byte {
	img, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	switch m := img.(type) {
	case *image.Paletted:
		var pal [256][4]byte
		for i, c := range m.Palette {
			r, g, b, a := c.RGBA()
			pal[i] = [4]byte{uint8(r >> 8), uint8(g >> 8), uint8(b >> 8), uint8(a >> 8)}
		}
		pix := make([]byte, 0, 4*len(m.Pix))
		for _, p := range m.Pix {
			pix = append(pix, pal[p][:]...)
		}
		return pix
	case *image.RGBA:
		return m.Pix
	}
	t.Fatalf("decoded a %T", img)
	return nil
}

// typesTrace is a trace of n task types, each executed once, one after
// the other on CPU 0.
func typesTrace(t *testing.T, n int) *core.Trace {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := 1; i <= n; i++ {
		for _, err := range []error{
			w.WriteTaskType(trace.TaskType{ID: trace.TypeID(i), Name: fmt.Sprintf("t%d", i)}),
			w.WriteTask(trace.Task{ID: trace.TaskID(i), Type: trace.TypeID(i)}),
			w.WriteState(trace.StateEvent{State: trace.StateTaskExec, Task: trace.TaskID(i), Start: int64(10 * i), End: int64(10*i + 10)}),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTileManyColours: a typemap of 300 task types draws more colours
// than a palette holds, so Timeline makes it truecolour, as FillRect
// would have made it, and it encodes through image/png.
func TestTileManyColours(t *testing.T) {
	fb, _, err := Timeline(typesTrace(t, 300), TimelineConfig{Width: 1200, Height: 20, Mode: ModeType, Labels: true})
	if err != nil {
		t.Fatal(err)
	}
	if !fb.truecolour {
		t.Fatalf("%d colours drawn: the tile is not truecolour", distinctColours(fb))
	}
	if _, ct := roundTrip(t, fb); ct != pngTruecolour {
		t.Errorf("colour type %d, want truecolour", ct)
	}
}

// TestTileAllocatedBytes: a 1000x400 state tile with labels, from
// Timeline to its PNG bytes, allocates less than the w*h bytes a pixel
// buffer of it would take alone — plain, and with the counter overlay
// drawn into it, the first tile of its shape (its label gutter cold) and
// the second (warm). And the arena the overlay's scanlines are carved
// from holds at most twice the runs they keep: each scanline's head
// grows in place as the overlay draws it.
func TestTileAllocatedBytes(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	c, ok := tr.CounterByName(trace.CounterBranchMisses)
	if !ok {
		t.Fatal("missing counter")
	}
	cfg := TimelineConfig{Width: 1000, Height: 400, Mode: ModeState, Labels: true}
	ov := OverlayConfig{Counter: c, Rate: true, Color: CategoryColor(7)}
	for _, overlay := range []bool{false, true} {
		for _, gutter := range []string{"cold", "warm"} {
			const rounds = 8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range rounds {
				if gutter == "cold" {
					resetGutters()
				}
				fb, _, err := Timeline(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if overlay {
					OverlayCounter(fb, tr, cfg, ov, tr.CounterIndex())
				}
				var out bytes.Buffer
				if err := fb.EncodePNG(&out); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if got := (after.TotalAlloc - before.TotalAlloc) / rounds; got >= uint64(cfg.Width*cfg.Height) {
				t.Errorf("overlay %v, %s gutter: a tile allocates %d bytes from Timeline to PNG, not less than its %d pixels", overlay, gutter, got, cfg.Width*cfg.Height)
			} else {
				t.Logf("overlay %v, %s gutter: %d bytes a tile", overlay, gutter, got)
			}
		}
	}

	noisy := noisyTrace(t, 16)
	if ov.Counter, ok = noisy.CounterByName("noise"); !ok {
		t.Fatal("missing counter")
	}
	fb, _, err := Timeline(noisy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	OverlayCounter(fb, noisy, cfg, ov, noisy.CounterIndex())
	runtime.ReadMemStats(&after)
	live := 0
	for _, l := range fb.lines {
		live += len(l.head)
	}
	run := uint64(unsafe.Sizeof(pixelRun{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*run*uint64(live) {
		t.Errorf("the overlay allocates %d bytes, %.1f times the %d runs its scanlines keep", got, float64(got)/float64(run*uint64(live)), live)
	} else {
		t.Logf("the overlay allocates %d bytes for %d runs", got, live)
	}
}

// noisyTrace is a trace of cpus CPUs, each in one state for 100 000
// cycles, with a counter "noise" sampled every 50 cycles at seeded
// random values: its overlay draws most columns of every row, each over
// a part of the row of its own.
func noisyTrace(t *testing.T, cpus int32) *core.Trace {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteCounterDesc(trace.CounterDesc{ID: 1, Name: "noise"}))
	rng := rand.New(rand.NewSource(1))
	for cpu := range cpus {
		must(w.WriteState(trace.StateEvent{CPU: cpu, State: trace.StateIdle, Start: 0, End: 100_000}))
		for at := int64(0); at < 100_000; at += 50 {
			must(w.WriteSample(trace.CounterSample{CPU: cpu, Counter: 1, Time: at, Value: rng.Int63n(1000)}))
		}
	}
	must(w.Flush())
	tr, err := core.FromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestOverlayTallRows: a noisy counter's overlay on 4 CPUs at
// 4000x2000, rows 500 scanlines tall, allocates about as often as on
// 64 CPUs at 4000x400, rows 6 tall, and at most twice the bytes of the
// runs its scanlines keep. And vlines, which
// draws a row's lines a scanline at a time, draws what VLine draws line
// by line.
func TestOverlayTallRows(t *testing.T) {
	ov := OverlayConfig{Rate: true, Color: CategoryColor(7)}
	allocs := func(cpus int32, h int) (float64, uint64, int) {
		tr := noisyTrace(t, cpus)
		var ok bool
		if ov.Counter, ok = tr.CounterByName("noise"); !ok {
			t.Fatal("missing counter")
		}
		cfg := TimelineConfig{Width: 4000, Height: h, Mode: ModeState, Labels: true}
		n := testing.AllocsPerRun(4, func() {
			OverlayCounter(mustTimeline(t, tr, cfg), tr, cfg, ov, tr.CounterIndex())
		})
		fb := mustTimeline(t, tr, cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		OverlayCounter(fb, tr, cfg, ov, tr.CounterIndex())
		runtime.ReadMemStats(&after)
		runs := 0
		for _, l := range fb.lines {
			runs += len(l.head)
		}
		return n, after.TotalAlloc - before.TotalAlloc, runs
	}
	short, _, _ := allocs(64, 400)
	tall, bytes, runs := allocs(4, 2000)
	if tall > short+2 {
		t.Errorf("the overlay at 4 rows of 500 scanlines allocates %.0f times, at 64 rows of 6 %.0f", tall, short)
	}
	if run := uint64(unsafe.Sizeof(pixelRun{})); bytes > 2*run*uint64(runs) {
		t.Errorf("the tall overlay allocates %d bytes, %.1f times the %d runs its scanlines keep", bytes, float64(bytes)/float64(run*uint64(runs)), runs)
	}
	t.Logf("tall rows: %.0f allocations (short rows %.0f), %d bytes for %d runs", tall, short, bytes, runs)

	rng := rand.New(rand.NewSource(3))
	for round := range 20 {
		lines, drawn := NewFramebuffer(300, 200), NewFramebuffer(300, 200)
		lines.Clear(Background)
		drawn.Clear(Background)
		var vs vlines
		for x := int32(0); x < 300; x += 1 + rng.Int31n(3) {
			y0 := rng.Int31n(220)
			y1 := y0 + rng.Int31n(200)
			vs.ls = append(vs.ls, vline{x, y0, y1})
			drawn.VLine(int(x), int(y0), int(y1), CategoryColor(round))
		}
		lines.vlines(&vs, CategoryColor(round))
		if lines.Ops != drawn.Ops {
			t.Fatalf("round %d: vlines counts %d operations, VLine %d", round, lines.Ops, drawn.Ops)
		}
		for y := range 200 {
			for x := range 300 {
				if lines.At(x, y) != drawn.At(x, y) {
					t.Fatalf("round %d: (%d, %d) is %v drawn by vlines, %v by VLine", round, x, y, lines.At(x, y), drawn.At(x, y))
				}
			}
		}
	}
}

// TestKeptTileReadOnly: At, RGBA, WritePPM and EncodePNG read a tile
// without writing to it, so they run at once from several goroutines
// (the race detector watches) and agree with each other and with the
// same picture drawn from NewFramebuffer.
func TestKeptTileReadOnly(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	cfg := TimelineConfig{Width: 301, Height: 97, Mode: ModeType, Labels: true}
	fb, _, err := Timeline(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	copyOf := func() []line {
		ls := make([]line, len(fb.lines))
		for y, l := range fb.lines {
			ls[y] = line{slices.Clone(l.head), slices.Clone(l.tail), l.cut}
		}
		return ls
	}
	before := copyOf()
	type reading struct{ png, ppm, rgba []byte }
	got := make([]reading, 6)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p, q bytes.Buffer
			if err := fb.EncodePNG(&p); err != nil {
				t.Error(err)
			}
			if err := fb.WritePPM(&q); err != nil {
				t.Error(err)
			}
			for y := 0; y < fb.H(); y += 7 {
				for x := 0; x < fb.W(); x++ {
					fb.At(x, y)
				}
			}
			got[i] = reading{p.Bytes(), q.Bytes(), fb.RGBA().Pix}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(copyOf(), before) {
		t.Fatal("reading the tile wrote to it")
	}
	for i, r := range got {
		if !bytes.Equal(r.png, got[0].png) || !bytes.Equal(r.ppm, got[0].ppm) || !bytes.Equal(r.rgba, got[0].rgba) {
			t.Fatalf("goroutine %d read the tile differently", i)
		}
	}
	drawn := NewFramebuffer(cfg.Width, cfg.Height)
	drawTile(t, tr, cfg, drawn.DrawText, drawn.FillRect)
	if !bytes.Equal(drawn.RGBA().Pix, got[0].rgba) {
		t.Error("the tile's RGBA differs from the drawn framebuffer's")
	}
	decodesTo(t, got[0].png, drawn)
}

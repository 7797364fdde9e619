// Package render implements Aftermath's rendering engine offscreen:
// the timeline with its five modes (state, heatmap, typemap, NUMA read/
// write maps, NUMA heatmap), performance counter overlays, derived
// metric plots and the communication matrix view.
//
// The paper's rendering optimizations (Section VI-B) are implemented
// and measurable: every pixel of an overlay is drawn only once using
// the predominant state of its interval; adjacent identical pixels are
// aggregated into single rectangle fills; counters render through the
// min/max search trees of package mmtree. Naive counterparts exist for
// the ablation benchmarks.
//
// The paper's GTK+/Cairo GUI is replaced by PNG/PPM output and the
// interactive HTTP viewer in internal/ui; the rendering algorithms are
// unchanged by this substitution. Every picture is held one way: as
// scanlines of runs of one colour. A timeline's scanlines share their
// row's runs; a drawing call (a counter overlay, an annotation, a
// plot's line, a glyph) splices its span into each scanline it
// touches, which copies the shared runs left of the span's end into a
// head of its own. Colours are numbered in a palette as they are drawn,
// until a 257th or a translucent one makes the picture truecolour. An
// indexed picture is encoded from its runs, packed into runs of bytes
// and deflated by this package's own compressor (deflate.go), one
// tokenizer over runs whose only matches are the row above and a run,
// so encoding costs what the runs and the distinct scanlines cost;
// what it writes decodes to the framebuffer's pixels, and is not
// image/png's bytes. The CPU labels left of a timeline's plot are the
// same on every tile of one shape (size, row geometry, labelled CPUs):
// the first tile of a shape keeps them as a label gutter (gutter.go),
// whose heads the next tiles copy, and the first encode at each bit
// depth and wire numbering of its two colours records the heads packed
// and tokenized up to where a token reads the plot. A tile encodes from
// that as long as nothing has been drawn into it; an overlaid or
// annotated tile, and one whose labels overhang the gutter, encodes
// every head itself. The bytes are the same either way.
package render

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"os"
	"slices"
)

// Framebuffer is an image with drawing-operation accounting, used to
// verify the rectangle aggregation optimization. It is a list of
// scanlines, each a head of runs it owns followed by the runs it
// shares with the other scanlines of its row (line). A colour is
// numbered in the palette when it is drawn, for as long as at most 256
// colours, all opaque, have been drawn since the last Clear — every
// timeline mode, plots, an ordinary matrix — and the framebuffer is
// truecolour from the first colour that does not fit, for good. run is
// the one place that knows which; every primitive draws through span.
type Framebuffer struct {
	w, h  int
	lines []line
	// off shifts the shared runs' columns: a timeline's runs are in
	// plot columns, right of the label gutter.
	off int32
	// clear is the run Clear shares with every scanline.
	clear [1]pixelRun
	// arena is the space heads are carved from (grow); tip is the
	// scanline whose head was carved last, which grows in place.
	arena []pixelRun
	tip   *line
	// gutter is the label gutter of a Timeline tile's shape, whose heads
	// the tile's are, for as long as nothing has been drawn since (span,
	// Clear).
	gutter *gutter
	// truecolour is set by the first colour pal cannot hold; pal is nil
	// from then on. pal lives in palette.
	truecolour bool
	pal        []color.RGBA
	palette    [256]color.RGBA
	// The palette's lookup table, open-addressed: 512 slots for at most
	// 256 keys, so load stays at or below one half. A key is the
	// colour's four bytes; an opaque colour's is never 0, which marks
	// an empty slot. Colours arrive in long runs, so the last one is
	// remembered (last == 0: none yet) and costs one compare.
	keys    [palSlots]uint32
	vals    [palSlots]uint8
	last    uint32
	lastIdx uint8
	// Ops counts drawing calls (rectangle fills, lines, glyphs).
	Ops int
}

// line is one scanline: head, the runs it owns over columns [0, cut),
// every column covered, then from cut on tail, the runs it shares with
// its row in columns shifted by the framebuffer's off, the background
// where none covers a column — palette entry 0 of a timeline, the only
// picture with gaps. A tail drops its runs that end by cut.
type line struct {
	head, tail []pixelRun
	cut        int32
}

const palSlots = 512

// NewFramebuffer allocates a w x h framebuffer cleared to the
// background color. A run's columns are 32-bit, so w is below 2^31.
func NewFramebuffer(w, h int) *Framebuffer {
	if w < 0 || h < 0 || w > math.MaxInt32 {
		panic(fmt.Sprintf("render: framebuffer size %dx%d out of range", w, h))
	}
	fb := &Framebuffer{w: w, h: h, lines: make([]line, h)}
	fb.Clear(Background)
	fb.Ops = 0
	return fb
}

// W returns the width in pixels.
func (fb *Framebuffer) W() int { return fb.w }

// H returns the height in pixels.
func (fb *Framebuffer) H() int { return fb.h }

// Clear fills the whole framebuffer: every scanline becomes one shared
// run of c. Nothing drawn before survives it, so an opaque clear of an
// indexed framebuffer starts the palette over with c as its only entry.
func (fb *Framebuffer) Clear(c color.RGBA) {
	if !fb.truecolour && c.A == 0xff {
		fb.pal = fb.palette[:0]
		fb.keys = [palSlots]uint32{}
		fb.last = 0
	}
	if fb.w == 0 || fb.h == 0 {
		return
	}
	fb.Ops++
	fb.clear[0] = fb.run(0, fb.w, c)
	fb.off, fb.arena, fb.tip, fb.gutter = 0, fb.arena[:0], nil, nil
	for y := range fb.lines {
		fb.lines[y] = line{tail: fb.clear[:]}
	}
}

// index returns c's palette index, entering c on first sight. ok is
// false when c cannot be a palette entry: it is not opaque, or it
// would be the 257th.
func (fb *Framebuffer) index(c color.RGBA) (idx uint8, ok bool) {
	if c.A != 0xff {
		return 0, false
	}
	k := uint32(c.R) | uint32(c.G)<<8 | uint32(c.B)<<16 | uint32(c.A)<<24
	if k == fb.last {
		return fb.lastIdx, true
	}
	s := (k * 0x9e3779b1) >> (32 - 9)
	for fb.keys[s] != k {
		if fb.keys[s] == 0 {
			if len(fb.pal) == 256 {
				return 0, false
			}
			fb.keys[s], fb.vals[s] = k, uint8(len(fb.pal))
			fb.pal = append(fb.pal, c)
			break
		}
		s = (s + 1) % palSlots
	}
	fb.last, fb.lastIdx = k, fb.vals[s]
	return fb.lastIdx, true
}

// run returns the run of columns [x0, x1) in c, numbered in the palette
// while the framebuffer is indexed; a colour the palette cannot hold
// makes it truecolour.
func (fb *Framebuffer) run(x0, x1 int, c color.RGBA) pixelRun {
	r := pixelRun{x0: int32(x0), x1: int32(x1), c: c}
	if !fb.truecolour {
		var ok bool
		if r.p, ok = fb.index(c); !ok {
			fb.truecolour, fb.pal = true, nil
		}
	}
	return r
}

// runs appends scanline l's runs over columns [from, to) to dst: its
// head's, then its tail's, the background between them, adjacent runs
// of one colour merged.
func (fb *Framebuffer) runs(dst []pixelRun, l *line, from, to int32) []pixelRun {
	x := from
	for i := 0; x < min(to, l.cut); i++ {
		if r := l.head[i]; r.x1 > x {
			r.x0, r.x1 = x, min(r.x1, to)
			dst, x = put(dst, r), r.x1
		}
	}
	for _, r := range l.tail {
		x0, x1 := max(r.x0+fb.off, x), min(r.x1+fb.off, to)
		if x0 >= to {
			break
		}
		if x0 < x1 {
			if x0 > x {
				dst = put(dst, pixelRun{x0: x, x1: x0, c: Background})
			}
			r.x0, r.x1 = x0, x1
			dst, x = put(dst, r), x1
		}
	}
	if x < to {
		dst = put(dst, pixelRun{x0: x, x1: to, c: Background})
	}
	return dst
}

// put appends r to runs, merged into the last run where that one ends
// at r.x0 in r's colour: rectangle aggregation, optimization (b) of
// Section VI-B.
func put(runs []pixelRun, r pixelRun) []pixelRun {
	if n := len(runs) - 1; n >= 0 && runs[n].x1 == r.x0 && runs[n].c == r.c {
		runs[n].x1 = r.x1
		return runs
	}
	return append(runs, r)
}

// RGBA returns a copy of the framebuffer as an RGBA image.
func (fb *Framebuffer) RGBA() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, fb.w, fb.h))
	var rs []pixelRun
	for y := range fb.lines {
		rs = fb.runs(rs[:0], &fb.lines[y], 0, int32(fb.w))
		pix := img.Pix[y*img.Stride:]
		for _, r := range rs {
			for x := int(r.x0); x < int(r.x1); x++ {
				px := pix[4*x : 4*x+4 : 4*x+4]
				px[0], px[1], px[2], px[3] = r.c.R, r.c.G, r.c.B, r.c.A
			}
		}
	}
	return img
}

// FillRect fills the rectangle [x, x+w) x [y, y+h), clipped to the
// framebuffer.
func (fb *Framebuffer) FillRect(x, y, w, h int, c color.RGBA) {
	if w <= 0 || h <= 0 {
		return
	}
	x0, y0, x1, y1 := clipRect(x, y, x+w, y+h, fb.w, fb.h)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	fb.Ops++
	r := fb.run(x0, x1, c)
	for yy := y0; yy < y1; yy++ {
		fb.span(&fb.lines[yy], r)
	}
}

// VLine draws a vertical line from (x, y0) to (x, y1) inclusive.
func (fb *Framebuffer) VLine(x, y0, y1 int, c color.RGBA) {
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	fb.FillRect(x, y0, 1, y1-y0+1, c)
}

// HLine draws a horizontal line from (x0, y) to (x1, y) inclusive.
func (fb *Framebuffer) HLine(x0, x1, y int, c color.RGBA) {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	fb.FillRect(x0, y, x1-x0+1, 1, c)
}

// Line draws a line between two points (Bresenham).
func (fb *Framebuffer) Line(x0, y0, x1, y1 int, c color.RGBA) {
	fb.Ops++
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		fb.set(x0, y0, c)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

// set writes one pixel, clipped.
func (fb *Framebuffer) set(x, y int, c color.RGBA) {
	if x < 0 || y < 0 || x >= fb.w || y >= fb.h {
		return
	}
	fb.span(&fb.lines[y], fb.run(x, x+1, c))
}

// span draws r, a run inside the picture, into scanline l. A span at
// or right of cut is appended, after the shared runs left of it, merged
// with the last run where that one is of its colour: a scanline drawn
// left to right only ever appends. One left of cut replaces the head's
// runs i up to j under it but for what they show left and right of
// it, merged with its neighbours of its colour.
func (fb *Framebuffer) span(l *line, r pixelRun) {
	fb.gutter = nil
	if r.x0 >= l.cut {
		fb.own(l, r.x0)
		if len(l.head) == cap(l.head) {
			fb.grow(l, 1)
		}
		l.head, l.cut = put(l.head, r), r.x1
		fb.trim(l)
		return
	}
	h := l.head
	i := len(h)
	for i > 0 && h[i-1].x1 > r.x0 {
		i--
	}
	k := i
	for k < len(h) && h[k].x1 <= r.x1 {
		k++
	}
	var seg [3]pixelRun
	n, j := 0, k
	if i < len(h) && h[i].x0 < r.x0 && h[i].c != r.c {
		seg[0], n = h[i], 1
		seg[0].x1 = r.x0
	} else if i < len(h) && h[i].x0 < r.x0 {
		r.x0 = h[i].x0
	} else if i > 0 && h[i-1].c == r.c {
		i--
		r.x0 = h[i].x0
	}
	right := k < len(h) && h[k].c != r.c
	if k < len(h) {
		j = k + 1
		if !right {
			r.x1 = h[k].x1
		}
	}
	seg[n], n = r, n+1
	if right {
		seg[n], n = h[k], n+1
		seg[n-1].x0 = r.x1
	}
	if more := n - (j - i); len(h)+more > cap(h) {
		fb.grow(l, more)
		h = l.head
	}
	l.head, l.cut = slices.Replace(h, i, j, seg[:n]...), max(l.cut, r.x1)
	fb.trim(l)
}

// trim drops the shared runs of l that end by cut.
func (fb *Framebuffer) trim(l *line) {
	for len(l.tail) > 0 && l.tail[0].x1+fb.off <= l.cut {
		l.tail = l.tail[1:]
	}
}

// own copies the shared runs over columns [cut, x) into l's head, the
// background between them, and moves cut to x. The head is grown once,
// for the runs and the gaps counted first.
func (fb *Framebuffer) own(l *line, x int32) {
	if x <= l.cut {
		return
	}
	n, at := 0, l.cut
	for i := 0; i < len(l.tail) && l.tail[i].x0+fb.off < x; i++ {
		if l.tail[i].x0+fb.off > at {
			n++
		}
		n, at = n+1, l.tail[i].x1+fb.off
	}
	if at < x {
		n++
	}
	if len(l.head)+n > cap(l.head) {
		fb.grow(l, n)
	}
	l.head, l.cut = fb.runs(l.head, l, l.cut, x), x
}

// grow gives l's head room for n more runs in arena space. The arena is
// carved a head at a time from chunks that double in size, so a
// framebuffer's heads cost a handful of allocations. The head carved
// last, the tip, grows in place by just the room it needs while its
// chunk has it: a scanline drawn left to right before the next
// (OverlayCounter) is not moved as it grows. Any other head moves, to
// at least twice its old room; the space it leaves is not reused before
// Clear.
func (fb *Framebuffer) grow(l *line, n int) {
	h := l.head
	if a := len(fb.arena) - cap(h); l == fb.tip && a+len(h)+n <= cap(fb.arena) {
		fb.arena = fb.arena[:a+len(h)+n]
		l.head = fb.arena[a : a+len(h) : a+len(h)+n]
		return
	}
	c := max(2*cap(h), len(h)+n, 4)
	if a := len(fb.arena); a+c > cap(fb.arena) {
		fb.arena = make([]pixelRun, 0, max(2*cap(fb.arena), c, 4*fb.h))
	}
	a := len(fb.arena)
	fb.arena = fb.arena[:a+c]
	l.head, fb.tip = append(fb.arena[a:a:a+c], h...), l
}

// At returns the pixel color at (x, y), the zero color outside the
// framebuffer.
func (fb *Framebuffer) At(x, y int) color.RGBA {
	if x < 0 || y < 0 || x >= fb.w || y >= fb.h {
		return color.RGBA{}
	}
	var px [1]pixelRun
	return fb.runs(px[:0], &fb.lines[y], int32(x), int32(x)+1)[0].c
}

// pngEncoder encodes what no palette holds: a truecolour framebuffer,
// and the empty one, which it rejects by name. BestSpeed, because a
// tile is waited for.
var pngEncoder = png.Encoder{CompressionLevel: png.BestSpeed}

// EncodePNG writes the framebuffer as PNG: indexed-colour while it is
// indexed, truecolour through image/png once it is not; the decoded
// pixels are the framebuffer's either way. The indexed image is
// written here — signature, IHDR, PLTE, the rows unfiltered at 1, 2, 4
// or 8 bits a pixel by palette size (the depth and colour type
// image/png would choose), IDAT, IEND — from the scanlines' runs. Each
// scanline is cut in two at split, the first byte boundary past every
// head: its head part, packed for every scanline, and its tail, its
// shared runs alone, packed once for the scanlines that share them.
// rowDeflater tokenizes those byte runs, with the row above and a run
// as its only matches: a tail shared with the scanline above is one
// match, and a scanline equal to the one above is not read, so the
// work follows the runs and the distinct scanlines, not the pixels.
//
// A Timeline tile nothing has been drawn into since, whose labels fit
// the gutter, has its shape's label gutter: its heads are not packed or
// tokenized here, but read from the gutter's code for the tile's bit
// depth and the wire numbers of Background and TextColor, up to where a
// token's search reaches the plot; tokenizing goes on from there. The
// first such encode of a shape and numbering packs and tokenizes every
// head, and records the code as it goes. Where the gutter does not
// apply — an overlay, annotations, a label overhanging the gutter, any
// other picture — every head is packed and tokenized, to the same
// bytes.
//
// The palette is renumbered on the way out, in order of first
// appearance in the pixels and without the entries no pixel holds any
// more, so the bytes depend on the pixels alone, not on the order they
// were drawn in. Nothing here writes to fb: encoding twice, or from
// several goroutines, yields the same bytes.
func (fb *Framebuffer) EncodePNG(w io.Writer) error {
	_, _, err := fb.encodePNG(w)
	return err
}

// PNGBytes returns the bytes EncodePNG writes, in a slice of exactly
// their length. An indexed image's is allocated once, when its pixels
// are compressed and so its length known, and is not copied again.
func (fb *Framebuffer) PNGBytes() ([]byte, error) {
	body, _, err := fb.encodePNG(nil)
	return body, err
}

// encodePNG is EncodePNG into w, or where w is nil into the body it
// returns (PNGBytes), returning also how many byte runs the deflater
// tokenized.
func (fb *Framebuffer) encodePNG(w io.Writer) (body []byte, runs int, err error) {
	if fb.truecolour || fb.w == 0 || fb.h == 0 {
		if w != nil {
			return nil, 0, pngEncoder.Encode(w, fb.RGBA())
		}
		var buf bytes.Buffer
		if err := pngEncoder.Encode(&buf, fb.RGBA()); err != nil {
			return nil, 0, err
		}
		body = make([]byte, buf.Len())
		copy(body, buf.Bytes())
		return body, 0, nil
	}
	// hs and ts hold a scanline's runs either side of split: at most
	// one a column, and past every cut at most its tail's runs and the
	// gaps around them.
	split, most := 0, 0
	for _, l := range fb.lines {
		split, most = max(split, int(l.cut)), max(most, 2*len(l.tail)+1)
	}
	split = min(fb.w, (split+7)&^7)
	scratch := make([]pixelRun, split+most)
	hs, ts := scratch[:0:split], scratch[split:split]
	// A tile whose heads are still its label gutter's is encoded with
	// what the gutter's code holds of them.
	gt := fb.gutter
	if gt != nil && split != gt.g.gutter {
		gt = nil
	}

	// remap[i] is palette entry i's number on the wire; plte collects
	// the entries in that order. The bytes an encode writes from are
	// one allocation: plte, the chunk writer's 21 and the IDAT buffer,
	// which has room past idatSize for the last bits and the checksum.
	out := make([]byte, 3*len(fb.pal)+21+idatSize+8)
	var (
		remap [256]uint8
		seen  [256]bool
		plte  = out[: 0 : 3*len(fb.pal)]
	)
	for y := 0; y < fb.h && len(plte) < 3*len(fb.pal); y++ {
		hs = fb.runs(hs[:0], &fb.lines[y], 0, int32(split))
		if y == 0 || !sameTail(fb.lines[y].tail, fb.lines[y-1].tail) {
			ts = fb.runs(ts[:0], &fb.lines[y], int32(split), int32(fb.w))
		}
		for _, rs := range [2][]pixelRun{hs, ts} {
			for _, r := range rs {
				if !seen[r.p] {
					seen[r.p], remap[r.p] = true, uint8(len(plte)/3)
					c := fb.pal[r.p]
					plte = append(plte, c.R, c.G, c.B)
				}
			}
		}
	}
	depth, shift := 8, uint(0) // 1<<shift pixels a byte
	switch n := len(plte) / 3; {
	case n <= 2:
		depth, shift = 1, 3
	case n <= 4:
		depth, shift = 2, 2
	case n <= 16:
		depth, shift = 4, 1
	}
	out = out[3*len(fb.pal):]
	d := rowDeflater{e: chunkWriter{w: w, buf: out[:21], ihdr: out[8:21], plte: plte}, n: 1 + (fb.w*depth+7)/8}
	e := &d.e
	binary.BigEndian.PutUint32(e.ihdr[0:], uint32(fb.w))
	binary.BigEndian.PutUint32(e.ihdr[4:], uint32(fb.h))
	e.ihdr[8], e.ihdr[9] = uint8(depth), 3 // indexed colour; deflate, filter method 0, no interlace

	// One scanline on the wire: filter type 0, then the pixels packed
	// most significant bits first, the last byte padded with zero bits.
	// Its head is packed into one of two buffers and its tail into one
	// of two slots, each the one the scanline above does not hold; a
	// tail is packed only where it differs from the one above, a key
	// apart. With a gutter code, a head is the code's, and its tokens
	// up to where they reach the tail are too.
	hn := 1 + (split*depth+7)/8 // a head's bytes, so its most runs
	tn := d.n - hn + 1
	// gc is the code the heads are read from; else rec is the one this
	// encode records, the first of its kind, which the deflater's row
	// above must reach.
	var gc, rec *gutterCode
	if gt != nil {
		gc = gt.code(uint(depth), remap[0], remap[1])
		if gc == nil && d.n >= minMatch && d.n <= window {
			rec = gt.newCode(uint(depth), remap[0], remap[1], hn)
		}
	}
	buf := make([]byteRun, 2*(hn+tn))
	heads := [2][]byteRun{buf[:0:hn], buf[hn : hn : 2*hn]}
	var tails [2]part
	tails[0].runs, tails[1].runs = buf[2*hn:2*hn:2*hn+tn], buf[2*hn+tn:2*hn+tn]
	pk := packer{shift: shift, depth: uint(depth), fill: uint8(0xff / (1<<depth - 1)), remap: remap}
	d.start(out[21:21])
	var cur, above scanline
	hi, slot := 0, 1
	for y := 0; y < fb.h; y++ {
		cur.key = above.key
		if y > 0 && !sameTail(fb.lines[y].tail, fb.lines[y-1].tail) {
			cur.key++
		}
		var same bool
		if gc != nil {
			cur.head, same = gc.head(y), gc.lines[y].same
		} else {
			hs = fb.runs(hs[:0], &fb.lines[y], 0, int32(split))
			cur.head = pk.part(heads[hi], hs, true)
			same = slices.Equal(cur.head.runs, above.head.runs)
			if rec != nil {
				rec.addHead(y, cur.head, y > 0 && same)
			}
		}
		if y > 0 && cur.key == above.key && same {
			d.repeat(&above)
			continue
		}
		hi ^= 1
		if y == 0 || cur.key != above.key {
			slot ^= 1
			ts = fb.runs(ts[:0], &fb.lines[y], int32(split), int32(fb.w))
			tails[slot] = pk.part(tails[slot].runs, ts, false)
		}
		cur.tail = tails[slot]
		up := &above
		if y == 0 {
			up = nil
		}
		switch {
		case gc != nil:
			d.resume(&cur, up, gc.tokens(y), gc.lines[y].at)
		case rec != nil && d.ntoks+hn < maxBlockTokens:
			// The head's tokens up to the mark, fewer than its bytes,
			// are recorded from the block, which they do not fill. A
			// scanline repeated, or tokenized near a block's end,
			// records none: resumed from the zero mark, it is
			// tokenized whole.
			d.fold(&cur)
			n := d.ntoks
			at := d.tokens(&cur, up, mark{}, true)
			rec.addTokens(y, d.toks[n:d.ntoks], at)
			d.tokens(&cur, up, at, false)
		default:
			d.line(&cur, up)
		}
		above = cur
	}
	if rec != nil {
		gt.keepCode(rec)
	}
	d.finish()
	return e.body, d.runs, e.err
}

// sameTail reports whether two scanlines share their tails: both have
// none left, or both end in the same run. Past both cuts they show
// the same pixels.
func sameTail(a, b []pixelRun) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	return &a[len(a)-1] == &b[len(b)-1]
}

// pngSignature is the first 8 bytes of every PNG.
var pngSignature = []byte("\x89PNG\r\n\x1a\n")

// chunkWriter writes PNG chunks to w, or where w is nil appends them to
// body, and keeps the first error. A chunk's length and name, then its
// CRC, are written from buf's first 8 bytes, so an encode allocates
// them once; IHDR's data follows them. buf is 21 bytes.
//
// The signature, IHDR and PLTE wait, their data in ihdr and plte, until
// the first IDAT chunk, and the last IDAT chunk goes out with IEND
// (end). So a PNG whose compressed pixels fit one IDAT chunk, as most
// tiles' do, has nothing in body before end, which allocates body at
// the PNG's length; a longer one's body grows as its IDAT chunks come
// and is copied once, at end, into one of its length.
type chunkWriter struct {
	w          io.Writer
	body       []byte
	err        error
	buf        []byte
	ihdr, plte []byte
}

func (e *chunkWriter) write(b []byte) {
	switch {
	case e.err != nil:
	case e.w == nil:
		e.body = append(e.body, b...)
	default:
		_, e.err = e.w.Write(b)
	}
}

// idat writes one IDAT chunk, after the chunks that wait for the first.
func (e *chunkWriter) idat(data []byte) {
	if e.ihdr != nil {
		e.write(pngSignature)
		e.chunk("IHDR", e.ihdr)
		e.chunk("PLTE", e.plte)
		e.ihdr = nil
	}
	e.chunk("IDAT", data)
}

// end writes the last IDAT chunk and IEND; into body, after making
// body's room exactly what they and any chunks still waiting take.
func (e *chunkWriter) end(data []byte) {
	if e.w == nil {
		n := len(e.body) + chunkBytes(data) + chunkBytes(nil)
		if e.ihdr != nil {
			n += len(pngSignature) + chunkBytes(e.ihdr) + chunkBytes(e.plte)
		}
		body := make([]byte, len(e.body), n)
		copy(body, e.body)
		e.body = body
	}
	e.idat(data)
	e.chunk("IEND", nil)
}

// chunkBytes is the length of a chunk of data on the wire: length,
// name, data and CRC.
func chunkBytes(data []byte) int { return 12 + len(data) }

// chunk writes one chunk: length, name, data, and the CRC of name and
// data.
func (e *chunkWriter) chunk(name string, data []byte) {
	head := e.buf[:8]
	binary.BigEndian.PutUint32(head[:4], uint32(len(data)))
	copy(head[4:], name)
	crc := crc32.Update(crc32.ChecksumIEEE(head[4:]), crc32.IEEETable, data)
	e.write(head)
	e.write(data)
	e.write(binary.BigEndian.AppendUint32(head[:0], crc))
}

// WritePNG writes the framebuffer to a PNG file.
func (fb *Framebuffer) WritePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fb.EncodePNG(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WritePPM writes the framebuffer as a binary PPM (P6) image — a
// dependency-free format convenient for golden tests.
func (fb *Framebuffer) WritePPM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", fb.W(), fb.H()); err != nil {
		return err
	}
	buf := make([]byte, 0, fb.W()*3)
	var rs []pixelRun
	for y := 0; y < fb.H(); y++ {
		buf, rs = buf[:0], fb.runs(rs[:0], &fb.lines[y], 0, int32(fb.w))
		for _, r := range rs {
			for range int(r.x1 - r.x0) {
				buf = append(buf, r.c.R, r.c.G, r.c.B)
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func clipRect(x0, y0, x1, y1, w, h int) (int, int, int, int) {
	return max(x0, 0), max(y0, 0), min(x1, w), min(y1, h)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

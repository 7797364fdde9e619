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
// unchanged by this substitution. A timeline leaves Timeline as its
// rows' runs and labels, unpainted; the first drawing call on it (a
// counter overlay, an annotation) paints it. Everything else draws on
// an indexed-colour framebuffer — one palette byte per pixel — that
// turns into a truecolour image the moment a 257th or a translucent
// colour is drawn. The pixels read back the same every way. An
// indexed image is encoded from runs: a kept tile's as they are, a
// painted one's scanned off its distinct scanlines, packed into runs of
// bytes and deflated by this package's own compressor (deflate.go),
// one tokenizer over runs whose only matches are the row above and a
// run, so encoding costs what the runs and the distinct scanlines
// cost; what it writes decodes to the framebuffer's pixels, and is not
// image/png's bytes.
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
	"os"
)

// Framebuffer is an image with drawing-operation accounting, used to
// verify the rectangle aggregation optimization. It holds one palette
// index per pixel for as long as at most 256 colours, all opaque, have
// been drawn since the last Clear — every timeline mode, plots, an
// ordinary matrix — and an *image.RGBA from the first colour that does
// not fit, for good. FillRect and set are the only two places that
// know which; every other primitive draws through them. A framebuffer
// from Timeline holds a tile instead, until Clear, FillRect or set
// first touches it.
type Framebuffer struct {
	w, h int
	// pix holds w*h indices into pal, row by row; nil once rgba is set.
	pix []uint8
	pal []color.RGBA
	// The palette's lookup table, open-addressed: 512 slots for at most
	// 256 keys, so load stays at or below one half. A key is the
	// colour's four bytes; an opaque colour's is never 0, which marks
	// an empty slot. Colours arrive in long runs, so the last one is
	// remembered (last == 0: none yet) and costs one compare.
	keys    [palSlots]uint32
	vals    [palSlots]uint8
	last    uint32
	lastIdx uint8
	// rgba replaces pix and pal after the conversion.
	rgba *image.RGBA
	// tile, while it holds rows, is the picture instead of pix: a
	// timeline as Timeline leaves it, which the first drawing call
	// paints (paint) and EncodePNG reads as it is.
	tile tile
	// Ops counts drawing calls (rectangle fills, lines, glyphs).
	Ops int
}

const palSlots = 512

// NewFramebuffer allocates a w x h framebuffer cleared to the
// background color.
func NewFramebuffer(w, h int) *Framebuffer {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("render: negative framebuffer size %dx%d", w, h))
	}
	fb := &Framebuffer{w: w, h: h, pix: make([]uint8, w*h)}
	fb.Clear(Background)
	fb.Ops = 0
	return fb
}

// W returns the width in pixels.
func (fb *Framebuffer) W() int { return fb.w }

// H returns the height in pixels.
func (fb *Framebuffer) H() int { return fb.h }

// Clear fills the whole framebuffer. Nothing drawn before survives it,
// so an opaque clear of an indexed framebuffer starts the palette over
// with c as its only entry.
func (fb *Framebuffer) Clear(c color.RGBA) {
	if fb.tile.rows != nil {
		fb.paint()
	}
	if fb.rgba == nil && c.A == 0xff {
		fb.pal = fb.pal[:0]
		fb.keys = [palSlots]uint32{}
		fb.last = 0
	}
	fb.FillRect(0, 0, fb.w, fb.h, c)
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

// truecolour converts the framebuffer to an RGBA image holding the
// pixels drawn so far, and gives up the indices and the palette.
func (fb *Framebuffer) truecolour() {
	fb.rgba = fb.RGBA()
	fb.pix, fb.pal = nil, nil
}

// RGBA returns a copy of the framebuffer as an RGBA image.
func (fb *Framebuffer) RGBA() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, fb.w, fb.h))
	if fb.rgba != nil {
		copy(img.Pix, fb.rgba.Pix)
		return img
	}
	if fb.tile.rows != nil {
		painted := Framebuffer{w: fb.w, h: fb.h, tile: fb.tile}
		painted.paint()
		return painted.RGBA()
	}
	for i, p := range fb.pix {
		c := fb.pal[p]
		px := img.Pix[4*i : 4*i+4 : 4*i+4]
		px[0], px[1], px[2], px[3] = c.R, c.G, c.B, c.A
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
	if fb.tile.rows != nil {
		fb.paint()
	}
	if fb.rgba == nil {
		if idx, ok := fb.index(c); ok {
			first := fb.pix[y0*fb.w+x0 : y0*fb.w+x1]
			for i := range first {
				first[i] = idx
			}
			for yy := y0 + 1; yy < y1; yy++ {
				copy(fb.pix[yy*fb.w+x0:yy*fb.w+x1], first)
			}
			return
		}
		fb.truecolour()
	}
	for yy := y0; yy < y1; yy++ {
		row := fb.rgba.Pix[yy*fb.rgba.Stride+4*x0 : yy*fb.rgba.Stride+4*x1]
		for i := 0; i < len(row); i += 4 {
			row[i] = c.R
			row[i+1] = c.G
			row[i+2] = c.B
			row[i+3] = c.A
		}
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
	if fb.tile.rows != nil {
		fb.paint()
	}
	if fb.rgba == nil {
		if idx, ok := fb.index(c); ok {
			fb.pix[y*fb.w+x] = idx
			return
		}
		fb.truecolour()
	}
	fb.rgba.SetRGBA(x, y, c)
}

// At returns the pixel color at (x, y), the zero color outside the
// framebuffer.
func (fb *Framebuffer) At(x, y int) color.RGBA {
	if x < 0 || y < 0 || x >= fb.w || y >= fb.h {
		return color.RGBA{}
	}
	if fb.rgba != nil {
		return fb.rgba.RGBAAt(x, y)
	}
	if fb.tile.rows != nil {
		return fb.pal[fb.tile.at(x, y)]
	}
	return fb.pal[fb.pix[y*fb.w+x]]
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
// image/png would choose), IDAT, IEND — and its input is runs: a kept
// timeline tile's rows of runs as they are, a painted picture's runs
// scanned off its pixels once per scanline that differs from the one
// above. The runs are packed into runs of bytes, and rowDeflater
// tokenizes those, with the row above and a run as its only matches:
// a scanline's part shared with the scanline above is one match, and
// a scanline equal to the one above is neither packed nor read, so
// the work follows the runs and the distinct scanlines, not the
// pixels.
//
// The palette is renumbered on the way out, in order of first
// appearance in the pixels and without the entries no pixel holds any
// more, so the bytes depend on the pixels alone, not on the order they
// were drawn in, nor on whether a tile was painted. Nothing here
// writes to fb: encoding twice, or from several goroutines, yields the
// same bytes.
func (fb *Framebuffer) EncodePNG(w io.Writer) error {
	_, err := fb.encodePNG(w)
	return err
}

// encodePNG is EncodePNG, returning also how many byte runs the
// deflater tokenized.
func (fb *Framebuffer) encodePNG(w io.Writer) (runs int, err error) {
	if fb.rgba != nil {
		return 0, pngEncoder.Encode(w, fb.rgba)
	}
	if fb.w == 0 || fb.h == 0 {
		return 0, pngEncoder.Encode(w, fb.RGBA())
	}

	// A scanline is read as its head, columns [0, split), and its tail,
	// the runs of the tile row it shows from split on (key: the row).
	// A painted picture's scanline is all head.
	split, off := fb.w, fb.tile.g.gutter
	if fb.tile.rows != nil {
		split = fb.tile.split
	}
	start := lines{fb: fb, head: make([]pixelRun, 0, split), key: -2}
	if fb.tile.rows != nil {
		px := make([]uint8, 2*split)
		start.px, start.prev = px[:split:split], px[split:]
	}

	// remap[i] is palette entry i's number on the wire; plte collects
	// the entries in that order.
	var (
		remap [256]uint8
		seen  [256]bool
		plte  = make([]byte, 0, 3*len(fb.pal))
	)
	appear := func(p uint8) {
		if !seen[p] {
			seen[p], remap[p] = true, uint8(len(plte)/3)
			c := fb.pal[p]
			plte = append(plte, c.R, c.G, c.B)
		}
	}
	l := start
	for y := 0; y < fb.h && len(plte) < 3*len(fb.pal); y++ {
		key := l.key
		if l.next(y) {
			continue
		}
		for _, r := range l.head {
			appear(r.p)
		}
		if l.key == key {
			continue
		}
		// The tail: its runs shifted by off, the background between.
		x := split
		for _, r := range l.tail {
			if r.x1+off > x {
				if r.x0+off > x {
					appear(0)
				}
				appear(r.p)
				x = r.x1 + off
			}
		}
		if x < fb.w {
			appear(0)
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

	d := rowDeflater{e: chunkWriter{w: w}, n: 1 + (fb.w*depth+7)/8}
	e := &d.e
	e.write([]byte("\x89PNG\r\n\x1a\n"))
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(fb.w))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(fb.h))
	ihdr[8], ihdr[9] = uint8(depth), 3 // indexed colour; deflate, filter method 0, no interlace
	e.chunk("IHDR", ihdr[:])
	e.chunk("PLTE", plte)

	// One scanline on the wire: filter type 0, then the pixels packed
	// most significant bits first, the last byte padded with zero bits.
	// Its head is packed into one of two buffers and its tail into one
	// of two slots, each the one the scanline above does not hold; a
	// slot that holds the tail already is not packed again. The IDAT
	// buffer has room past idatSize for the last bits and the checksum.
	hn := 1 + (split*depth+7)/8 // a head's bytes, so its most runs
	tn := d.n - hn + 1
	buf := make([]byteRun, 2*(hn+tn))
	headBufs := [2][]byteRun{buf[:0:hn], buf[hn : hn : 2*hn]}
	var tails [2]struct {
		part
		key int
	}
	tails[0].runs, tails[1].runs, tails[0].key, tails[1].key = buf[2*hn:2*hn:2*hn+tn], buf[2*hn+tn:2*hn+tn], -2, -2
	pk := packer{shift: shift, depth: uint(depth), fill: uint8(0xff / (1<<depth - 1)), remap: &remap}
	d.start(make([]byte, 0, idatSize+8))
	var cur, above scanline
	slot, hi := 1, 0
	l = start
	for y := 0; y < fb.h; y++ {
		if l.next(y) {
			d.repeat(&above)
			continue
		}
		cur.head = pk.part(headBufs[hi], l.head, 0, 0, split, true)
		hi ^= 1
		cur.key = l.key
		if tails[1-slot].key == l.key {
			slot = 1 - slot
		} else if tails[slot].key != l.key {
			slot = 1 - slot
			tails[slot].part = pk.part(tails[slot].runs, l.tail, off, split, fb.w, false)
			tails[slot].key = l.key
		}
		cur.tail = tails[slot].part
		if y == 0 {
			d.line(&cur, nil)
		} else {
			d.line(&cur, &above)
		}
		above = cur
	}
	d.finish()
	e.chunk("IEND", nil)
	return d.runs, e.err
}

// lines reads a framebuffer for the encoder a scanline at a time, in
// order from the top: its head, the pixels of columns [0, split) — a
// painted picture's scanline, a tile's gutter and labels, painted
// (tile.head) — scanned into runs of palette entries; and its tail,
// the runs of the tile row it shows, in plot columns, shared by every
// scanline of the same key.
type lines struct {
	fb       *Framebuffer
	px, prev []uint8 // a tile's scanline heads, this one's and the last
	head     []pixelRun
	tail     []pixelRun
	key      int
}

// next reads scanline y and reports whether it equals scanline y-1; if
// so, its head is not scanned.
func (l *lines) next(y int) (same bool) {
	fb, t := l.fb, &l.fb.tile
	var px []uint8
	if t.rows == nil {
		px = fb.pix[y*fb.w : (y+1)*fb.w]
		same = y > 0 && bytes.Equal(px, fb.pix[(y-1)*fb.w:y*fb.w])
		l.key = -1
	} else {
		l.px, l.prev = l.prev, l.px
		px = l.px
		key := t.head(px, y)
		l.tail = nil
		if key >= 0 {
			l.tail = t.rows[key]
		} else {
			key = len(t.rows)
		}
		same = y > 0 && key == l.key && bytes.Equal(px, l.prev)
		l.key = key
	}
	if !same {
		l.head = l.head[:0]
		for x := 0; x < len(px); {
			end := x + 1 + matchLen(px[x+1:], px[x:len(px)-1])
			l.head = append(l.head, pixelRun{x0: x, x1: end, p: px[x]})
			x = end
		}
	}
	return same
}

// chunkWriter writes PNG chunks and keeps the first error.
type chunkWriter struct {
	w   io.Writer
	err error
}

func (e *chunkWriter) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// chunk writes one chunk: length, name, data, and the CRC of name and
// data.
func (e *chunkWriter) chunk(name string, data []byte) {
	var head [8]byte
	binary.BigEndian.PutUint32(head[:4], uint32(len(data)))
	copy(head[4:], name)
	crc := crc32.Update(crc32.ChecksumIEEE(head[4:]), crc32.IEEETable, data)
	e.write(head[:])
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
	for y := 0; y < fb.H(); y++ {
		buf = buf[:0]
		for x := 0; x < fb.W(); x++ {
			c := fb.At(x, y)
			buf = append(buf, c.R, c.G, c.B)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func clipRect(x0, y0, x1, y1, w, h int) (int, int, int, int) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > w {
		x1 = w
	}
	if y1 > h {
		y1 = h
	}
	return x0, y0, x1, y1
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

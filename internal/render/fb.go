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
// unchanged by this substitution. Drawing goes to an RGBA framebuffer;
// EncodePNG writes it as an indexed-colour PNG when it holds at most
// 256 opaque colours and as a truecolour one otherwise, with identical
// pixels either way.
package render

import (
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"os"
)

// Framebuffer is an RGBA image with drawing-operation accounting, used
// to verify the rectangle aggregation optimization.
type Framebuffer struct {
	Img *image.RGBA
	// Ops counts drawing calls (rectangle fills, lines, glyphs).
	Ops int
}

// NewFramebuffer allocates a w x h framebuffer cleared to the
// background color.
func NewFramebuffer(w, h int) *Framebuffer {
	fb := &Framebuffer{Img: image.NewRGBA(image.Rect(0, 0, w, h))}
	fb.Clear(Background)
	fb.Ops = 0
	return fb
}

// W returns the width in pixels.
func (fb *Framebuffer) W() int { return fb.Img.Rect.Dx() }

// H returns the height in pixels.
func (fb *Framebuffer) H() int { return fb.Img.Rect.Dy() }

// Clear fills the whole framebuffer.
func (fb *Framebuffer) Clear(c color.RGBA) {
	fb.FillRect(0, 0, fb.W(), fb.H(), c)
}

// FillRect fills the rectangle [x, x+w) x [y, y+h), clipped to the
// framebuffer.
func (fb *Framebuffer) FillRect(x, y, w, h int, c color.RGBA) {
	if w <= 0 || h <= 0 {
		return
	}
	x0, y0, x1, y1 := clipRect(x, y, x+w, y+h, fb.W(), fb.H())
	if x0 >= x1 || y0 >= y1 {
		return
	}
	fb.Ops++
	for yy := y0; yy < y1; yy++ {
		row := fb.Img.Pix[yy*fb.Img.Stride+4*x0 : yy*fb.Img.Stride+4*x1]
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
	if x < 0 || y < 0 || x >= fb.W() || y >= fb.H() {
		return
	}
	fb.Img.SetRGBA(x, y, c)
}

// At returns the pixel color at (x, y).
func (fb *Framebuffer) At(x, y int) color.RGBA {
	return fb.Img.RGBAAt(x, y)
}

// pngEncoder is the one encoder configuration every PNG leaves through.
// BestSpeed, because a tile is waited for and is small at any level:
// on a 900x380 indexed timeline the default level takes a quarter
// longer (4.6 ms against 3.6) to turn 4.8 kB into 2.6. It holds no
// buffer pool, so it carries nothing from one Encode to the next and
// is safe to share.
var pngEncoder = png.Encoder{CompressionLevel: png.BestSpeed}

// EncodePNG writes the framebuffer as PNG: indexed-colour when it
// holds at most 256 colours, all opaque (every timeline mode, plots,
// an ordinary matrix), truecolour otherwise. The decoded pixels equal
// Img's either way; only the bytes differ. One byte per pixel (four
// bits up to 16 colours) instead of four spares the encoder its
// per-row filter search and three quarters of the deflate input. The
// output depends on the pixels alone: encoding twice, or from several
// goroutines, yields the same bytes.
func (fb *Framebuffer) EncodePNG(w io.Writer) error {
	if p := palettise(fb.Img); p != nil {
		return pngEncoder.Encode(w, p)
	}
	return pngEncoder.Encode(w, fb.Img)
}

// palettise returns img as an indexed-colour image with the palette in
// order of first appearance, or nil when img has more than 256 colours
// or one that is not opaque. Pixels arrive in long runs, so the last
// colour is remembered and a run costs one compare per pixel; a colour
// change is a probe of a small open-addressed table on the stack.
func palettise(img *image.RGBA) *image.Paletted {
	// 512 slots for at most 256 keys: load stays at or below one half.
	// A key is the pixel's four bytes; an opaque pixel's is never 0,
	// which marks an empty slot.
	const slots = 512
	w, h := img.Rect.Dx(), img.Rect.Dy()
	if w == 0 || h == 0 {
		return nil // the encoder rejects it by name
	}
	var (
		keys [slots]uint32
		vals [slots]uint8
		pal  = make(color.Palette, 0, 16)
		// Unequal to the first pixel, which is therefore looked up.
		last = ^binary.LittleEndian.Uint32(img.Pix)
		cur  uint8
	)
	p := image.NewPaletted(img.Rect, nil)
	for y := 0; y < h; y++ {
		row := img.Pix[y*img.Stride:][:4*w]
		out := p.Pix[y*p.Stride:][:w]
		for x := range out {
			k := binary.LittleEndian.Uint32(row[4*x:])
			if k != last {
				if k>>24 != 0xff {
					return nil
				}
				s := (k * 0x9e3779b1) >> (32 - 9)
				for keys[s] != k {
					if keys[s] == 0 {
						if len(pal) == 256 {
							return nil
						}
						keys[s], vals[s] = k, uint8(len(pal))
						pal = append(pal, color.RGBA{R: uint8(k), G: uint8(k >> 8), B: uint8(k >> 16), A: 0xff})
						break
					}
					s = (s + 1) % slots
				}
				last, cur = k, vals[s]
			}
			out[x] = cur
		}
	}
	p.Palette = pal
	return p
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

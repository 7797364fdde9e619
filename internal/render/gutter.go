package render

import (
	"slices"
	"sync"
	"unsafe"
)

// A label gutter is what the CPU labels make of a Timeline tile's
// columns left of its plot: the same on every tile of one shape — its
// size, its row geometry and the labelled rows' CPU ids — whatever the
// window, the mode or the filter. The first tile of a shape draws its
// labels and keeps a copy of the label scanlines' heads as the shape's
// gutter; the next ones copy those heads instead of drawing (newTile).
// Per bit depth and wire indices of Background and TextColor, the first
// encode that finds none records a code from its own work: every
// scanline's head packed, and its tokens up to the first whose search
// reaches past the head (gutterCode); the next encodes read them. A
// tile whose labels overhang the gutter (CPU ids of more than four
// digits) keeps no gutter, and a tile drawn into after Timeline (an
// overlay, annotations) is encoded without one.

// gutterCache holds the gutters of the last few tile shapes, most
// recently used first. An entry, and each of its codes, is immutable
// once published; the list, each gutter's codes and bytes are guarded
// by the cache's mutex.
var gutterCache struct {
	sync.Mutex
	list []*gutter
}

const (
	// maxGutters bounds the shapes held, and maxGutterBytes what they
	// hold in all: past either, the least recently used shapes go, and
	// past the bytes with one shape left, its least recently used codes.
	// A 1000x400 tile's shape, its gutter and three codes, holds about
	// 230 KB; the viewer asks two shapes a view (the coarse tile and the
	// exact one), and a hub or a cpus= subset more: 16 shapes of that
	// size fit.
	maxGutters     = 16
	maxGutterBytes = 4 << 20
)

// gutter is the label gutter of one tile shape.
type gutter struct {
	// The key: the tile's size, its row geometry and the CPU ids of its
	// labelled rows, in row order.
	w, h int
	g    rowGeometry
	ids  []int32
	// runs holds the label scanlines' heads over [0, g.gutter):
	// scanline y's is runs[at[y]:at[y+1]], empty where no label reaches.
	// Background is palette entry 0 and TextColor 1.
	runs []pixelRun
	at   []int32
	// ops counts the labels' glyphs.
	ops int
	// codes is most recently used first; bytes counts what the gutter
	// and its codes hold.
	codes []*gutterCode
	bytes int
}

// gutterCode is what encodePNG derives from a gutter's heads at one bit
// depth, Background and TextColor numbered bg and text on the wire:
// each scanline's head packed, and its tokens up to the first whose
// search reaches past the head.
type gutterCode struct {
	depth    uint
	bg, text uint8
	hn       int // a head's bytes
	runs     []byteRun
	toks     []uint32
	lines    []codeLine
	bytes    int // what the code holds
}

// codeLine is one scanline of a gutterCode: where its head's runs and
// its tokens end in the code's, its head's Adler-32 sums, whether its
// head equals the one above, and where tokenizing resumes.
type codeLine struct {
	runs, toks int32
	a, b       uint32
	same       bool
	at         mark
}

// gutterOf returns the gutter of a w x h tile of geometry g whose rows
// are labelled with labels, or else the one build makes (nil where a
// label overhangs the gutter, and then not kept). drew reports whether
// build ran.
func gutterOf(w, h int, g rowGeometry, labels []int32, build func() *gutter) (gt *gutter, drew bool) {
	match := func(gt *gutter) bool { return gt.fits(w, h, g, labels) }
	if gt = find(&gutterCache.list, match); gt != nil {
		return gt, false
	}
	if gt = build(); gt != nil {
		gt = keep(&gutterCache.list, gt, match, func(*gutter) {})
	}
	return gt, true
}

// code returns gt's code at bit depth depth, Background and TextColor
// numbered bg and text on the wire; nil until an encode has recorded
// it (newCode, keepCode).
func (gt *gutter) code(depth uint, bg, text uint8) *gutterCode {
	return find(&gt.codes, func(gc *gutterCode) bool { return gc.is(depth, bg, text) })
}

// is reports whether gc is the code at bit depth depth, Background and
// TextColor numbered bg and text.
func (gc *gutterCode) is(depth uint, bg, text uint8) bool {
	return gc.depth == depth && gc.bg == bg && gc.text == text
}

// find returns the entry of *list that match accepts, moved to the
// front; nil if none does.
func find[E any](list *[]*E, match func(*E) bool) *E {
	gutterCache.Lock()
	defer gutterCache.Unlock()
	return lookup(*list, match)
}

// keep puts e, built unlocked, in front of *list and tells kept, unless
// an entry match accepts was kept first, which it returns instead; the
// cache then evicts what is over its bounds.
func keep[E any](list *[]*E, e *E, match func(*E) bool, kept func(*E)) *E {
	gutterCache.Lock()
	defer gutterCache.Unlock()
	if old := lookup(*list, match); old != nil {
		return old
	}
	*list = slices.Insert(*list, 0, e)
	kept(e)
	evictGutters()
	return e
}

// evictGutters drops the least recently used shapes while the cache
// holds more than maxGutters or, with more than one, more than
// maxGutterBytes; then the least recently used codes but one of the
// shape left while it holds more than maxGutterBytes. The caller holds
// gutterCache's mutex.
func evictGutters() {
	c := &gutterCache
	total := 0
	for _, gt := range c.list {
		total += gt.bytes
	}
	for n := len(c.list); n > 1 && (n > maxGutters || total > maxGutterBytes); n-- {
		total -= c.list[n-1].bytes
		c.list[n-1], c.list = nil, c.list[:n-1]
	}
	if gt := c.list[0]; total > maxGutterBytes {
		for n := len(gt.codes); n > 1 && gt.bytes > maxGutterBytes; n-- {
			gt.bytes -= gt.codes[n-1].bytes
			gt.codes[n-1], gt.codes = nil, gt.codes[:n-1]
		}
	}
}

// lookup returns the entry of list that match accepts, moved to the
// front; nil if none does.
func lookup[E any](list []*E, match func(*E) bool) *E {
	for i, e := range list {
		if match(e) {
			copy(list[1:i+1], list[:i])
			list[0] = e
			return e
		}
	}
	return nil
}

// fits reports whether gt is the gutter of a w x h tile of geometry g
// whose rows are labelled with labels.
func (gt *gutter) fits(w, h int, g rowGeometry, labels []int32) bool {
	if gt.w != w || gt.h != h || gt.g != g {
		return false
	}
	k := 0
	for row := range g.visible {
		if g.labeled(row) {
			if k == len(gt.ids) || gt.ids[k] != labels[row] {
				return false
			}
			k++
		}
	}
	return k == len(gt.ids)
}

// newGutter returns the gutter of fb, a tile of geometry g whose rows
// are labelled with labels, just drawn with ops operations: a copy of
// its label scanlines' heads. nil where a label overhangs the gutter.
func (fb *Framebuffer) newGutter(g rowGeometry, labels []int32, ops int) *gutter {
	var text [24]byte
	key := make([]int32, g.visible+fb.h+1)
	gt := &gutter{w: fb.w, h: fb.h, g: g, ids: key[:0:g.visible], ops: ops, at: key[g.visible:]}
	for row := range g.visible {
		if g.labeled(row) {
			if len(labelText(text[:0], labels[row]))*GlyphWidth > g.gutter {
				return nil
			}
			gt.ids = append(gt.ids, labels[row])
		}
	}
	n := 0
	for y, l := range fb.lines {
		n += len(l.head)
		gt.at[y+1] = int32(n)
	}
	gt.runs = make([]pixelRun, 0, n)
	for _, l := range fb.lines {
		gt.runs = append(gt.runs, l.head...)
	}
	gt.bytes = int(unsafe.Sizeof(*gt)) + len(key)*int(unsafe.Sizeof(int32(0))) + n*int(unsafe.Sizeof(pixelRun{}))
	return gt
}

// copyHeads gives fb, a tile of gt's shape without heads, a copy of gt's
// heads, one allocation beside its arena, and counts its labels'
// glyphs.
func (fb *Framebuffer) copyHeads(gt *gutter) {
	runs := slices.Clone(gt.runs)
	fb.Ops += gt.ops
	for y := range fb.lines {
		if lo, hi := gt.at[y], gt.at[y+1]; lo < hi {
			fb.lines[y].head, fb.lines[y].cut = runs[lo:hi:hi], runs[hi-1].x1
		}
	}
}

// newCode returns an empty code of gt at bit depth depth, Background
// and TextColor numbered bg and text, heads of hn bytes, for an encode
// to record (addHead, addTokens) and keep (keepCode).
func (gt *gutter) newCode(depth uint, bg, text uint8, hn int) *gutterCode {
	// A head packs into about a byte run a pixel run, the filter byte
	// and the last bits, and is tokenized in about a token a run.
	return &gutterCode{depth: depth, bg: bg, text: text, hn: hn,
		runs: make([]byteRun, 0, len(gt.runs)+2*gt.h), toks: make([]uint32, 0, len(gt.runs)+gt.h),
		lines: make([]codeLine, gt.h)}
}

// addHead records scanline y's head, packed, and whether it equals the
// head above. Its tokens are none until addTokens.
func (gc *gutterCode) addHead(y int, p part, same bool) {
	gc.runs = append(gc.runs, p.runs...)
	gc.lines[y] = codeLine{runs: int32(len(gc.runs)), toks: int32(len(gc.toks)), a: p.a, b: p.b, same: same}
}

// addTokens records the tokens of scanline y's head up to the first
// whose search reads past it, and m, where they stop.
func (gc *gutterCode) addTokens(y int, toks []uint32, m mark) {
	gc.toks = append(gc.toks, toks...)
	gc.lines[y].toks, gc.lines[y].at = int32(len(gc.toks)), m
}

// keepCode puts gc, recorded by an encode, in gt's codes, unless an
// encode kept the same code first.
func (gt *gutter) keepCode(gc *gutterCode) {
	gc.bytes = int(unsafe.Sizeof(*gc)) + cap(gc.runs)*int(unsafe.Sizeof(byteRun{})) +
		cap(gc.toks)*int(unsafe.Sizeof(uint32(0))) + len(gc.lines)*int(unsafe.Sizeof(codeLine{}))
	keep(&gt.codes, gc, func(old *gutterCode) bool { return old.is(gc.depth, gc.bg, gc.text) },
		func(gc *gutterCode) { gt.bytes += gc.bytes })
}

// start returns where scanline y's head starts in gc's runs.
func (gc *gutterCode) start(y int) int32 {
	if y == 0 {
		return 0
	}
	return gc.lines[y-1].runs
}

// head returns scanline y's head as a part.
func (gc *gutterCode) head(y int) part {
	l := &gc.lines[y]
	return part{runs: gc.runs[gc.start(y):l.runs:l.runs], a: l.a, b: l.b, n: gc.hn}
}

// tokens returns the tokens cached for scanline y.
func (gc *gutterCode) tokens(y int) []uint32 {
	lo := int32(0)
	if y > 0 {
		lo = gc.lines[y-1].toks
	}
	return gc.toks[lo:gc.lines[y].toks]
}

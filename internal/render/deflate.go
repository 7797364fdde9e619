package render

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// The indexed PNG's image data is a zlib stream (RFC 1950) around a
// deflate stream (RFC 1951), written by rowDeflater. A general
// compressor hashes every byte to find its matches; a picture drawn in
// rectangles has two kinds worth finding, and both are known without
// a search: the row above, at a distance of one scanline, and a run of
// the byte before, at a distance of 1. A scanline comes as runs of
// bytes, and is tokenized greedily with those two candidates at each
// position, a run at a time: how far either reaches is read off the
// runs, a part shared with the scanline above reaches to its end
// unread, and the checksum of a run is taken in closed form. A
// scanline equal to the one above is all one match. The tokens of a
// block are coded with Huffman tables built from the block's own
// histogram, or with deflate's fixed tables when those cost fewer
// bits.

const (
	minMatch = 3
	maxMatch = 258
	// window is the farthest back a deflate match may reach. A
	// scanline longer than that is coded without the row above.
	window = 1 << 15
	// maxBlockTokens bounds a block: its tokens are held until its
	// tables are built from their histogram.
	maxBlockTokens = 1 << 14
	// idatSize is the size the compressed bytes are collected to
	// before they leave as one IDAT chunk.
	idatSize = 1 << 13

	numLitLen   = 286 // 256 literals, end of block, 29 length codes
	numDist     = 30
	numCodeLen  = 19
	endOfBlock  = 256
	maxCodeBits = 15
	maxCLBits   = 7

	// adlerMod is Adler-32's modulus.
	adlerMod = 65521
)

// A token is a literal byte (below 256) or a match: matchFlag, the
// length less minMatch in bits 15–22 and the distance less 1 in bits
// 0–14.
const matchFlag = 1 << 31

// rowDeflater compresses a PNG's scanlines, filter byte included, into
// IDAT chunks written through e, which also writes the chunks before
// and after them. It holds one block's tokens and the running
// Adler-32; it is meant to live on its caller's stack, so an encode
// allocates nothing for it but out.
type rowDeflater struct {
	e   chunkWriter
	n   int    // the bytes of a scanline
	out []byte // compressed bytes not yet written as IDAT
	acc uint64 // bits not yet in out, the first in the low bit
	nb  uint   // how many bits acc holds, below 32 between writes

	// The Adler-32 of the scanlines so far.
	s1, s2 uint32

	toks     [maxBlockTokens]uint32
	ntoks    int
	litFreq  [numLitLen]uint32
	distFreq [numDist]uint32

	// runs counts the byte runs tokenized.
	runs int
}

// byteRun is n bytes of value b.
type byteRun struct {
	n int32
	b byte
}

// part is a stretch of a scanline as byte runs, with Adler-32's two
// sums over its n bytes taken from zero.
type part struct {
	runs []byteRun
	a, b uint32
	n    int
}

// scanline is one scanline as the deflater reads it: its head, then
// its tail. Scanlines of one key ≥ 0 have equal heads' lengths and one
// tail.
type scanline struct {
	head, tail part
	key        int
}

// start writes the zlib header: deflate with a 32 KiB window, no
// preset dictionary, the fastest level's flag.
func (d *rowDeflater) start(out []byte) {
	d.out = append(out[:0], 0x78, 0x01)
	d.s1, d.s2 = 1, 0
}

// line tokenizes s, the next scanline, and adds it to the checksum.
// above is the scanline before it, or nil for the first.
func (d *rowDeflater) line(s, above *scanline) {
	d.fold(s)
	d.tokens(s, above, mark{}, false)
}

// resume deflates s as line does, where the tokens of its head up to m
// are toks: they go through token one by one, as line would emit them,
// and tokenizing goes on from m.
func (d *rowDeflater) resume(s, above *scanline, toks []uint32, m mark) {
	d.fold(s)
	for _, t := range toks {
		d.token(t)
	}
	d.tokens(s, above, m, false)
}

// mark is where tokenizing stands in a scanline's head: i bytes in; c
// and u, the runs of its head and of the head above left behind (all
// of them once in the tail); cOff and uOff, the bytes read of the next
// run of each; last, the byte before i. A mark is kept for a label
// gutter's heads, a few dozen bytes each, so its fields are 16 bits.
type mark struct {
	i, c, cOff, u, uOff uint16
	last                byte
}

// tokens tokenizes s from m on. At each position the longer of the
// match of the row above and the run of the byte before is taken, the
// row above on a tie, and a literal where neither reaches minMatch.
// With stop, it stops before the first token whose search reads a byte
// past s's head, and returns where: the tokens before it do not depend
// on the tail. It returns the zero mark where it does not stop.
func (d *rowDeflater) tokens(s, above *scanline, m mark, stop bool) mark {
	if d.n < minMatch || d.n > window {
		above = nil
	}
	c, u := resumeAt(&s.head, &s.tail, m.c, m.cOff), cursor{}
	c.last = m.last
	shared := false
	if above != nil {
		u = resumeAt(&above.head, &above.tail, m.u, m.uOff)
		shared = s.key >= 0 && s.key == above.key
	}
	var cc, uu cursor // c and u past the match of the row above
	i := int(m.i)
	for i < d.n {
		if stop && c.inTail {
			return d.markAt(i, s, above, &c, &u)
		}
		v, left := c.runs[0].b, int(c.runs[0].n-c.off)
		best, dist := 0, 0
		if above != nil && u.runs[0].b == v {
			cc, uu = c, u
			best, dist = common(&cc, &uu, shared, d.n-i), d.n
			if stop && cc.inTail {
				return d.markAt(i, s, above, &c, &u)
			}
		}
		if i > 0 && c.last == v {
			l := left
			if len(c.runs) == 1 {
				if stop && !c.inTail {
					return d.markAt(i, s, above, &c, &u)
				}
				l = c.run(v)
			}
			if l > best {
				best, dist = l, 1
			}
		}
		if best < minMatch {
			d.literal(v)
			best, dist = 1, 0
		} else {
			d.match(best, dist)
		}
		i += best
		if dist == d.n {
			c, u = cc, uu
			continue
		}
		if i == d.n {
			break
		}
		switch {
		case best < left:
			c.off += int32(best)
			c.last = v
		case best == left && len(c.runs) > 1:
			c.runs, c.off, c.last = c.runs[1:], 0, v
			c.steps++
		default:
			c.skip(best)
		}
		if above != nil {
			if best < int(u.runs[0].n-u.off) {
				u.off += int32(best)
			} else {
				u.skip(best)
			}
		}
	}
	d.runs += 1 + c.steps
	return mark{}
}

// markAt returns the mark of cursors c over s and u over above, i bytes
// into s, and counts the runs c has left behind.
func (d *rowDeflater) markAt(i int, s, above *scanline, c, u *cursor) mark {
	d.runs += c.steps
	m := mark{i: uint16(i), c: uint16(len(s.head.runs)), last: c.last}
	if !c.inTail {
		m.c, m.cOff = m.c-uint16(len(c.runs)), uint16(c.off)
	}
	if above != nil {
		m.u = uint16(len(above.head.runs))
		if !u.inTail {
			m.u, m.uOff = m.u-uint16(len(u.runs)), uint16(u.off)
		}
	}
	return m
}

// resumeAt returns a cursor over the scanline of head and tail, past k
// runs of head and off bytes of the next.
func resumeAt(head, tail *part, k, off uint16) cursor {
	c := cursor{runs: head.runs[k:], tail: tail.runs, off: int32(off)}
	if len(c.runs) == 0 {
		c.runs, c.inTail = c.tail, true
	}
	return c
}

// repeat deflates a scanline equal to s, the last one deflated: one
// match of the row above, cut into pieces deflate can hold, unless the
// row above is out of reach.
func (d *rowDeflater) repeat(s *scanline) {
	if d.n < minMatch || d.n > window {
		d.line(s, nil)
		return
	}
	d.fold(s)
	d.match(d.n, d.n)
}

// fold adds scanline s to the running checksum, a part at a time: s1
// grows by the part's a, and s2 by n times the old s1 and b.
func (d *rowDeflater) fold(s *scanline) {
	for _, p := range [2]*part{&s.head, &s.tail} {
		d.s2 = uint32((uint64(d.s2) + uint64(p.n%adlerMod)*uint64(d.s1) + uint64(p.b)) % adlerMod)
		d.s1 = (d.s1 + p.a) % adlerMod
	}
}

// cursor reads a scanline's byte runs: runs[0] holds the next byte,
// off of its bytes read, and tail follows runs until it is entered.
type cursor struct {
	runs, tail []byteRun
	off        int32
	inTail     bool
	last       byte // the byte read last
	steps      int  // the runs left behind
}

// skip reads k bytes, which the scanline holds.
func (c *cursor) skip(k int) {
	for k > 0 {
		c.last = c.runs[0].b
		r := int(c.runs[0].n - c.off)
		if k < r {
			c.off += int32(k)
			return
		}
		k -= r
		c.runs, c.off = c.runs[1:], 0
		c.steps++
		if len(c.runs) == 0 && !c.inTail {
			c.runs, c.inTail = c.tail, true
		}
	}
}

// run returns how many bytes from c on are v.
func (c cursor) run(v byte) (n int) {
	for len(c.runs) > 0 && c.runs[0].b == v {
		k := int(c.runs[0].n - c.off)
		n += k
		c.skip(k)
	}
	return n
}

// common returns how many of the next n bytes from c on equal those
// from u on, and leaves both past them. When shared, the two
// scanlines' tails are one, so from where both have entered it the
// rest is equal unread (and c and u are left where they entered it).
func common(c, u *cursor, shared bool, n int) int {
	for m := 0; m < n; {
		if shared && c.inTail && u.inTail {
			return n
		}
		if c.runs[0].b != u.runs[0].b {
			return m
		}
		k := min(int(c.runs[0].n-c.off), int(u.runs[0].n-u.off), n-m)
		m += k
		c.skip(k)
		u.skip(k)
	}
	return n
}

// runSums returns Adler-32's two sums over runs taken from zero, and
// the bytes they hold. n bytes of v add n·v to a, and to b n times a
// and v·n(n+1)/2 — zlib's adler32_combine, for a run. With a reduced,
// a run adds less than 2^16 a byte and 2^24 a run to b, so b holds any
// scanline's (fewer than 2^31 bytes) unreduced.
func runSums(runs []byteRun) (a, b uint32, n int) {
	var sa, sb uint64
	for _, r := range runs {
		k, v := uint64(r.n), uint64(r.b)
		sb += k*sa + v*(k*(k+1)/2%adlerMod)
		sa = (sa + k*v) % adlerMod
		n += int(r.n)
	}
	return uint32(sa), uint32(sb % adlerMod), n
}

// packer packs pixels into byte runs, 1<<shift pixels a byte, most
// significant bits first, numbering each palette entry by remap. A
// byte of pixels of entry p is p times fill.
type packer struct {
	shift, depth uint
	fill         uint8
	remap        [256]uint8
	out          []byteRun
	acc          byte // the byte being filled
	k            uint // the pixels acc holds
}

// part packs runs, which cover a stretch of a scanline, into dst,
// behind a filter byte of 0 when filter is set, the last byte padded
// with zero bits.
func (pk *packer) part(dst []byteRun, runs []pixelRun, filter bool) part {
	pk.out = dst[:0]
	if filter {
		pk.emit(0, 1)
	}
	for _, r := range runs {
		pk.add(int(r.x1-r.x0), r.p)
	}
	if pk.k > 0 {
		pk.emit(pk.acc, 1)
		pk.k = 0
	}
	a, b, n := runSums(pk.out)
	return part{pk.out, a, b, n}
}

// add packs n pixels of palette entry p: into the byte being filled,
// then as whole bytes of p repeated, then into the next byte.
func (pk *packer) add(n int, p uint8) {
	d, per := pk.depth, uint(1)<<pk.shift
	rep := pk.remap[p] * pk.fill
	if per == 1 {
		pk.emit(rep, n)
		return
	}
	if pk.k > 0 {
		t := min(uint(n), per-pk.k)
		pk.acc |= rep & uint8((1<<(t*d)-1)<<(8-(pk.k+t)*d))
		if pk.k += t; pk.k < per {
			return
		}
		pk.emit(pk.acc, 1)
		n -= int(t)
	}
	if whole := n >> pk.shift; whole > 0 {
		pk.emit(rep, whole)
	}
	pk.k = uint(n) & (per - 1)
	pk.acc = rep &^ (0xff >> (pk.k * d))
}

// emit appends n bytes of b, to the last run when it is of b.
func (pk *packer) emit(b byte, n int) {
	if i := len(pk.out) - 1; i >= 0 && pk.out[i].b == b {
		pk.out[i].n += int32(n)
		return
	}
	pk.out = append(pk.out, byteRun{int32(n), b})
}

func (d *rowDeflater) literal(c byte) {
	d.token(uint32(c))
}

// match emits l bytes, at least minMatch, copied from dist back, as
// many matches as it takes, none shorter than minMatch.
func (d *rowDeflater) match(l, dist int) {
	for l > 0 {
		k := l
		switch {
		case l > maxMatch+minMatch || l == maxMatch:
			k = maxMatch
		case l > maxMatch:
			k = l - minMatch
		}
		l -= k
		d.token(matchFlag | uint32(k-minMatch)<<15 | uint32(dist-1))
	}
}

// token counts t in the block's histograms and holds it; a full block
// is written out.
func (d *rowDeflater) token(t uint32) {
	if t < matchFlag {
		d.litFreq[t]++
	} else {
		d.litFreq[endOfBlock+1+int(lengthCode[t>>15&0xff])]++
		d.distFreq[distCodeOf(t&0x7fff)]++
	}
	d.toks[d.ntoks] = t
	d.ntoks++
	if d.ntoks == maxBlockTokens {
		d.block(false)
	}
}

// finish writes the last block, the checksum, the remaining IDAT and
// IEND.
func (d *rowDeflater) finish() {
	d.block(true)
	for d.nb > 0 {
		d.out = append(d.out, uint8(d.acc))
		d.acc >>= 8
		d.nb -= min(d.nb, 8)
	}
	d.out = binary.BigEndian.AppendUint32(d.out, d.s2<<16|d.s1)
	d.e.end(d.out)
}

// bits writes the low n bits of v, n at most 32.
func (d *rowDeflater) bits(v uint32, n uint) {
	d.acc |= uint64(v) << d.nb
	d.nb += n
	if d.nb >= 32 {
		d.out = binary.LittleEndian.AppendUint32(d.out, uint32(d.acc))
		d.acc >>= 32
		d.nb -= 32
		if len(d.out) >= idatSize {
			d.e.idat(d.out)
			d.out = d.out[:0]
		}
	}
}

// block writes the tokens held as one block, with the tables that
// code them in fewer bits, and starts the next block empty.
func (d *rowDeflater) block(final bool) {
	d.litFreq[endOfBlock]++
	var (
		litLen  [numLitLen]uint8
		distLen [numDist]uint8
		clLen   [numCodeLen]uint8
		clFreq  [numCodeLen]uint32
		lens    [numLitLen + numDist]uint8
		cl      [numLitLen + numDist]uint16
	)
	huffLengths(d.litFreq[:], litLen[:], maxCodeBits)
	huffLengths(d.distFreq[:], distLen[:], maxCodeBits)
	nlit, ndist := numLitLen, numDist
	for litLen[nlit-1] == 0 {
		nlit--
	}
	for distLen[ndist-1] == 0 {
		ndist--
	}
	copy(lens[:], litLen[:nlit])
	copy(lens[nlit:], distLen[:ndist])
	ncl := codeLengthTokens(lens[:nlit+ndist], cl[:])
	for _, t := range cl[:ncl] {
		clFreq[t&31]++
	}
	huffLengths(clFreq[:], clLen[:], maxCLBits)
	nclen := numCodeLen
	for nclen > 4 && clLen[codeLengthOrder[nclen-1]] == 0 {
		nclen--
	}

	// Extra bits cost the same under either table, so neither count
	// holds them.
	dynamic := uint64(5 + 5 + 4 + 3*nclen)
	for s, f := range clFreq {
		dynamic += uint64(f) * uint64(clLen[s]+clExtra[s])
	}
	var fixed uint64
	for s, f := range d.litFreq {
		dynamic += uint64(f) * uint64(litLen[s])
		fixed += uint64(f) * uint64(fixedLitLen[s])
	}
	for s, f := range d.distFreq {
		dynamic += uint64(f) * uint64(distLen[s])
		fixed += uint64(f) * 5
	}

	last := uint32(0)
	if final {
		last = 1
	}
	var litCodes [numLitLen]uint16
	var distCodes [numDist]uint16
	lit, litCode := fixedLitLen[:], fixedLitCode[:]
	dist, distCode := fixedDistLen[:], fixedDistCode[:]
	if fixed <= dynamic {
		d.bits(last|1<<1, 3)
	} else {
		lit, litCode = litLen[:], litCodes[:]
		dist, distCode = distLen[:], distCodes[:]
		canonical(lit, litCode)
		canonical(dist, distCode)
		var clCode [numCodeLen]uint16
		canonical(clLen[:], clCode[:])
		d.bits(last|2<<1, 3)
		d.bits(uint32(nlit-257)|uint32(ndist-1)<<5|uint32(nclen-4)<<10, 14)
		for _, s := range codeLengthOrder[:nclen] {
			d.bits(uint32(clLen[s]), 3)
		}
		for _, t := range cl[:ncl] {
			s := t & 31
			d.bits(uint32(clCode[s])|uint32(t>>5)<<clLen[s], uint(clLen[s]+clExtra[s]))
		}
	}

	for _, t := range d.toks[:d.ntoks] {
		if t < matchFlag {
			d.bits(uint32(litCode[t]), uint(lit[t]))
			continue
		}
		x, dx := t>>15&0xff, t&0x7fff
		lc := uint32(lengthCode[x])
		s := endOfBlock + 1 + lc
		d.bits(uint32(litCode[s])|(x-lengthBase[lc])<<lit[s], uint(lit[s]+lengthExtra[lc]))
		dc := distCodeOf(dx)
		d.bits(uint32(distCode[dc])|(dx-distBase[dc])<<dist[dc], uint(dist[dc]+distExtra[dc]))
	}
	d.bits(uint32(litCode[endOfBlock]), uint(lit[endOfBlock]))

	d.ntoks = 0
	d.litFreq = [numLitLen]uint32{}
	d.distFreq = [numDist]uint32{}
}

// codeLengthTokens writes lens as the code-length alphabet codes it
// into out, one token a symbol with its extra bits above the low 5:
// 16 repeats the previous length 3–6 times, 17 and 18 are 3–10 and
// 11–138 zeros. It returns the number of tokens.
func codeLengthTokens(lens []uint8, out []uint16) int {
	n := 0
	emit := func(sym, extra int) {
		out[n] = uint16(sym | extra<<5)
		n++
	}
	for i := 0; i < len(lens); {
		l := lens[i]
		run := 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(int(l), 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(int(l), 0)
		}
	}
	return n
}

// huffLengths sets lens[s] to the length of symbol s's code in a
// Huffman code for the frequencies freq, no code longer than limit
// bits, and 0 for the symbols that do not occur. The code is complete:
// one symbol, or none, gets a second of the same length beside it.
// Past the limit, the frequencies are halved, small ones kept at 1,
// until the tree fits; at worst they all become 1 and the tree
// balanced.
func huffLengths(freq []uint32, lens []uint8, limit uint16) {
	var (
		keys   [numLitLen]uint64 // frequency and symbol, sorted
		w      [2 * numLitLen]uint32
		parent [2 * numLitLen]uint16
		depth  [2 * numLitLen]uint16
	)
	n := 0
	for s, f := range freq {
		if f != 0 {
			keys[n] = uint64(f)<<16 | uint64(s)
			n++
		}
	}
	clear(lens)
	if n < 2 {
		s := 0
		if n == 1 {
			s = int(keys[0] & 0xffff)
		}
		other := 0
		if s == 0 {
			other = 1
		}
		lens[s], lens[other] = 1, 1
		return
	}
	slices.Sort(keys[:n])
	for shift := 0; ; shift++ {
		for i, k := range keys[:n] {
			w[i] = max(uint32(k>>16)>>shift, 1)
		}
		// Two queues, leaves in order of weight and internal nodes in
		// the order they are made, which is also by weight: node k
		// joins the two lightest heads.
		l, q := 0, n
		for k := n; k < 2*n-1; k++ {
			w[k] = 0
			for range 2 {
				m := q
				if l < n && (q == k || w[l] <= w[q]) {
					m = l
					l++
				} else {
					q++
				}
				parent[m], w[k] = uint16(k), w[k]+w[m]
			}
		}
		depth[2*n-2] = 0
		deepest := uint16(0)
		for k := 2*n - 3; k >= 0; k-- {
			depth[k] = depth[parent[k]] + 1
			deepest = max(deepest, depth[k])
		}
		if deepest <= limit {
			for i, k := range keys[:n] {
				lens[k&0xffff] = uint8(depth[i])
			}
			return
		}
	}
}

// canonical assigns deflate's canonical codes to the lengths lens,
// bit-reversed: deflate sends a code's first bit first, and the bit
// writer sends the low bit first.
func canonical(lens []uint8, codes []uint16) {
	var count, next [maxCodeBits + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for b := 1; b <= maxCodeBits; b++ {
		code = (code + count[b-1]) << 1
		next[b] = code
	}
	for s, l := range lens {
		if l != 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// distCodeOf returns the distance code of x, a distance less 1.
func distCodeOf(x uint32) uint32 {
	if x < 4 {
		return x
	}
	nb := uint32(bits.Len32(x)) - 1
	return 2*nb + x>>(nb-1)&1
}

var (
	// codeLengthOrder is the order the code-length code's lengths
	// are sent in.
	codeLengthOrder = [numCodeLen]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	clExtra         = [numCodeLen]uint8{16: 2, 17: 3, 18: 7}

	// lengthCode maps a match length less minMatch to its code less
	// 257; lengthBase and lengthExtra are the code's first length
	// less minMatch and its extra bits.
	lengthCode    [maxMatch - minMatch + 1]uint8
	lengthBase    [29]uint32
	lengthExtra   [29]uint8
	distBase      [numDist]uint32
	distExtra     [numDist]uint8
	fixedLitLen   [288]uint8
	fixedLitCode  [288]uint16
	fixedDistLen  [numDist]uint8
	fixedDistCode [numDist]uint16
)

func init() {
	for c := range lengthBase {
		switch {
		case c < 8:
			lengthBase[c] = uint32(c)
		case c < 28:
			lengthExtra[c] = uint8(c/4 - 1)
			lengthBase[c] = (4 + uint32(c&3)) << lengthExtra[c]
		default:
			lengthBase[c] = maxMatch - minMatch
		}
	}
	for c := len(lengthBase) - 1; c >= 0; c-- {
		for x := lengthBase[c]; x < uint32(len(lengthCode)) && (c == len(lengthBase)-1 || x < lengthBase[c+1]); x++ {
			lengthCode[x] = uint8(c)
		}
	}
	for c := range distBase {
		if c < 4 {
			distBase[c] = uint32(c)
			continue
		}
		distExtra[c] = uint8(c/2 - 1)
		distBase[c] = (2 + uint32(c&1)) << distExtra[c]
	}
	for s := range fixedLitLen {
		switch {
		case s < 144:
			fixedLitLen[s] = 8
		case s < 256:
			fixedLitLen[s] = 9
		case s < 280:
			fixedLitLen[s] = 7
		default:
			fixedLitLen[s] = 8
		}
	}
	canonical(fixedLitLen[:], fixedLitCode[:])
	for s := range fixedDistLen {
		fixedDistLen[s] = 5
	}
	canonical(fixedDistLen[:], fixedDistCode[:])
}

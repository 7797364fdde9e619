package render

import (
	"bytes"
	"encoding/binary"
	"hash/adler32"
	"math/rand"
	"slices"
	"testing"

	"github.com/openstream/aftermath/internal/atmtest"
	"github.com/openstream/aftermath/internal/openstream"
)

// TestHuffLengths: the code lengths describe a complete prefix code —
// the Kraft sum is exactly 1 — within the limit, for no symbol, one
// symbol, and frequencies that grow like Fibonacci's, whose Huffman
// tree is as deep as there are symbols and must be flattened.
func TestHuffLengths(t *testing.T) {
	fib := func(n int) []uint32 {
		f := make([]uint32, n)
		for i := range f {
			f[i] = 1
			if i > 1 {
				f[i] = f[i-1] + f[i-2]
			}
		}
		return f
	}
	one := make([]uint32, numDist)
	one[7] = 40
	for _, tc := range []struct {
		name  string
		freq  []uint32
		limit uint16
	}{
		{"none", make([]uint32, numDist), maxCodeBits},
		{"one", one, maxCodeBits},
		{"fibonacci/literals", fib(numLitLen)[:25], maxCodeBits},
		{"fibonacci/code lengths", fib(numCodeLen), maxCLBits},
		{"even", slices.Repeat([]uint32{3}, numLitLen), maxCodeBits},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lens := make([]uint8, len(tc.freq))
			huffLengths(tc.freq, lens, tc.limit)
			kraft, used := 0.0, 0
			for s, l := range lens {
				if l > uint8(tc.limit) {
					t.Fatalf("symbol %d has a %d-bit code, limit %d", s, l, tc.limit)
				}
				if tc.freq[s] != 0 && l == 0 {
					t.Fatalf("symbol %d occurs but has no code", s)
				}
				if l != 0 {
					kraft += 1 / float64(uint(1)<<l)
					used++
				}
			}
			if kraft != 1 || used < 2 {
				t.Errorf("%d codes with Kraft sum %v, want a complete code of at least 2", used, kraft)
			}
		})
	}
}

// TestAdlerSums: the two sums taken a run at a time in closed form are
// hash/adler32's, for runs of large bytes of every length around a
// word, the modulus and the 5552 bytes zlib sums before it reduces,
// long enough that n(n+1)/2 alone passes the modulus many times, and
// for a scanline of 2^17 short runs, whose b is reduced only once.
func TestAdlerSums(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{1, 2, 3, 7, 8, 9, 5552, adlerMod - 1, adlerMod, adlerMod + 1, 1 << 17}
	for i := range 41 {
		var runs []byteRun
		var data []byte
		count, lens := i%7, lengths
		if i == 40 {
			count, lens = 1<<17+9, lengths[:3]
		}
		for range count {
			n, b := lens[rng.Intn(len(lens))], byte(0xf0|rng.Intn(16))
			runs = append(runs, byteRun{int32(n), b})
			data = append(data, bytes.Repeat([]byte{b}, n)...)
		}
		a, b, n := runSums(runs)
		// adler32 starts from s1 = 1, which adds n to s2.
		s1, s2 := (a+1)%adlerMod, (b+uint32(n%adlerMod))%adlerMod
		if got, want := s2<<16|s1, adler32.Checksum(data); got != want || n != len(data) {
			t.Errorf("%d runs: sums give %#08x over %d bytes, adler32 %#08x over %d", len(runs), got, n, want, len(data))
		}
	}
}

// TestEncodePNGBlockType: a block takes the fixed tables when they cost
// fewer bits — a small image pays no table header — and its own tables
// when not, as a timeline's does.
func TestEncodePNGBlockType(t *testing.T) {
	tr := atmtest.SeidelTrace(t, 4, 3, openstream.SchedNUMA)
	timeline, _, err := Timeline(tr, TimelineConfig{Width: 1000, Height: 400, Mode: ModeState, Labels: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		fb    *Framebuffer
		btype byte
	}{
		{"ramp of 5 colours", colourRamp(5), 1},
		{"timeline", timeline, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.fb.EncodePNG(&buf); err != nil {
				t.Fatal(err)
			}
			if got := firstBlockType(t, buf.Bytes()); got != tc.btype {
				t.Errorf("first block has type %d, want %d", got, tc.btype)
			}
		})
	}
}

// firstBlockType returns BTYPE of the first deflate block in a PNG's
// image data: bits 1–2 of the byte after the 2-byte zlib header.
func firstBlockType(t *testing.T, png []byte) byte {
	t.Helper()
	for b := png[8:]; len(b) >= 12; {
		n := binary.BigEndian.Uint32(b)
		if string(b[4:8]) == "IDAT" && n >= 3 {
			return b[8+2] >> 1 & 3
		}
		b = b[12+n:]
	}
	t.Fatal("no IDAT chunk")
	return 0
}

// TestTokensResume: the tokens of a scanline's head up to where its
// tokenizing stops (tokens with stop, over a stand-in tail of zeros),
// put through resume with the scanline's real tail and the row above,
// are the tokens line emits: whatever the head, its last run, the tail,
// whether the scanline above shares it, and with no scanline above.
func TestTokensResume(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// runsOf returns n bytes as runs of one of three bytes each, no two
	// neighbours alike, as the packer makes them.
	runsOf := func(n int) []byteRun {
		var rs []byteRun
		for n > 0 {
			k := min(n, 1+rng.Intn(4))
			b := byte(rng.Intn(3))
			if len(rs) > 0 && rs[len(rs)-1].b == b {
				b = (b + 1) % 3
			}
			rs, n = append(rs, byteRun{int32(k), b}), n-k
		}
		return rs
	}
	partOf := func(rs []byteRun) part {
		a, b, n := runSums(rs)
		return part{rs, a, b, n}
	}
	var live, cold, warm rowDeflater
	for i := range 4000 {
		hn, tn := 1+rng.Intn(10), 1+rng.Intn(10)
		s := scanline{head: partOf(runsOf(hn)), tail: partOf(runsOf(tn)), key: 1}
		up := &scanline{head: partOf(runsOf(hn)), tail: partOf(runsOf(tn)), key: 2}
		switch rng.Intn(4) {
		case 0:
			up = nil
		case 1:
			up.tail, up.key = s.tail, s.key
		}
		live.n, live.ntoks = hn+tn, 0
		live.line(&s, up)

		zeros := part{runs: []byteRun{{n: int32(tn)}}, n: tn}
		stub, stubUp := scanline{head: s.head, tail: zeros, key: -1}, (*scanline)(nil)
		if up != nil {
			stubUp = &scanline{head: up.head, tail: zeros, key: -1}
		}
		cold.n, cold.ntoks = hn+tn, 0
		m := cold.tokens(&stub, stubUp, mark{}, true)
		warm.n, warm.ntoks = hn+tn, 0
		warm.resume(&s, up, cold.toks[:cold.ntoks], m)
		if !slices.Equal(warm.toks[:warm.ntoks], live.toks[:live.ntoks]) {
			t.Fatalf("case %d: resumed at %+v, %d tokens cached, the tokens differ from line's", i, m, cold.ntoks)
		}
	}
}

package mragg

import (
	"math"
	"math/rand"
	"testing"
)

// randIntervals generates n disjoint sorted intervals starting at
// base, with occasional zero-length intervals and gaps.
func randIntervals(rng *rand.Rand, n int, base int64) (starts, ends []int64) {
	t := base
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(5)) // gap, possibly zero
		d := int64(rng.Intn(40))
		if rng.Intn(20) == 0 {
			d = 0
		}
		starts = append(starts, t)
		ends = append(ends, t+d)
		t += d
	}
	return starts, ends
}

// bruteDominant is the reference sequential scan: first interval with
// a strictly greater cover wins.
func bruteDominant(starts, ends []int64, t0, t1 int64) (int, int64, bool) {
	best, bestIdx := int64(0), 0
	for i := range starts {
		if ends[i] <= t0 || starts[i] >= t1 {
			continue
		}
		a, b := starts[i], ends[i]
		if a < t0 {
			a = t0
		}
		if b > t1 {
			b = t1
		}
		if c := b - a; c > best {
			best, bestIdx = c, i
		}
	}
	return bestIdx, best, best > 0
}

func bruteCover(starts, ends []int64, t0, t1 int64) int64 {
	var total int64
	for i := range starts {
		a, b := starts[i], ends[i]
		if a < t0 {
			a = t0
		}
		if b > t1 {
			b = t1
		}
		if b > a {
			total += b - a
		}
	}
	return total
}

// TestDominantMatchesScan is the core property: on randomized
// interval sets and windows, for several arities, Dominant and Cover
// must equal the brute-force scan exactly — including tie-breaks and
// the positive-cover requirement.
func TestDominantMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 60; round++ {
		n := rng.Intn(900) + 1
		base := int64(rng.Intn(1000))
		if round%5 == 0 {
			// Extreme-coordinate rounds: the index must stay exact at
			// timestamps near MaxInt64/2 (the overflow regime of the
			// pixel mapping bugs this PR fixes).
			base = math.MaxInt64/2 + int64(rng.Intn(1000))
		}
		starts, ends := randIntervals(rng, n, base)
		arity := []int{2, 3, 8, 64}[round%4]
		s := Build(starts, ends, nil, arity)
		if s == nil {
			t.Fatal("valid interval set rejected")
		}
		span := ends[n-1] - starts[0] + 10
		for q := 0; q < 200; q++ {
			t0 := starts[0] - 5 + rng.Int63n(span)
			t1 := t0 + rng.Int63n(span/2+1)
			wantIdx, wantCover, wantOK := bruteDominant(starts, ends, t0, t1)
			gotIdx, gotCover, gotOK, _ := s.Dominant(t0, t1)
			if gotOK != wantOK || (wantOK && (gotIdx != wantIdx || gotCover != wantCover)) {
				t.Fatalf("round %d arity %d Dominant(%d, %d) = (%d, %d, %v), want (%d, %d, %v)",
					round, arity, t0, t1, gotIdx, gotCover, gotOK, wantIdx, wantCover, wantOK)
			}
			if got, want := s.Cover(t0, t1), bruteCover(starts, ends, t0, t1); got != want {
				t.Fatalf("round %d arity %d Cover(%d, %d) = %d, want %d", round, arity, t0, t1, got, want)
			}
		}
	}
}

// TestDominantUntil is the property the renderer's row sweep rests
// on: a horizon until > t1 promises that every window inside
// [t0, until) has the answer [t0, t1) has. Random sets (gaps,
// zero-length intervals, refs, built in one go or appended in pieces)
// and random windows, wide ones and ones that fit inside an interval
// or a gap; each promise is checked against the brute-force scan on
// random sub-windows and on the two windows that touch until. A
// horizon is never behind t1, and the promise must actually be made —
// a Dominant that always said t1 would pass everything else.
func TestDominantUntil(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	promised := 0
	for round := 0; round < 60; round++ {
		n := rng.Intn(300) + 1
		base := int64(rng.Intn(1000))
		if round%5 == 0 {
			base = math.MaxInt64/2 + int64(rng.Intn(1000))
		}
		starts, ends := randIntervals(rng, n, base)
		var refs []int32
		if round%2 == 1 {
			refs = make([]int32, n)
			for i := range refs {
				refs[i] = int32(3 * i)
			}
		}
		arity := []int{2, 3, 8, 64}[round%4]
		s := Build(starts, ends, refs, arity)
		if round%3 == 0 {
			// The same set, appended in pieces.
			s = nil
			for cut := 0; cut < n; {
				step := min(rng.Intn(n/3+1)+1, n-cut)
				var r []int32
				if refs != nil {
					r = refs[cut : cut+step]
				}
				if s == nil {
					s = Build(starts[:step], ends[:step], r, arity)
				} else {
					s = s.Append(starts[cut:cut+step], ends[cut:cut+step], r)
				}
				cut += step
			}
		}
		if s == nil {
			t.Fatal("valid interval set rejected")
		}
		span := ends[n-1] - starts[0] + 10
		for q := 0; q < 300; q++ {
			t0 := starts[0] - 5 + rng.Int63n(span)
			t1 := t0 + rng.Int63n(span/2+1)
			if q%2 == 0 {
				t1 = t0 + 1 + rng.Int63n(6) // the size of an interval or a gap
			}
			idx, _, ok, until := s.Dominant(t0, t1)
			if until < t1 {
				t.Fatalf("round %d: Dominant(%d, %d) reaches back to %d", round, t0, t1, until)
			}
			if until == t1 {
				continue
			}
			promised++
			same := func(a, b int64) {
				t.Helper()
				if wi, _, wok := bruteDominant(starts, ends, a, b); wok != ok || (ok && wi != idx) {
					t.Fatalf("round %d: Dominant(%d, %d) = (%d, %v) until %d, but the scan of [%d, %d) finds (%d, %v)",
						round, t0, t1, idx, ok, until, a, b, wi, wok)
				}
			}
			// Past the last interval the horizon is the end of time;
			// sample the part of it near the data.
			hi := min(until, max(t1, ends[n-1])+20)
			same(t0, hi)
			same(hi-1, hi)
			for k := 0; k < 8; k++ {
				a := t0 + rng.Int63n(hi-t0)
				same(a, a+1+rng.Int63n(hi-a))
			}
		}
	}
	if promised < 1000 {
		t.Errorf("only %d of 18000 windows were promised anything", promised)
	}
}

// TestAppendEqualsBuild checks the amortized extension mode: a chain
// of appends must answer identically to a one-shot build over the
// concatenated intervals, and earlier sets in the chain must keep
// answering for their own prefix.
func TestAppendEqualsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 30; round++ {
		total := rng.Intn(700) + 50
		starts, ends := randIntervals(rng, total, int64(rng.Intn(100)))
		arity := []int{2, 5, 64}[round%3]

		var chain *Set
		cut := 0
		var checkpoints []*Set
		var cutoffs []int
		for cut < total {
			step := rng.Intn(total/4+1) + 1
			if cut+step > total {
				step = total - cut
			}
			if chain == nil {
				chain = Build(starts[:cut+step], ends[:cut+step], nil, arity)
			} else {
				chain = chain.Append(starts[cut:cut+step], ends[cut:cut+step], nil)
			}
			if chain == nil {
				t.Fatal("append rejected ordered intervals")
			}
			cut += step
			checkpoints = append(checkpoints, chain)
			cutoffs = append(cutoffs, cut)
		}

		for ci, s := range checkpoints {
			m := cutoffs[ci]
			span := ends[m-1] - starts[0] + 10
			for q := 0; q < 60; q++ {
				t0 := starts[0] - 5 + rng.Int63n(span)
				t1 := t0 + rng.Int63n(span+1)
				wi, wc, wok := bruteDominant(starts[:m], ends[:m], t0, t1)
				gi, gc, gok, _ := s.Dominant(t0, t1)
				if gok != wok || (wok && (gi != wi || gc != wc)) {
					t.Fatalf("checkpoint %d/%d: Dominant(%d,%d) = (%d,%d,%v), want (%d,%d,%v)",
						m, total, t0, t1, gi, gc, gok, wi, wc, wok)
				}
				if got, want := s.Cover(t0, t1), bruteCover(starts[:m], ends[:m], t0, t1); got != want {
					t.Fatalf("checkpoint %d/%d: Cover = %d, want %d", m, total, got, want)
				}
			}
		}
	}
}

// TestInvalidInputsRejected: overlapping or unsorted intervals must
// yield nil (the scan-fallback signal), never a wrong index.
func TestInvalidInputsRejected(t *testing.T) {
	cases := []struct {
		name         string
		starts, ends []int64
	}{
		{"overlap", []int64{0, 5}, []int64{10, 15}},
		{"unsorted starts", []int64{10, 0}, []int64{15, 5}},
		{"negative length", []int64{0, 20}, []int64{-5, 30}},
		{"end regression", []int64{0, 6}, []int64{10, 8}},
	}
	for _, c := range cases {
		if Build(c.starts, c.ends, nil, 4) != nil {
			t.Errorf("%s: Build accepted invalid intervals", c.name)
		}
	}
	// Append that breaks ordering against the existing tail.
	s := Build([]int64{0, 10}, []int64{5, 20}, nil, 4)
	if s == nil {
		t.Fatal("valid build rejected")
	}
	if s.Append([]int64{15}, []int64{30}, nil) != nil {
		t.Error("Append accepted an interval overlapping the tail")
	}
	if s.Append([]int64{20, 19}, []int64{25, 40}, nil) != nil {
		t.Error("Append accepted unsorted intervals")
	}
	// Adopt (the store's way in) rejects columns whose lengths do not
	// describe one set: an error at open, never a later index panic.
	starts, ends, prefix, _, pyramid := s.Columns()
	if rt, err := Adopt(starts, ends, prefix, nil, pyramid); err != nil || rt.Len() != 2 {
		t.Fatalf("Adopt(Columns()) = %v, %v", rt, err)
	}
	for name, bad := range map[string]func() (*Set, error){
		"short ends":     func() (*Set, error) { return Adopt(starts, ends[:1], prefix, nil, pyramid) },
		"short prefix":   func() (*Set, error) { return Adopt(starts, ends, prefix[:2], nil, pyramid) },
		"short refs":     func() (*Set, error) { return Adopt(starts, ends, prefix, []int32{0}, pyramid) },
		"pyramid leaves": func() (*Set, error) { return Adopt(starts[:1], ends[:1], prefix[:2], nil, pyramid) },
	} {
		if _, err := bad(); err == nil {
			t.Errorf("Adopt accepted %s", name)
		}
	}
}

// TestRefsAndAccessors covers the subset-ref mapping and the basic
// accessors.
func TestRefsAndAccessors(t *testing.T) {
	starts := []int64{0, 10, 30}
	ends := []int64{5, 20, 31}
	refs := []int32{2, 5, 9}
	s := Build(starts, ends, refs, 2)
	if s == nil {
		t.Fatal("build failed")
	}
	if s.Len() != 3 || s.Start(1) != 10 || s.End(1) != 20 {
		t.Error("accessors wrong")
	}
	if s.Ref(1) != 5 {
		t.Errorf("Ref(1) = %d, want 5", s.Ref(1))
	}
	noRefs := Build(starts, ends, nil, 2)
	if noRefs.Ref(2) != 2 {
		t.Error("identity refs wrong")
	}
	s2 := s.Append([]int64{40}, []int64{45}, []int32{11})
	if s2 == nil || s2.Ref(3) != 11 {
		t.Error("appended refs wrong")
	}
	idx, cover, ok, _ := s2.Dominant(0, 50)
	if !ok || idx != 1 || cover != 10 {
		t.Errorf("Dominant = (%d, %d, %v), want (1, 10, true)", idx, cover, ok)
	}
	if s.OverheadBytes() <= 0 {
		t.Error("overhead accounting empty")
	}
}

// TestZeroLengthOnly: a set of only zero-length intervals never
// dominates (positive cover required), and covers nothing.
func TestZeroLengthOnly(t *testing.T) {
	s := Build([]int64{1, 2, 3}, []int64{1, 2, 3}, nil, 2)
	if s == nil {
		t.Fatal("zero-length intervals rejected")
	}
	if _, _, ok, _ := s.Dominant(0, 10); ok {
		t.Error("zero-cover interval reported dominant")
	}
	if s.Cover(0, 10) != 0 {
		t.Error("zero-length intervals covered time")
	}
}

package mragg

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/openstream/aftermath/internal/agg"
	"github.com/openstream/aftermath/internal/tmath"
	"github.com/openstream/aftermath/internal/trace"
)

// randEvents generates n disjoint sorted state events starting at base,
// with occasional zero-length intervals and gaps, in random states — one
// value past the worker states included, which belongs to no subset.
func randEvents(rng *rand.Rand, n int, base int64) []trace.StateEvent {
	evs := make([]trace.StateEvent, 0, n)
	t := base
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(5)) // gap, possibly zero
		d := int64(rng.Intn(40))
		if rng.Intn(20) == 0 {
			d = 0
		}
		st := trace.WorkerState(rng.Intn(trace.NumWorkerStates + 1))
		evs = append(evs, trace.StateEvent{State: st, Start: t, End: t + d, Task: trace.TaskID(i)})
		t += d
	}
	return evs
}

// split cuts evs into a random column list, empty columns included: the
// segmented view of a spilled live CPU.
func split(rng *rand.Rand, evs []trace.StateEvent) [][]trace.StateEvent {
	var cols [][]trace.StateEvent
	for at := 0; at < len(evs); {
		if rng.Intn(4) == 0 {
			cols = append(cols, nil)
		}
		step := min(rng.Intn(len(evs)/2+1)+1, len(evs)-at)
		cols = append(cols, evs[at:at+step])
		at += step
	}
	return cols
}

// inState returns the membership test of one state's subset; every
// admits every leaf, the identity set's membership.
func inState(evs []trace.StateEvent, st trace.WorkerState) func(int) bool {
	return func(i int) bool { return evs[i].State == st }
}

func every(int) bool { return true }

// refsOf lists the leaves [from, len(evs)) a membership test admits.
func refsOf(evs []trace.StateEvent, from int, member func(int) bool) []int32 {
	var refs []int32
	for i := from; i < len(evs); i++ {
		if member(i) {
			refs = append(refs, int32(i))
		}
	}
	return refs
}

// buildSub is the one-shot build of a subset over lv.
func buildSub(lv *Leaves, evs []trace.StateEvent, member func(int) bool, arity int) *Set {
	return Sub(arity).Append(lv, refsOf(evs, 0, member))
}

// appendRefs extends subset s over lv by the members add, appended to
// its own refs as the live builder appends them.
func appendRefs(s *Set, lv *Leaves, add []int32) *Set {
	refs, _, _ := s.Columns()
	return s.Append(lv, append(refs, add...))
}

// dominant answers [t0, t1) as a walk over one column does: the leaf,
// its cover and whether any member covers a positive amount of it.
func dominant(s *Set, lv *Leaves, t0, t1 int64) (leaf int, cover int64, ok bool) {
	if t1 <= t0 {
		return 0, 0, false
	}
	w := s.Walk(lv, tmath.Columns{Start: t0, End: t1, W: 1}, nil)
	if leaf = w.Next(make([]Run, 0, 1))[0].Leaf; leaf < 0 {
		return 0, 0, false
	}
	return leaf, min(lv.At(leaf).End, t1) - max(lv.At(leaf).Start, t0), true
}

// bruteDominant is the reference sequential scan over the members:
// first interval with a strictly greater cover wins.
func bruteDominant(evs []trace.StateEvent, member func(int) bool, t0, t1 int64) (int, int64, bool) {
	best, bestIdx := int64(0), 0
	for i := range evs {
		if !member(i) || evs[i].End <= t0 || evs[i].Start >= t1 {
			continue
		}
		if c := min(evs[i].End, t1) - max(evs[i].Start, t0); c > best {
			best, bestIdx = c, i
		}
	}
	return bestIdx, best, best > 0
}

func bruteCover(evs []trace.StateEvent, member func(int) bool, t0, t1 int64) int64 {
	var total int64
	for i := range evs {
		if c := min(evs[i].End, t1) - max(evs[i].Start, t0); member(i) && c > 0 {
			total += c
		}
	}
	return total
}

// checkSet compares a one-column walk's answer (dominant) and, for a
// subset, Cover with the brute-force scan over the members on random
// windows.
func checkSet(t *testing.T, ctx string, rng *rand.Rand, s *Set, lv *Leaves, evs []trace.StateEvent, member func(int) bool, sub bool, queries int) {
	t.Helper()
	span := evs[len(evs)-1].End - evs[0].Start + 10
	for q := 0; q < queries; q++ {
		t0 := evs[0].Start - 5 + rng.Int63n(span)
		t1 := t0 + rng.Int63n(span/2+1)
		if q%7 == 0 {
			t1 = t0 + rng.Int63n(span+1)
		}
		wantLeaf, wantCover, wantOK := bruteDominant(evs, member, t0, t1)
		gotLeaf, gotCover, gotOK := dominant(s, lv, t0, t1)
		if gotOK != wantOK || (wantOK && (gotLeaf != wantLeaf || gotCover != wantCover)) {
			t.Fatalf("%s: Dominant(%d, %d) = (%d, %d, %v), want (%d, %d, %v)",
				ctx, t0, t1, gotLeaf, gotCover, gotOK, wantLeaf, wantCover, wantOK)
		}
		if !sub {
			continue
		}
		if got, want := s.Cover(lv, t0, t1), bruteCover(evs, member, t0, t1); got != want {
			t.Fatalf("%s: Cover(%d, %d) = %d, want %d", ctx, t0, t1, got, want)
		}
	}
}

// TestDominantMatchesScan is the core property: on randomized event
// arrays — one column or a segmented view — and windows, for several
// arities, Dominant of the identity set and of every state's subset,
// and every subset's Cover, must equal the brute-force scan exactly —
// including tie-breaks and the positive-cover requirement.
func TestDominantMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 60; round++ {
		n := rng.Intn(900) + 1
		base := int64(rng.Intn(1000))
		if round%5 == 0 {
			// Extreme-coordinate rounds: the index must stay exact at
			// timestamps near MaxInt64/2 (the overflow regime of the
			// pixel mapping).
			base = math.MaxInt64/2 + int64(rng.Intn(1000))
		}
		evs := randEvents(rng, n, base)
		arity := []int{2, 3, 8, 64}[round%4]
		lv := Over(evs)
		if round%3 == 0 {
			lv = Over(split(rng, evs)...)
		}
		all := All(arity).Extend(&lv)
		if all == nil {
			t.Fatal("valid interval set rejected")
		}
		checkSet(t, "identity set", rng, all, &lv, evs, every, false, 200)
		for k := 0; k < trace.NumWorkerStates; k++ {
			member := inState(evs, trace.WorkerState(k))
			checkSet(t, "subset", rng, buildSub(&lv, evs, member, arity), &lv, evs, member, true, 40)
		}
	}
}

// firstEnding returns the rank among the members of the first one
// ending after t0: the window's first member.
func firstEnding(evs []trace.StateEvent, member func(int) bool, t0 int64) int {
	first := 0
	for i := range evs {
		if !member(i) {
			continue
		}
		if evs[i].End > t0 {
			break
		}
		first++
	}
	return first
}

// checkWalk walks s over the columns of cols and holds every column's
// answer to the brute-force scan of its window over the members keep
// admits (all when nil): the runs must be consecutive, cover the plot
// and carry the scan's leaf, -1 where the scan finds none. It returns
// the walk's work, the runs longer than one column and the runs.
func checkWalk(t *testing.T, ctx string, s *Set, lv *Leaves, evs []trace.StateEvent, member func(int) bool, cols tmath.Columns, keep func(trace.TaskID) bool) (work Work, jumps, runs int) {
	t.Helper()
	admitted := member
	if keep != nil {
		admitted = func(i int) bool { return member(i) && keep(evs[i].Task) }
	}
	w := s.Walk(lv, cols, keep)
	buf := make([]Run, 0, 1+len(evs)%5) // batches of one to five runs
	at := 0
	for batch := w.Next(buf); len(batch) > 0; batch = w.Next(buf) {
		for _, run := range batch {
			x0, x1, leaf := run.X0, run.X1, run.Leaf
			if x0 != at || x1 <= x0 || x1 > cols.W {
				t.Fatalf("%s: run [%d, %d) after column %d of %d", ctx, x0, x1, at, cols.W)
			}
			for x := x0; x < x1; x++ {
				t0, t1 := cols.Window(x)
				want, _, ok := bruteDominant(evs, admitted, t0, t1)
				if !ok {
					want = -1
				}
				if leaf != want {
					t.Fatalf("%s: column %d [%d, %d) of run [%d, %d) over %v is answered by leaf %d, the scan wants %d",
						ctx, x, t0, t1, x0, x1, cols, leaf, want)
				}
			}
			if x1-x0 > 1 {
				jumps++
			}
			runs++
			at = x1
		}
	}
	if at != cols.W {
		t.Fatalf("%s: the walk stopped at column %d of %d", ctx, at, cols.W)
	}
	return w.Work(), jumps, runs
}

// FuzzRowWalk: whatever the leaves (zero-length ones included), their
// split into columns, the set (the identity set or one state's subset,
// and its arity), the filter, the plot's width and its window — near
// either end of int64, and as wide as an int64 span gets — every column
// of the row walk answers what the brute-force scan of its window does.
// So do the identity set's Sweep of the window, every state's at once,
// and one state's Covers over a row of non-decreasing bounds from the
// window's start: empty windows, windows outside the events and
// windows saturated at the end of int64 included.
func FuzzRowWalk(f *testing.F) {
	f.Add([]byte{0, 5, 1, 2, 7, 0, 0, 0, 1, 3, 9, 1}, []byte{2}, uint8(1), uint8(0), uint16(7), uint8(0), int64(3), int64(9))
	f.Add([]byte{1, 30, 8, 0, 0, 1, 4, 12, 1, 0, 3, 0, 2, 2, 1}, []byte{0, 1, 1}, uint8(0x38), uint8(0x5a), uint16(3999), uint8(1), int64(-7), int64(40))
	f.Add([]byte{3, 3, 0}, []byte{}, uint8(8), uint8(0xff), uint16(0), uint8(2), int64(0), int64(-1))
	f.Add(bytes.Repeat([]byte{0, 3, 1, 1, 0, 2}, 80), []byte{40, 0, 70}, uint8(0x0f), uint8(0), uint16(5), uint8(2), int64(0), int64(500))
	f.Fuzz(func(t *testing.T, raw, cuts []byte, set, mask uint8, width uint16, end uint8, a, b int64) {
		// Every three bytes are an event: the gap before it, its length
		// and its state, one past the worker states included.
		var evs []trace.StateEvent
		at := int64(0)
		for i := 0; i+2 < len(raw) && len(evs) < 512; i += 3 {
			at += int64(raw[i] % 8)
			d := int64(raw[i+1] % 32)
			evs = append(evs, trace.StateEvent{State: trace.WorkerState(int(raw[i+2]) % (trace.NumWorkerStates + 1)), Start: at, End: at + d, Task: trace.TaskID(len(evs))})
			at += d
		}
		if len(evs) == 0 {
			return
		}
		origin := []int64{0, math.MinInt64 + 3, math.MaxInt64 - at - 3}[end%3]
		for i := range evs {
			evs[i].Start += origin
			evs[i].End += origin
		}
		// Each cut is the length of the next column, empty ones
		// included; the rest is the last.
		var cols [][]trace.StateEvent
		rest := evs
		for _, c := range cuts {
			k := min(int(c), len(rest))
			cols, rest = append(cols, rest[:k]), rest[k:]
		}
		lv := Over(append(cols, rest)...)
		arity := 2 + int(set>>4)%7
		all := All(arity).Extend(&lv)
		member, s := every, all
		if k := int(set&15) % (trace.NumWorkerStates + 1); k < trace.NumWorkerStates {
			member = inState(evs, trace.WorkerState(k))
			s = buildSub(&lv, evs, member, arity)
		}
		var keep func(trace.TaskID) bool
		if mask != 0 {
			keep = func(id trace.TaskID) bool { return mask>>(id%8)&1 != 0 }
		}
		mod := func(x, m int64) int64 { return (x%m + m) % m }
		span := at + 10
		t0 := tmath.SatAdd(origin, mod(a, span)-5)
		t1 := tmath.SatAdd(t0, 1+mod(b, span+4))
		if b < 0 {
			t1 = tmath.SatAdd(t0, -(b + 1)) // up to the widest window an int64 spans
		}
		if t1 <= t0 {
			return
		}
		checkWalk(t, "fuzz", s, &lv, evs, member, tmath.Columns{Start: t0, End: t1, W: 1 + int(width)%4000}, keep)
		checkSweep(t, "fuzz", all, &lv, evs, t0, t1)
		// A row of adjacent windows from t0 on, stepping by the event
		// bytes read again: zero steps make empty windows, and the row
		// may start before the first event and run past the last.
		bounds := []int64{t0}
		for i := 0; i < len(raw) && len(bounds) <= 1+int(width)%64; i++ {
			step := int64(raw[i] % 16)
			if raw[i]&0x80 != 0 {
				step *= at/8 + 1
			}
			bounds = append(bounds, tmath.SatAdd(bounds[len(bounds)-1], step))
		}
		st := trace.WorkerState(int(set&15) % trace.NumWorkerStates)
		checkCovers(t, "fuzz", buildSub(&lv, evs, inState(evs, st), arity), &lv, evs, inState(evs, st), bounds)
	})
}

// checkCovers holds Covers over the adjacent windows of bounds to
// bruteCover of each.
func checkCovers(t *testing.T, ctx string, s *Set, lv *Leaves, evs []trace.StateEvent, member func(int) bool, bounds []int64) {
	t.Helper()
	out := make([]int64, len(bounds)-1)
	for i := range out {
		out[i] = -1 // every window is written
	}
	s.Covers(lv, bounds, out)
	for i, got := range out {
		if want := bruteCover(evs, member, bounds[i], bounds[i+1]); got != want {
			t.Fatalf("%s: Covers over %v: window %d [%d, %d) = %d, want %d", ctx, bounds, i, bounds[i], bounds[i+1], got, want)
		}
	}
}

// checkSweep holds the identity set's Sweep of [t0, t1) to bruteCover
// of every state, and requires it to answer a window of at most
// 2·arity members.
func checkSweep(t *testing.T, ctx string, all *Set, lv *Leaves, evs []trace.StateEvent, t0, t1 int64) {
	t.Helper()
	var out [trace.NumWorkerStates]int64
	ok := all.Sweep(lv, t0, t1, out[:])
	in := 0
	for i := range evs {
		if evs[i].End > t0 && evs[i].Start < t1 {
			in++
		}
	}
	if narrow := in <= 2*all.pyramid.Arity() || t1 <= t0; ok != narrow {
		t.Fatalf("%s: Sweep(%d, %d) over %d members answers %v", ctx, t0, t1, in, ok)
	}
	for k, got := range out {
		want := int64(0)
		if ok {
			want = bruteCover(evs, inState(evs, trace.WorkerState(k)), t0, t1)
		}
		if got != want {
			t.Fatalf("%s: Sweep(%d, %d) of state %d = %d, want %d", ctx, t0, t1, k, got, want)
		}
	}
}

// TestCoversAndSweepMatchScan: on randomized event arrays, one column
// or a segmented view, for several arities, every state's Covers over
// random rows of non-decreasing bounds — empty windows, windows before
// the first event and past the last, and windows holding many members
// included, and rows whose bounds now and then fall — and the identity
// set's Sweep of random windows equal the brute-force scan.
func TestCoversAndSweepMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 40; round++ {
		evs := randEvents(rng, rng.Intn(600)+1, int64(rng.Intn(1000)))
		arity := []int{2, 3, 8, 64}[round%4]
		lv := Over(evs)
		if round%2 == 0 {
			lv = Over(split(rng, evs)...)
		}
		all := All(arity).Extend(&lv)
		span := evs[len(evs)-1].End - evs[0].Start + 10
		for q := 0; q < 40; q++ {
			t0 := evs[0].Start - 5 + rng.Int63n(span)
			checkSweep(t, "sweep", all, &lv, evs, t0, t0+rng.Int63n([]int64{8, 60, span}[q%3]))
			bounds := []int64{evs[0].Start - 20 + rng.Int63n(span)}
			for w := rng.Intn(30); w >= 0; w-- {
				step := rng.Int63n([]int64{2, 30, span / 4}[q%3] + 1)
				if q%5 == 4 && rng.Intn(4) == 0 {
					step = -step
				}
				bounds = append(bounds, bounds[len(bounds)-1]+step)
			}
			st := trace.WorkerState(rng.Intn(trace.NumWorkerStates))
			checkCovers(t, "covers", buildSub(&lv, evs, inState(evs, st), arity), &lv, evs, inState(evs, st), bounds)
		}
	}
}

// span returns the member range [lo, hi) overlapping [t0, t1): lo is
// the first member ending after t0, hi the first from lo on starting at
// or after t1.
func (s *Set) span(lv *Leaves, t0, t1 int64) (lo, hi int) {
	r := s.reader(lv)
	lo, _ = r.search(0, r.n, nil, t0, false)
	hi, _ = r.seek(lo, t1, true)
	return lo, hi
}

// TestLeavesSegmentedEqualsFlat: a view over every split of an array —
// empty columns anywhere — resolves every leaf, visits every suffix and
// has every window found over it exactly as over the one-column view,
// starting at the first leaf ending after the window's start.
func TestLeavesSegmentedEqualsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 40; round++ {
		evs := randEvents(rng, rng.Intn(300)+1, int64(rng.Intn(100)))
		flat, seg := Over(evs), Over(split(rng, evs)...)
		if seg.Len() != len(evs) || flat.Len() != len(evs) {
			t.Fatalf("Len = %d and %d, want %d", flat.Len(), seg.Len(), len(evs))
		}
		var stitched []trace.StateEvent
		for k := 0; k < seg.Cols(); k++ {
			if len(seg.Col(k)) == 0 {
				t.Fatal("view kept an empty column")
			}
			stitched = append(stitched, seg.Col(k)...)
		}
		if !slices.Equal(stitched, evs) {
			t.Fatal("columns do not concatenate to the array")
		}
		for i := range evs {
			if *seg.At(i) != evs[i] {
				t.Fatalf("At(%d) = %+v, want %+v", i, *seg.At(i), evs[i])
			}
		}
		from := rng.Intn(len(evs) + 1)
		next := from
		seg.Each(from, func(i int, ev *trace.StateEvent) {
			if i != next || *ev != evs[i] {
				t.Fatalf("Each(%d) visited leaf %d as %+v, want leaf %d", from, i, *ev, next)
			}
			next++
		})
		if next != len(evs) {
			t.Fatalf("Each(%d) stopped at %d of %d", from, next, len(evs))
		}
		flatAll, segAll := All(4).Extend(&flat), All(4).Extend(&seg)
		span := evs[len(evs)-1].End - evs[0].Start + 10
		for q := 0; q < 300; q++ {
			t0 := evs[0].Start - 5 + rng.Int63n(span)
			t1 := t0 - 3 + rng.Int63n(span/2+4) // inverted windows too
			flo, fhi := flatAll.span(&flat, t0, t1)
			slo, shi := segAll.span(&seg, t0, t1)
			if flo != slo || fhi != shi || flo != firstEnding(evs, every, t0) {
				t.Fatalf("window [%d, %d) = [%d, %d) segmented, [%d, %d) flat", t0, t1, slo, shi, flo, fhi)
			}
		}
	}
	var empty Leaves
	if lo, hi := All(4).span(&empty, 0, 10); lo != 0 || hi != 0 || empty.Cols() != 0 || empty.Len() != 0 {
		t.Fatal("the zero view is not the empty view")
	}
}

// TestRankMapping is the property a subset's window rests on: a subset
// of a disjoint sorted set keeps its order, so the members a search
// over the subset's own bounds finds overlapping [t0, t1) are exactly
// the refs inside the view's window — the view's window mapped through
// refs by rank. span is held to both. The generator is adversarial
// where that could break: events sharing a start (a zero-length one
// before its successor), touching intervals, zero-length intervals
// sitting on both window edges, states past the worker states
// interleaved with the others, and states with no event at all. Every
// window edge is put on, just before and just after an event bound.
func TestRankMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for round := 0; round < 40; round++ {
		n := rng.Intn(200) + 1
		present := 1 + rng.Intn(3) // states 0..present-1 occur, the others stay empty
		var evs []trace.StateEvent
		at := int64(rng.Intn(50))
		for i := 0; i < n; i++ {
			st := trace.WorkerState(rng.Intn(present))
			if rng.Intn(4) == 0 {
				st = trace.WorkerState(trace.NumWorkerStates + rng.Intn(3))
			}
			var d int64
			switch rng.Intn(4) {
			case 0: // zero-length, sharing its start with the next event
			case 1:
				d = 1
			default:
				d = int64(rng.Intn(12))
			}
			evs = append(evs, trace.StateEvent{State: st, Start: at, End: at + d})
			at += d
			if rng.Intn(3) == 0 { // otherwise the next event touches this one
				at += int64(rng.Intn(3))
			}
		}
		lv := Over(evs)
		if round%2 == 0 {
			lv = Over(split(rng, evs)...)
		}
		arity := []int{2, 4, 64}[round%3]
		all := All(arity).Extend(&lv)
		if all == nil {
			t.Fatal("valid interval set rejected")
		}
		var edges []int64
		for _, ev := range evs {
			edges = append(edges, ev.Start-1, ev.Start, ev.Start+1, ev.End-1, ev.End, ev.End+1)
		}
		for k := 0; k < trace.NumWorkerStates; k++ {
			member := inState(evs, trace.WorkerState(k))
			refs := refsOf(evs, 0, member)
			s := buildSub(&lv, evs, member, arity)
			if s.Len() != len(refs) || (k >= present && s.Len() != 0) {
				t.Fatalf("state %d: subset of %d members, want %d", k, s.Len(), len(refs))
			}
			for q := 0; q < 400; q++ {
				t0, t1 := edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
				wantLo, wantHi := 0, 0
				for wantLo < len(refs) && evs[refs[wantLo]].End <= t0 {
					wantLo++
				}
				for wantHi < len(refs) && evs[refs[wantHi]].Start < t1 {
					wantHi++
				}
				wantHi = max(wantLo, wantHi) // an inverted window is an empty one
				vlo, vhi := all.span(&lv, t0, t1)
				rankLo, _ := slices.BinarySearch(refs, int32(vlo))
				rankHi, _ := slices.BinarySearch(refs, int32(vhi))
				if lo, hi := s.span(&lv, t0, t1); lo != wantLo || hi != wantHi || lo != rankLo || hi != max(rankLo, rankHi) {
					t.Fatalf("round %d state %d: span(%d, %d) = [%d, %d), the subset's own bounds say [%d, %d), the view's window [%d, %d) by rank [%d, %d)",
						round, k, t0, t1, lo, hi, wantLo, wantHi, vlo, vhi, rankLo, rankHi)
				}
				wantLeaf, wantCover, wantOK := bruteDominant(evs, member, t0, t1)
				leaf, cover, ok := dominant(s, &lv, t0, t1)
				if ok != wantOK || (ok && (leaf != wantLeaf || cover != wantCover)) {
					t.Fatalf("round %d state %d: Dominant(%d, %d) = (%d, %d, %v), want (%d, %d, %v)",
						round, k, t0, t1, leaf, cover, ok, wantLeaf, wantCover, wantOK)
				}
				if got, want := s.Cover(&lv, t0, t1), bruteCover(evs, member, t0, t1); got != want {
					t.Fatalf("round %d state %d: Cover(%d, %d) = %d, want %d", round, k, t0, t1, got, want)
				}
			}
		}
	}
}

// TestRowWalkRuns: every column of a row walk answers what the
// brute-force scan of its window does. Random arrays (gaps, zero-length
// intervals; the identity set or one state's subset, built in one go or
// grown in pieces over a growing view, filtered or not), random plots:
// wide windows with many members a column, the pyramid's case; windows
// the size of an interval or a gap; windows narrower than the plot in
// cycles, whose columns overlap. The jumps must actually be taken, and
// the pyramid asked — a walk stepping every column by scan would pass
// everything else — and never more than once a column.
func TestRowWalkRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var jumps, queries, filtered int
	for round := 0; round < 60; round++ {
		n := rng.Intn(300) + 1
		base := int64(rng.Intn(1000))
		if round%5 == 0 {
			base = math.MaxInt64/2 + int64(rng.Intn(1000))
		}
		evs := randEvents(rng, n, base)
		sub := round%2 == 1
		member := every
		if sub {
			member = inState(evs, trace.WorkerState(rng.Intn(3)))
		}
		arity := []int{2, 3, 8, 64}[round%4]
		lv := Over(evs)
		var s *Set
		if round%3 == 0 {
			// The same set, grown in pieces.
			s = All(arity)
			if sub {
				s = Sub(arity)
			}
			for cut := 0; cut < n; {
				step := min(rng.Intn(n/3+1)+1, n-cut)
				part := Over(evs[:cut+step])
				if sub {
					s = appendRefs(s, &part, refsOf(evs[:cut+step], cut, member))
				} else {
					s = s.Extend(&part)
				}
				cut += step
			}
		} else if sub {
			s = buildSub(&lv, evs, member, arity)
		} else {
			s = All(arity).Extend(&lv)
		}
		if s == nil {
			t.Fatal("valid interval set rejected")
		}
		span := evs[n-1].End - evs[0].Start + 10
		for q := 0; q < 12; q++ {
			t0 := evs[0].Start - 5 + rng.Int63n(span)
			t1 := t0 + 1 + rng.Int63n(span)
			w := 1 + rng.Intn(60)
			switch q % 3 {
			case 1:
				w = 1 + rng.Intn(400)
			case 2:
				t1 = t0 + 1 + rng.Int63n(int64(w)) // narrower than the plot
			}
			var keep func(trace.TaskID) bool
			if q%4 == 3 {
				mod := trace.TaskID(rng.Intn(3) + 2)
				keep = func(id trace.TaskID) bool { return id%mod != 0 }
				filtered++
			}
			cols := tmath.Columns{Start: t0, End: t1, W: w}
			work, j, _ := checkWalk(t, "walk", s, &lv, evs, member, cols, keep)
			if work.Queries > w || keep != nil && work.Queries > 0 {
				t.Fatalf("round %d: %d range queries for %d columns (filtered: %v)", round, work.Queries, w, keep != nil)
			}
			jumps += j
			queries += work.Queries
		}
	}
	if jumps < 500 || queries < 30 || filtered == 0 {
		t.Errorf("the walk jumped %d runs and asked the pyramid %d times; the cases above are close to vacuous", jumps, queries)
	}
}

// sameSet asserts two sets own identical columns, node for node.
func sameSet(t *testing.T, ctx string, got, want *Set) {
	t.Helper()
	gr, gp, gy := got.Columns()
	wr, wp, wy := want.Columns()
	if !slices.Equal(gr, wr) || !slices.Equal(gp, wp) || (gp == nil) != (wp == nil) {
		t.Fatalf("%s: refs or prefix sums differ", ctx)
	}
	if gy.Arity() != wy.Arity() || gy.Len() != wy.Len() || len(gy.Levels()) != len(wy.Levels()) {
		t.Fatalf("%s: pyramid shape differs", ctx)
	}
	for l := range wy.Levels() {
		if !slices.Equal(gy.Levels()[l], wy.Levels()[l]) {
			t.Fatalf("%s: pyramid level %d differs", ctx, l)
		}
	}
}

// TestAppendEqualsBuild checks the amortized extension mode: a chain
// of Extends (Appends, for a subset) over a view that grows — by events
// pushed on its last column or by a new column — is structurally the
// one-shot build over the final view and answers like it, and earlier
// sets in the chain keep answering for their own prefix.
func TestAppendEqualsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 30; round++ {
		total := rng.Intn(700) + 50
		evs := randEvents(rng, total, int64(rng.Intn(100)))
		arity := []int{2, 5, 64}[round%3]
		member := inState(evs, trace.WorkerState(round%trace.NumWorkerStates))

		type checkpoint struct {
			all, sub *Set
			lv       Leaves
			n        int
		}
		var checkpoints []checkpoint
		all, sub := All(arity), Sub(arity)
		var cols [][]trace.StateEvent
		for cut := 0; cut < total; {
			step := min(rng.Intn(total/4+1)+1, total-cut)
			if len(cols) > 0 && rng.Intn(2) == 0 {
				last := len(cols) - 1
				cols[last] = evs[cut-len(cols[last]) : cut+step]
			} else {
				cols = append(cols, evs[cut:cut+step])
			}
			lv := Over(cols...)
			all = all.Extend(&lv)
			if all == nil {
				t.Fatal("Extend rejected ordered intervals")
			}
			sub = appendRefs(sub, &lv, refsOf(evs[:cut+step], cut, member))
			cut += step
			checkpoints = append(checkpoints, checkpoint{all, sub, lv, cut})
		}
		whole := Over(evs)
		sameSet(t, "chained identity set", all, All(arity).Extend(&whole))
		sameSet(t, "chained subset", sub, buildSub(&whole, evs, member, arity))

		for _, c := range checkpoints {
			checkSet(t, "identity checkpoint", rng, c.all, &c.lv, evs[:c.n], every, false, 60)
			checkSet(t, "subset checkpoint", rng, c.sub, &c.lv, evs[:c.n], member, true, 60)
		}
	}
}

// TestInvalidInputsRejected: overlapping or unsorted intervals must
// yield nil (the scan-fallback signal), never a wrong index; adopted
// columns that do not describe one set over the view are an error.
func TestInvalidInputsRejected(t *testing.T) {
	ev := func(start, end int64) trace.StateEvent { return trace.StateEvent{Start: start, End: end} }
	cases := []struct {
		name string
		evs  []trace.StateEvent
	}{
		{"overlap", []trace.StateEvent{ev(0, 10), ev(5, 15)}},
		{"unsorted starts", []trace.StateEvent{ev(10, 15), ev(0, 5)}},
		{"negative length", []trace.StateEvent{ev(0, -5), ev(20, 30)}},
		{"end regression", []trace.StateEvent{ev(0, 10), ev(6, 8)}},
	}
	for _, c := range cases {
		if lv := Over(c.evs); All(4).Extend(&lv) != nil {
			t.Errorf("%s: Extend accepted invalid intervals", c.name)
		}
		// The same break across a column boundary.
		if lv := Over(c.evs[:1], c.evs[1:]); All(4).Extend(&lv) != nil {
			t.Errorf("%s: Extend accepted invalid intervals in two columns", c.name)
		}
	}
	// An extension that breaks ordering against the existing tail.
	good := []trace.StateEvent{ev(0, 5), ev(10, 20)}
	lv := Over(good)
	s := All(4).Extend(&lv)
	if s == nil {
		t.Fatal("valid build rejected")
	}
	if bad := Over(good, []trace.StateEvent{ev(15, 30)}); s.Extend(&bad) != nil {
		t.Error("Extend accepted an interval overlapping the tail")
	}
	if bad := Over(good, []trace.StateEvent{ev(20, 25), ev(19, 40)}); s.Extend(&bad) != nil {
		t.Error("Extend accepted unsorted intervals")
	}
	if s.Extend(&lv) != s {
		t.Error("Extend over the same view is not the same set")
	}

	// Adopt (the store's way in) rejects columns that do not describe
	// one set over the view: an error at open, never a later index
	// panic.
	_, _, allPyr := s.Columns()
	if rt, err := AdoptAll(2, allPyr); err != nil || rt.Len() != 2 {
		t.Fatalf("AdoptAll(Columns()) = %v, %v", rt, err)
	}
	if _, err := AdoptAll(3, allPyr); err == nil {
		t.Error("AdoptAll accepted a pyramid over fewer leaves than the view")
	}
	sub := Sub(4).Append(&lv, []int32{0, 1})
	refs, prefix, pyr := sub.Columns()
	if rt, err := AdoptSub(2, refs, prefix, pyr); err != nil || rt.Len() != 2 {
		t.Fatalf("AdoptSub(Columns()) = %v, %v", rt, err)
	}
	one, _ := agg.FromLevels[Node](4, 1, nil)
	for name, bad := range map[string]func() (*Set, error){
		"short prefix":        func() (*Set, error) { return AdoptSub(2, refs, prefix[:2], pyr) },
		"no prefix":           func() (*Set, error) { return AdoptSub(2, nil, nil, agg.NewTree[Node](4)) },
		"short refs":          func() (*Set, error) { return AdoptSub(2, refs[:1], prefix, pyr) },
		"pyramid leaves":      func() (*Set, error) { return AdoptSub(2, refs, prefix, one) },
		"negative first ref":  func() (*Set, error) { return AdoptSub(2, []int32{-1, 1}, prefix, pyr) },
		"last ref past view":  func() (*Set, error) { return AdoptSub(2, []int32{0, 2}, prefix, pyr) },
		"refs past empty CPU": func() (*Set, error) { return AdoptSub(0, refs, prefix, pyr) },
	} {
		if _, err := bad(); err == nil {
			t.Errorf("AdoptSub accepted %s", name)
		}
	}
}

// TestRefsAndAccessors covers the subset-ref mapping, the accessors and
// the footprint accounting: a set owns its refs, prefix sums and
// pyramid nodes, and says so.
func TestRefsAndAccessors(t *testing.T) {
	evs := make([]trace.StateEvent, 12)
	for i := range evs {
		evs[i] = trace.StateEvent{Start: int64(100 * i), End: int64(100*i + 1)}
	}
	evs[2] = trace.StateEvent{Start: 200, End: 205}
	evs[5] = trace.StateEvent{Start: 500, End: 510}
	evs[9] = trace.StateEvent{Start: 900, End: 901}
	lv := Over(evs)
	s := Sub(2).Append(&lv, []int32{2, 5, 9})
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	refs, prefix, pyr := s.Columns()
	if !slices.Equal(refs, []int32{2, 5, 9}) || !slices.Equal(prefix, []int64{0, 5, 15, 16}) {
		t.Errorf("columns = %v, %v", refs, prefix)
	}
	if got, want := s.OverheadBytes(), int64(3*4+4*8)+pyr.OverheadBytes(); got != want || pyr.OverheadBytes() <= 0 {
		t.Errorf("OverheadBytes = %d, want %d: refs, prefix sums and %d bytes of nodes", got, want, pyr.OverheadBytes())
	}
	all := All(2).Extend(&lv)
	if _, _, allPyr := all.Columns(); all.Len() != 12 || all.OverheadBytes() != allPyr.OverheadBytes() {
		t.Errorf("identity set over %d leaves owns %d bytes, want its pyramid's %d", all.Len(), all.OverheadBytes(), allPyr.OverheadBytes())
	}
	s2 := appendRefs(s, &lv, []int32{11})
	if r, _, _ := s2.Columns(); s2.Len() != 4 || r[3] != 11 || s.Len() != 3 {
		t.Error("appended refs wrong")
	}
	// A dominant member is reported as its leaf in the view.
	leaf, cover, ok := dominant(s2, &lv, 0, 2000)
	if !ok || leaf != 5 || cover != 10 {
		t.Errorf("Dominant = (%d, %d, %v), want (5, 10, true)", leaf, cover, ok)
	}
}

// TestZeroLengthOnly: a set of only zero-length intervals never
// dominates (positive cover required), and covers nothing.
func TestZeroLengthOnly(t *testing.T) {
	evs := []trace.StateEvent{{Start: 1, End: 1}, {Start: 2, End: 2}, {Start: 3, End: 3}}
	lv := Over(evs)
	all := All(2).Extend(&lv)
	if all == nil {
		t.Fatal("zero-length intervals rejected")
	}
	sub := buildSub(&lv, evs, every, 2)
	for _, s := range []*Set{all, sub} {
		if _, _, ok := dominant(s, &lv, 0, 10); ok {
			t.Error("zero-cover interval reported dominant")
		}
	}
	if sub.Cover(&lv, 0, 10) != 0 {
		t.Error("zero-length intervals covered time")
	}
}

// TestWideColumn: a plot of one column may be wider than 2^63-1 cycles
// — its only window is [Start, End) itself, as DomCPU.DominantState
// asks — and is answered as the scan answers it, over intervals near
// both ends of int64.
func TestWideColumn(t *testing.T) {
	evs := []trace.StateEvent{
		{Start: math.MinInt64, End: math.MinInt64 + 10, Task: 0},
		{Start: math.MinInt64 + 10, End: math.MinInt64 + 40, Task: 1},
		{Start: math.MaxInt64 - 20, End: math.MaxInt64, Task: 2},
	}
	lv := Over(evs)
	all := All(2).Extend(&lv)
	for _, w := range [][2]int64{{math.MinInt64, math.MaxInt64}, {math.MinInt64 + 5, math.MaxInt64 - 1}, {-1, math.MaxInt64}} {
		want, wantCover, wantOK := bruteDominant(evs, every, w[0], w[1])
		if leaf, cover, ok := dominant(all, &lv, w[0], w[1]); ok != wantOK || leaf != want || cover != wantCover {
			t.Errorf("[%d, %d): leaf %d cover %d (%v), the scan wants %d cover %d (%v)", w[0], w[1], leaf, cover, ok, want, wantCover, wantOK)
		}
	}
}

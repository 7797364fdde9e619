package mmtree

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomSamples returns n samples with non-decreasing times.
func randomSamples(rng *rand.Rand, n int, t0 int64) (times, values []int64) {
	times = make([]int64, n)
	values = make([]int64, n)
	t := t0
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(5))
		times[i] = t
		values[i] = rng.Int63n(1<<20) - 1<<19
	}
	return times, values
}

// TestAppendEqualsBuild: a chain of Appends produces a tree that is
// structurally identical to a one-shot Build over the concatenated
// samples, for randomized chunkings, sizes and arities.
func TestAppendEqualsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, arity := range []int{2, 3, 10, 100} {
		for _, total := range []int{0, 1, 2, 99, 100, 101, 1000, 12345} {
			times, values := randomSamples(rng, total, 0)
			// Build incrementally in random chunks (including empty ones).
			tree := Build(nil, nil, arity)
			for off := 0; off < total; {
				k := rng.Intn(total/3 + 2)
				if off+k > total {
					k = total - off
				}
				tree = tree.Append(times[off:off+k], values[off:off+k])
				off += k
			}
			want := Build(times, values, arity)
			if tree.Len() != want.Len() {
				t.Fatalf("arity %d total %d: Len = %d, want %d", arity, total, tree.Len(), want.Len())
			}
			if !reflect.DeepEqual(tree.pyramid.Levels(), want.pyramid.Levels()) {
				t.Fatalf("arity %d total %d: internal levels differ from Build", arity, total)
			}
			// Spot-check queries too, covering the traversal.
			for q := 0; q < 50; q++ {
				var lo, hi int64
				if total > 0 {
					lo = times[0] + rng.Int63n(times[total-1]-times[0]+1)
					hi = lo + rng.Int63n(times[total-1]-times[0]+2)
				}
				gmn, gmx, gok := tree.MinMax(lo, hi)
				wmn, wmx, wok := want.MinMax(lo, hi)
				if gmn != wmn || gmx != wmx || gok != wok {
					t.Fatalf("arity %d total %d: MinMax(%d,%d) = (%d,%d,%v), want (%d,%d,%v)",
						arity, total, lo, hi, gmn, gmx, gok, wmn, wmx, wok)
				}
			}
		}
	}
}

// TestAppendPreservesOld: the pre-append tree keeps answering queries
// correctly after the chain has been extended (snapshot readers hold
// older trees while the writer appends).
func TestAppendPreservesOld(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	times, values := randomSamples(rng, 500, 0)
	old := Build(times[:200], values[:200], 10)
	want := Build(append([]int64(nil), times[:200]...), append([]int64(nil), values[:200]...), 10)
	_ = old.Append(times[200:], values[200:])
	if old.Len() != 200 {
		t.Fatalf("old tree Len = %d after append, want 200", old.Len())
	}
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(times[199] + 1)
		hi := lo + rng.Int63n(times[199]+1)
		gmn, gmx, gok := old.MinMax(lo, hi)
		wmn, wmx, wok := want.MinMax(lo, hi)
		if gmn != wmn || gmx != wmx || gok != wok {
			t.Fatalf("old tree MinMax(%d,%d) changed after append", lo, hi)
		}
	}
}

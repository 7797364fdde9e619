package mmtree

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/openstream/aftermath/internal/agg"
)

// TestAppendEqualsBuild: a chain of Appends, each over the column grown
// by one more part, produces a tree structurally identical to a one-shot
// Build over the concatenated samples, for randomized chunkings, sizes
// and arities.
func TestAppendEqualsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, arity := range []int{2, 3, 10, 100} {
		for _, total := range []int{0, 1, 2, 99, 100, 101, 1000, 12345} {
			s := randomSamples(rng, total)
			// Build incrementally in random chunks (including empty ones),
			// each chunk a part of the growing view.
			tree := Values(arity)
			var parts [][]Sample
			for off := 0; off < total; {
				k := rng.Intn(total/3 + 2)
				if off+k > total {
					k = total - off
				}
				parts = append(parts, s[off:off+k])
				tree = tree.Append(agg.Over(parts...), nil)
				off += k
			}
			want := Build(agg.Over(s), arity)
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
					lo = s[0].Time + rng.Int63n(s[total-1].Time-s[0].Time+1)
					hi = lo + rng.Int63n(s[total-1].Time-s[0].Time+2)
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
// older trees while the writer appends) — over the column it was built
// on, whatever the writer's view has since grown to.
func TestAppendPreservesOld(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := randomSamples(rng, 500)
	old := Build(agg.Over(s[:200]), 10)
	want := Build(agg.Over(append(s[:0:0], s[:200]...)), 10)
	_ = old.Append(agg.Over(s[:200], s[200:]), nil)
	if old.Len() != 200 {
		t.Fatalf("old tree Len = %d after append, want 200", old.Len())
	}
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(s[199].Time + 1)
		hi := lo + rng.Int63n(s[199].Time+1)
		gmn, gmx, gok := old.MinMax(lo, hi)
		wmn, wmx, wok := want.MinMax(lo, hi)
		if gmn != wmn || gmx != wmx || gok != wok {
			t.Fatalf("old tree MinMax(%d,%d) changed after append", lo, hi)
		}
	}
}

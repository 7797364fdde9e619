package agg

import (
	"fmt"
	"unsafe"
)

// MaxLevels bounds a pyramid's level count: with arity >= 2 a tree
// over fewer than 2^63 leaves has at most 63 levels. Decoders check a
// stored level count against it before allocating.
const MaxLevels = 63

// Tree is the pyramid: levels[0] summarizes runs of arity leaves,
// levels[l] runs of arity nodes of levels[l-1], up to a single root
// (no levels at all for n <= 1). A Tree covers leaves [0, Len()) of
// its Agg's source sequence and is an immutable value, a header over
// shared level arrays that clients embed and copy freely; Extend
// returns a new Tree covering more leaves while the receiver stays
// valid. Trees form a linear chain: an Extend result supersedes its
// receiver as the chain head.
type Tree[S any] struct {
	arity  int
	n      int
	levels [][]S
}

// NewTree returns the empty tree of the given arity (at least 2);
// Extend grows it.
func NewTree[S any](arity int) Tree[S] {
	if arity < 2 {
		panic("agg: arity must be at least 2")
	}
	return Tree[S]{arity: arity}
}

// depth returns the level count of a pyramid over n leaves.
func depth(n, arity int) int {
	d := 0
	for n > 1 {
		n = (n + arity - 1) / arity
		d++
	}
	return d
}

// FromLevels adopts levels previously returned by Levels (typically
// read-only views of a store file) for a tree of the given arity over
// n leaves. The shape is validated in O(levels) — each level must hold
// ceil(len(children)/arity) nodes and the last exactly one — so
// hostile or corrupt input fails here instead of indexing out of range
// in a later Query. The nodes themselves are trusted.
func FromLevels[S any](arity, n int, levels [][]S) (Tree[S], error) {
	if arity < 2 || n < 0 {
		return Tree[S]{}, fmt.Errorf("agg: invalid pyramid shape (arity %d, %d leaves)", arity, n)
	}
	if want := depth(n, arity); len(levels) != want {
		return Tree[S]{}, fmt.Errorf("agg: %d pyramid levels for %d leaves at arity %d, want %d", len(levels), n, arity, want)
	}
	children := n
	for l, lv := range levels {
		children = (children + arity - 1) / arity
		if len(lv) != children {
			return Tree[S]{}, fmt.Errorf("agg: pyramid level %d has %d nodes, want %d", l, len(lv), children)
		}
	}
	return Tree[S]{arity: arity, n: n, levels: levels}, nil
}

// Len returns the number of leaves the tree covers.
func (t Tree[S]) Len() int { return t.n }

// Arity returns the pyramid fan-out.
func (t Tree[S]) Arity() int { return t.arity }

// Levels returns the level arrays, bottom-up, for serialization. They
// alias the tree's storage and must not be mutated.
func (t Tree[S]) Levels() [][]S { return t.levels }

// OverheadBytes returns the memory consumed by the internal nodes (the
// paper keeps this below 5% of the leaf data with arity 100).
func (t Tree[S]) OverheadBytes() int64 {
	var s S
	var nodes int64
	for _, lv := range t.levels {
		nodes += int64(len(lv))
	}
	return nodes * int64(unsafe.Sizeof(s))
}

// Extend returns a Tree covering leaves [0, n), n >= Len(): every
// block built purely from the receiver's leaves is copied, only tail
// blocks are recomputed, so a chain of extensions costs O(new leaves)
// amortized plus one O(n/arity) header copy per level. The result is
// structurally identical to extending the empty tree to n in one
// step. The receiver stays valid and is never written (adopted levels
// may be read-only mappings); a must present the same source sequence
// extended in place.
func (t Tree[S]) Extend(a Agg[S], n int) Tree[S] {
	if n < t.n {
		panic("agg: Extend cannot shrink a tree")
	}
	if n == t.n {
		return t
	}
	arity := t.arity
	nt := Tree[S]{arity: arity, n: n, levels: make([][]S, 0, depth(n, arity))}
	keepChildren := t.n // leading children of the level being built that are unchanged
	childLen := n
	var children []S // the level below the one being built; nil = leaves
	for level := 0; childLen > 1; level++ {
		blocks := (childLen + arity - 1) / arity
		nodes := make([]S, blocks)
		keep := 0
		if level < len(t.levels) {
			keep = copy(nodes, t.levels[level][:keepChildren/arity])
		}
		for i := keep; i < blocks; i++ {
			lo := i * arity
			hi := min(lo+arity, childLen)
			var s S
			if level == 0 {
				s = a.Leaf(lo)
				for j := lo + 1; j < hi; j++ {
					s = a.Combine(s, a.Leaf(j))
				}
			} else {
				s = children[lo]
				for _, c := range children[lo+1 : hi] {
					s = a.Combine(s, c)
				}
			}
			nodes[i] = s
		}
		nt.levels = append(nt.levels, nodes)
		children = nodes
		keepChildren = keep
		childLen = blocks
	}
	return nt
}

// Query folds the summaries of leaves [lo, hi) (clamped to the tree),
// returning Zero and ok=false for an empty range. Unaligned head and
// tail nodes are consumed at each level (head ascending, tail
// descending), then the aligned middle ascends to its parents; each
// leaf in the range contributes exactly once. A non-empty aligned
// middle spans at least arity nodes, so its parent level exists.
func (t Tree[S]) Query(a Agg[S], lo, hi int) (S, bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > t.n {
		hi = t.n
	}
	if lo >= hi {
		return a.Zero(), false
	}
	arity := t.arity
	var acc S
	have := false
	take := func(s S) {
		if have {
			acc = a.Combine(acc, s)
		} else {
			acc, have = s, true
		}
	}
	l, r := lo, hi-1 // inclusive node indexes at the current level
	for l <= r && l%arity != 0 {
		take(a.Leaf(l))
		l++
	}
	for l <= r && (r+1)%arity != 0 {
		take(a.Leaf(r))
		r--
	}
	for level := 0; l <= r; level++ {
		nodes := t.levels[level]
		l /= arity
		r /= arity
		for l <= r && l%arity != 0 {
			take(nodes[l])
			l++
		}
		for l <= r && (r+1)%arity != 0 {
			take(nodes[r])
			r--
		}
	}
	return acc, true
}

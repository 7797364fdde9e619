package agg

import (
	"fmt"
	"slices"
	"unsafe"
)

// MaxLevels bounds a pyramid's level count: with arity >= 2 a tree
// over fewer than 2^63 leaves has at most 63 levels. Decoders check a
// stored level count against it before allocating.
const MaxLevels = 63

// Tree is the pyramid: levels[0] summarizes complete runs of arity
// leaves, levels[l] complete runs of arity nodes of levels[l-1], so
// level l holds floor(n / arity^(l+1)) nodes and there are as many
// levels as hold one (none for n < arity). A run cut short by the end
// of the leaves has no node: Query never reads one, and leaving it out
// makes every stored node final. A Tree covers leaves [0, Len()) of
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

// depth returns the level count of a pyramid over n leaves: how many
// levels hold a complete block.
func depth(n, arity int) int {
	d := 0
	for n >= arity {
		n /= arity
		d++
	}
	return d
}

// FromLevels adopts levels previously returned by Levels (typically
// read-only views of a store file) for a tree of the given arity over
// n leaves. The shape is validated in O(levels) — level l must hold
// floor(len(children)/arity) nodes, and there must be exactly as many
// levels as hold one — so hostile or corrupt input fails here instead
// of indexing out of range in a later Query. The nodes themselves are
// trusted. FromLevels takes levels over: it clips each level to
// len == cap in place, so an Extend of the adopted tree reallocates a
// level it grows rather than writing past its end into memory the
// caller may not own.
func FromLevels[S any](arity, n int, levels [][]S) (Tree[S], error) {
	if arity < 2 || n < 0 {
		return Tree[S]{}, fmt.Errorf("agg: invalid pyramid shape (arity %d, %d leaves)", arity, n)
	}
	if want := depth(n, arity); len(levels) != want {
		return Tree[S]{}, fmt.Errorf("agg: %d pyramid levels for %d leaves at arity %d, want %d", len(levels), n, arity, want)
	}
	nodes := n
	for l, lv := range levels {
		nodes /= arity
		if len(lv) != nodes {
			return Tree[S]{}, fmt.Errorf("agg: pyramid level %d has %d nodes, want %d", l, len(lv), nodes)
		}
		levels[l] = lv[:nodes:nodes]
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

// Extend returns a Tree covering leaves [0, n), n >= Len(), which is
// structurally identical to extending the empty tree to n in one step.
// Nodes are final once written, so Extend computes only the blocks the
// new leaves complete, reading just their leaves and children, and
// appends them to the receiver's level arrays: a level that must grow
// past its capacity is reallocated first (amortized, or to the exact
// size when it starts empty, so a one-shot build allocates each level
// once), and a new level header is allocated only when some level
// gained a node. Nothing is copied that the chain already holds.
//
// The receiver stays valid: nothing below its level lengths is ever
// written, and it never reads past them. That makes the chain linear —
// extend only its head, since two extensions of one tree would append
// into the same spare capacity. Adopted levels are clipped to their
// length (FromLevels), so extending one reallocates. a must present the
// same source sequence extended in place.
func (t Tree[S]) Extend(a Agg[S], n int) Tree[S] {
	if n < t.n {
		panic("agg: Extend cannot shrink a tree")
	}
	arity := t.arity
	nt := Tree[S]{arity: arity, n: n, levels: t.levels}
	var children []S // the level below the one being grown; nil = leaves
	for l, want := 0, n/arity; want > 0; l, want = l+1, want/arity {
		var nodes []S
		if l < len(t.levels) {
			nodes = t.levels[l]
		}
		have := len(nodes)
		if have == want {
			break // and so no level above gained a node either
		}
		if l == 0 {
			nt.levels = make([][]S, depth(n, arity))
			copy(nt.levels, t.levels)
		}
		nodes = slices.Grow(nodes, want-have)
		for i := have; i < want; i++ {
			lo := i * arity
			var s S
			if l == 0 {
				s = a.Leaf(lo)
				for j := lo + 1; j < lo+arity; j++ {
					s = a.Combine(s, a.Leaf(j))
				}
			} else {
				s = children[lo]
				for _, c := range children[lo+1 : lo+arity] {
					s = a.Combine(s, c)
				}
			}
			nodes = append(nodes, s)
		}
		nt.levels[l] = nodes
		children = nodes
	}
	return nt
}

// Query folds the summaries of leaves [lo, hi) (clamped to the tree),
// returning Zero and ok=false for an empty range. Unaligned head and
// tail nodes are consumed at each level (head ascending, tail
// descending), then the aligned middle ascends to its parents; each
// leaf in the range contributes exactly once. A non-empty aligned
// middle spans at least arity nodes, so its parent level exists, and
// every node it ascends to summarizes a block inside [lo, hi) ⊆ [0, n)
// — a complete one, which the level holds.
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

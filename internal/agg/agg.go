// Package agg is the unified multi-resolution aggregation framework
// behind Aftermath's indexes (Section VI-B-c of the paper,
// generalized): an n-ary pyramid of precomputed summaries over an
// indexed sequence of source items, answering any contiguous range
// query in O(arity · log_arity n) node visits instead of O(n) item
// visits.
//
// Both indexes in the repository — internal/mmtree (counter min/max
// trees) and internal/mragg (interval dominance pyramids) — are an Agg
// implementation plus a query helper over one Tree.
//
// # The aggregation contract
//
// An aggregate is described by the monoid-style Agg interface: Zero is
// the identity summary, Leaf the summary of one source item, and
// Combine an associative merge. Tree evaluates folds in a fixed
// documented order, so instantiations whose Combine is also
// commutative and idempotent (min/max, dominance) produce results
// byte-identical to any sequential scan, while plain monoids (sums,
// histograms, matrices) still see every item in a queried range
// exactly once.
//
// # Storage
//
// Tree is the only type that holds pyramid levels: one []S per level.
// It owns construction and in-place extension (Extend), the range walk
// (Query), byte-overhead accounting (OverheadBytes) and the
// columnar-store round trip (Levels, and FromLevels which validates
// the shape of adopted levels so a corrupt file fails at open).
//
// A level stores complete blocks only: level l holds
// floor(n / arity^(l+1)) nodes, and the run at the end of a level that
// the leaves do not fill yet has no node. Query never needs one — it
// reads a node only when the node's whole block lies inside the queried
// range — and without them every node, once written, is final.
//
// Neither index copies the items it summarizes: both read them where
// they live through one Leaves view — a trace's state column under
// mragg, a (counter, CPU) sample column under mmtree — whose columns
// may be one array or a live trace's spilled parts and RAM tail. What
// an index owns is its pyramid plus whatever it derives per item (a
// state subset's refs and prefix sums, a rate tree's rates).
//
// # Persistent append
//
// There is one construction path: a tree over n leaves is the empty
// tree extended to n. Extend computes only the blocks the new leaves
// complete and appends them to the receiver's level arrays, growing a
// level by amortized reallocation when it runs out of room; it copies
// nothing the chain already holds, and a one-shot build allocates each
// level once.
//
// The receiver stays valid and immutable, so live-trace snapshot
// readers keep querying older generations while the writer extends the
// chain: no generation reads past its own level lengths, and nothing
// below them is ever written. The price is the linear-chain rule,
// which the columns an index derives per item share with its pyramid
// (a rate tree's rates, a state subset's refs and prefix sums, all
// appended the same way): only the head of a chain may be extended, as
// two extensions of one generation would append into the same spare
// capacity.
package agg

// Agg describes one aggregate over an indexed sequence of source
// items: a monoid with an item summarizer. Combine must be
// associative; Zero must be its identity. Implementations whose
// Combine is also commutative get order-independent (byte-identical)
// results regardless of how a range is decomposed.
type Agg[S any] interface {
	// Zero returns the identity summary (the result of an empty
	// query).
	Zero() S
	// Leaf returns the summary of source item i.
	Leaf(i int) S
	// Combine merges two summaries covering adjacent index ranges,
	// left before right.
	Combine(a, b S) S
}

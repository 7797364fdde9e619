package agg_test

import (
	"fmt"

	"github.com/openstream/aftermath/internal/agg"
)

// eventCount summarizes a run of trace events by how many match a
// predicate — the smallest useful aggregate: Zero is 0, Leaf tests one
// event, Combine adds. Because addition is not idempotent, it also
// demonstrates that the framework's range decomposition visits every
// leaf exactly once.
type eventCount struct {
	durations []int64
	threshold int64
}

func (a eventCount) Zero() int { return 0 }

func (a eventCount) Leaf(i int) int {
	if a.durations[i] >= a.threshold {
		return 1
	}
	return 0
}

func (a eventCount) Combine(x, y int) int { return x + y }

// Example_newAggregate defines a new multi-resolution aggregate —
// "how many tasks in this index window ran at least 100 cycles" — in
// three methods, builds its pyramid (a build is an Extend from the
// empty tree), extends it with freshly ingested tasks the way the live
// path does, and answers window queries in O(arity · log n).
func Example_newAggregate() {
	durations := []int64{40, 250, 99, 100, 512, 7}
	a := eventCount{durations: durations, threshold: 100}

	tree := agg.NewTree[int](2).Extend(a, len(durations))
	if n, ok := tree.Query(a, 0, tree.Len()); ok {
		fmt.Println("long tasks:", n)
	}

	// A live trace appends events; Extend computes only the blocks they
	// complete, appends them to the old pyramid's levels, and the old
	// tree stays valid for snapshot readers.
	a.durations = append(a.durations, 3, 1000)
	tree = tree.Extend(a, len(a.durations))
	if n, ok := tree.Query(a, 4, tree.Len()); ok {
		fmt.Println("long tasks in tail window:", n)
	}

	// Output:
	// long tasks: 3
	// long tasks in tail window: 2
}

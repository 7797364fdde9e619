package agg

// Leaves is a logical array of source items given as its ordered
// columns: one array for a batch or store-backed trace; the spilled
// parts then the RAM tail for a live one. It is how an index reads the
// items its pyramid summarizes where they already live instead of
// holding a copy — an Agg's Leaf(i) reads At(i). Item i of a
// single-column view is one[i]; with more columns, segs lists the
// non-empty ones with their logical start offsets. The zero value is
// the empty view. A view is a value over shared, immutable columns:
// copy it freely, never write through it.
type Leaves[E any] struct {
	one  []E
	segs []leafSeg[E] // nil unless the view has two columns or more
	n    int
}

// leafSeg is one column of a multi-column view and the logical index
// of its first item.
type leafSeg[E any] struct {
	rows []E
	at   int
}

// Over returns the view of the given ordered column list; empty columns
// are skipped. The columns are retained, not copied; a view of more
// than one column allocates its column list once, at its size.
func Over[E any](cols ...[]E) Leaves[E] {
	var lv Leaves[E]
	k := 0
	for _, c := range cols {
		if len(c) > 0 {
			lv.one = c
			k++
		}
	}
	if k <= 1 {
		lv.n = len(lv.one)
		return lv
	}
	lv.one, lv.segs = nil, make([]leafSeg[E], 0, k)
	for _, c := range cols {
		if len(c) > 0 {
			lv.segs = append(lv.segs, leafSeg[E]{c, lv.n})
			lv.n += len(c)
		}
	}
	return lv
}

// Len returns the number of items.
func (lv *Leaves[E]) Len() int { return lv.n }

// Cols returns the number of columns, and Col the k-th of them: the
// view as the loop of a scan or a search wants it.
func (lv *Leaves[E]) Cols() int {
	if lv.segs != nil {
		return len(lv.segs)
	}
	return min(lv.n, 1)
}

// Col returns column k of Cols. Col(0) of the empty view is empty.
func (lv *Leaves[E]) Col(k int) []E {
	if lv.segs != nil {
		return lv.segs[k].rows
	}
	return lv.one
}

// Start returns the logical index of column k's first item.
func (lv *Leaves[E]) Start(k int) int {
	if lv.segs != nil {
		return lv.segs[k].at
	}
	return 0
}

// At returns item i.
func (lv *Leaves[E]) At(i int) *E {
	if lv.segs == nil {
		return &lv.one[i]
	}
	return lv.segAt(i)
}

// segAt is At over two columns or more, kept out of line so that At
// inlines at its many call sites as one branch and an index.
//
//go:noinline
func (lv *Leaves[E]) segAt(i int) *E {
	seg := &lv.segs[lv.Locate(i)]
	return &seg.rows[i-seg.at]
}

// Locate returns the column holding item i: the last column starting at
// or before it.
func (lv *Leaves[E]) Locate(i int) int {
	segs := lv.segs
	k, hi := 0, len(segs)
	for hi-k > 1 {
		if m := int(uint(k+hi) >> 1); segs[m].at <= i {
			k = m
		} else {
			hi = m
		}
	}
	return k
}

// Each calls fn for items [from, Len()) in order, column by column.
func (lv *Leaves[E]) Each(from int, fn func(i int, e *E)) {
	for k := 0; k < lv.Cols(); k++ {
		col, at := lv.Col(k), lv.Start(k)
		for j := max(from-at, 0); j < len(col); j++ {
			fn(at+j, &col[j])
		}
	}
}

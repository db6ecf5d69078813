package table

import (
	"slices"
	"strings"
)

// CellSet is a set of cell references, the codomain of the provenance
// functions P∗(Q,T) of Definition 4.1, held as a row-major sorted,
// duplicate-free slice. The plan executor produces every witness-cell
// set in this form (its Val invariant), so set algebra — membership,
// subset, union, intersection — runs as binary searches and merge
// walks over slices, allocating nothing beyond the output. DedupCells
// turns any []CellRef into this form.
type CellSet []CellRef

// Contains reports membership by binary search.
func (s CellSet) Contains(c CellRef) bool {
	_, ok := slices.BinarySearchFunc(s, c, compareCells)
	return ok
}

// SubsetOf reports whether every member of s is in o, in one merge
// walk. The provenance chain PO ⊆ PE ⊆ PC of Definition 4.1 is
// verified with this.
func (s CellSet) SubsetOf(o CellSet) bool {
	j := 0
	for _, c := range s {
		for j < len(o) && o[j].Less(c) {
			j++
		}
		if j == len(o) || o[j] != c {
			return false
		}
		j++
	}
	return true
}

// Rows returns the sorted distinct record indices touched by the set —
// the record-set projection R∗(Q,T) used for sampling in Section 5.3.
func (s CellSet) Rows() []int {
	var out []int
	for _, c := range s {
		if n := len(out); n == 0 || out[n-1] != c.Row {
			out = append(out, c.Row)
		}
	}
	return out
}

// IntersectCells appends the cells common to a and b onto dst (usually
// a scratch slice with len 0) and returns it, sorted and
// duplicate-free.
func IntersectCells(dst []CellRef, a, b CellSet) []CellRef {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i].Less(b[j]):
			i++
		default:
			j++
		}
	}
	return dst
}

// MergeCells appends the union of a and b onto dst and returns it,
// sorted and duplicate-free.
func MergeCells(dst []CellRef, a, b CellSet) []CellRef {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i].Less(b[j]):
			dst = append(dst, a[i])
			i++
		default:
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// String renders the set as a sorted list, for test failure messages.
func (s CellSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, c := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.String())
	}
	b.WriteByte('}')
	return b.String()
}

package table

import (
	"math"
	"sort"
	"sync/atomic"
)

// columnData is the eagerly built columnar view of one column: the
// canonical key and the numeric interpretation of every cell, stored as
// flat typed vectors so executors can scan a column without touching
// the boxed Value structs. It is built once in New alongside the KB
// index (the keys are shared with the kb map build) and never mutated.
//
// Immutability-after-New is what makes concurrent queries over one
// table safe: their scans read these vectors with no synchronization
// at all. The only lazily built structure a scan can touch is the
// sorted numeric index, whose publication is a CAS on atomicIndex
// below — concurrent builders may do duplicate work but always observe
// either nil or a fully built, immutable index, never a partial one.
type columnData struct {
	keys  []string  // Value.Key() per record
	nums  []float64 // Value.Float() per record (0 when !isNum[r])
	isNum []bool    // whether the cell has a numeric interpretation
	// allNum reports that every cell of the column is numeric (numbers
	// or dates), so ordering by nums agrees with Value.Compare and the
	// sorted index can answer superlatives.
	allNum bool
	// hasNaN reports a NaN numeric cell. Value.Compare treats NaN as
	// equal to everything, which no sort order can represent, so index
	// fast paths are disabled for such columns.
	hasNaN bool
	// asciiKeys reports that every canonical key of the column is pure
	// ASCII. Key identity (strings.ToLower) and Value.Equal
	// (strings.EqualFold) agree exactly on ASCII; outside it, Unicode
	// simple folds ('ſ' vs 'S') make them diverge, so equality fast
	// paths require this flag.
	asciiKeys bool
}

// numericIndex is the lazily built sorted index of one column: the
// records with a numeric interpretation, ordered ascending by that
// interpretation (ties by record index). It is immutable once
// published.
type numericIndex struct {
	rows []int
}

// atomicIndex is the publication slot of one column's numeric index.
// Build and drop race safely through Load/CompareAndSwap/Swap:
// concurrent first uses may build duplicate (identical) indexes, but
// only the published one is ever accounted, so byte accounting stays
// consistent with what is resident.
type atomicIndex = atomic.Pointer[numericIndex]

// buildColumns builds the columnar view, interning each canonical key
// through the build dictionary so duplicate keys (and, transitively,
// the KB posting-list keys) share one backing string.
func (t *Table) buildColumns(in *interner) {
	t.cols = make([]columnData, len(t.columns))
	t.numIdx = make([]atomicIndex, len(t.columns))
	t.zones = make([]atomicZones, len(t.columns))
	for c := range t.columns {
		cd := &t.cols[c]
		cd.keys = make([]string, len(t.rows))
		cd.nums = make([]float64, len(t.rows))
		cd.isNum = make([]bool, len(t.rows))
		cd.allNum = true
		cd.asciiKeys = true
		for r := range t.rows {
			v := t.rows[r][c]
			cd.keys[r] = in.intern(v.Key())
			if !isASCII(cd.keys[r]) {
				cd.asciiKeys = false
			}
			if f, ok := v.Float(); ok {
				cd.nums[r] = f
				cd.isNum[r] = true
				if math.IsNaN(f) {
					cd.hasNaN = true
				}
			} else {
				cd.allNum = false
			}
		}
		if len(t.rows) == 0 {
			cd.allNum = false
		}
	}
}

// ColumnKeys returns the canonical keys (Value.Key) of every cell in
// column c, in record order. The slice is shared with the table and
// must not be modified.
func (t *Table) ColumnKeys(c int) []string { return t.cols[c].keys }

// ColumnNums returns the numeric interpretation (Value.Float) of every
// cell in column c in record order, plus a parallel validity vector.
// Both slices are shared with the table and must not be modified.
func (t *Table) ColumnNums(c int) (nums []float64, isNum []bool) {
	return t.cols[c].nums, t.cols[c].isNum
}

// ColumnAllNumeric reports whether every cell of column c is numeric
// (numbers or dates), which makes ordering by ColumnNums equivalent to
// Value.Compare over the column.
func (t *Table) ColumnAllNumeric(c int) bool { return t.cols[c].allNum }

// ColumnIndexable reports whether the lazily built sorted numeric
// index of column c answers range scans faithfully: it is false when a
// cell holds NaN, whose Value.Compare behaviour (equal to everything)
// no total order can represent.
func (t *Table) ColumnIndexable(c int) bool { return !t.cols[c].hasNaN }

// KeyEqualConsistent reports whether canonical-key identity on column
// c is guaranteed to agree with Value.Equal for comparisons against v,
// which is what the KB-index equality fast paths rely on. It is false
// when the column or the literal's key leaves ASCII (ToLower-keys and
// EqualFold diverge on Unicode simple folds) or when the literal is
// NaN (NaN shares its key with itself but is never Equal to itself).
func (t *Table) KeyEqualConsistent(c int, v Value) bool {
	if !t.cols[c].asciiKeys {
		return false
	}
	if f, ok := v.Float(); ok && math.IsNaN(f) {
		return false
	}
	return isASCII(v.Key())
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// NumericSortedRows returns the records of column c that carry a
// numeric interpretation, ordered ascending by that interpretation
// (ties by record index). The index is built lazily on first use,
// published atomically, and may be dropped again under memory pressure
// (DropDerivedIndexes) — concurrent builders may duplicate the work
// but produce identical results, and only the published build is
// charged to the table's derived-byte account. The returned slice is
// shared and must not be modified.
func (t *Table) NumericSortedRows(c int) []int {
	if idx := t.numIdx[c].Load(); idx != nil {
		return idx.rows
	}
	cd := &t.cols[c]
	rows := make([]int, 0, len(t.rows))
	for r := range t.rows {
		if cd.isNum[r] {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if cd.nums[a] != cd.nums[b] {
			return cd.nums[a] < cd.nums[b]
		}
		return a < b
	})
	if t.numIdx[c].CompareAndSwap(nil, &numericIndex{rows: rows}) {
		sz := indexBytes(len(rows))
		t.mem.derived.Add(sz)
		t.memNotify(sz)
	} else if idx := t.numIdx[c].Load(); idx != nil {
		return idx.rows
	}
	return rows
}

// NumericIndexBuilt reports whether column c currently has a published
// sorted numeric index, without building one. The plan executor uses
// it to choose between the index superlative path (when the index
// already exists) and the cheaper zone-map path (when building the
// index would cost a full sort).
func (t *Table) NumericIndexBuilt(c int) bool { return t.numIdx[c].Load() != nil }

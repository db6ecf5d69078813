package plan

import (
	"math"
	"sync/atomic"

	"nlexplain/internal/table"
)

// Zone-map data skipping.
//
// Zone maps (table.ColumnZones) summarise each column in morsel-sized
// blocks. Before a scan kernel touches a morsel it asks the predicate
// for a three-valued verdict over the block summary: zoneNone proves no
// row of the morsel can match, so the morsel is skipped without
// claiming a single row; zoneAll proves every row matches, so the
// morsel short-circuits into a bulk range fill with no per-row
// evaluation; zoneMaybe falls through to the ordinary per-row kernel.
// Verdicts are conservative by construction, so the produced row sets
// are bitwise identical to the full-scan path — skipping is invisible
// except in the exec counters.
//
// Zone maps only pay off past a size floor (building them walks the
// column once), so consultation is gated on ZoneSkipThreshold; the
// default floor of one zone keeps the warm small-table path exactly as
// allocation-free as before.

// morselRows is the scan block size: zone-aware kernels walk the row
// space one zone at a time and index a column's zone slice directly by
// morsel number.
const morselRows = table.ZoneRows

func morselCount(n int) int { return (n + morselRows - 1) / morselRows }

func morselBounds(m, n int) (lo, hi int) {
	lo = m * morselRows
	hi = min(lo+morselRows, n)
	return lo, hi
}

// zoneVerdict is a predicate's three-valued answer over one zone.
type zoneVerdict uint8

const (
	zoneMaybe zoneVerdict = iota // must evaluate per row
	zoneNone                     // provably no row matches
	zoneAll                      // provably every row matches
)

var (
	// cfgZoneSkipOff disables zone consultation when set (zero value =
	// skipping enabled).
	cfgZoneSkipOff atomic.Bool
	// cfgZoneThreshold holds the configured consultation floor plus one;
	// 0 means "default" (table.ZoneRows), so an explicit floor of 0 —
	// used by the forced-skip differential suites — is representable.
	cfgZoneThreshold atomic.Int64
)

// SetZoneSkipping enables or disables zone-map data skipping
// process-wide and returns the previous setting. Intended for
// benchmarks measuring the skip gain and for differential tests.
func SetZoneSkipping(on bool) bool {
	return !cfgZoneSkipOff.Swap(!on)
}

// ZoneSkipping reports whether zone-map data skipping is enabled
// (default true).
func ZoneSkipping() bool { return !cfgZoneSkipOff.Load() }

// SetZoneSkipThreshold sets the table-size floor (in rows) below which
// scans never consult zone maps, returning the previous resolved
// value. 0 forces consultation on every table (the forced-skip test
// configuration); n < 0 restores the default (table.ZoneRows).
func SetZoneSkipThreshold(n int) int {
	prev := ZoneSkipThreshold()
	if n < 0 {
		cfgZoneThreshold.Store(0)
	} else {
		cfgZoneThreshold.Store(int64(n) + 1)
	}
	return prev
}

// ZoneSkipThreshold returns the resolved zone-consultation floor.
func ZoneSkipThreshold() int {
	if v := cfgZoneThreshold.Load(); v > 0 {
		return int(v - 1)
	}
	return table.ZoneRows
}

// zoneScan is one scan's materialized verdict vector: verdicts[m] is
// the predicate's answer for morsel m, with none/all tallies so
// callers can tell whether consulting the zones bought anything.
type zoneScan struct {
	verdicts  []zoneVerdict
	none, all int
}

// zoneEnabled is the per-execution consultation gate.
func (ex *executor) zoneEnabled() bool {
	return ZoneSkipping() && ex.t.NumRows() > 0 && ex.t.NumRows() >= ZoneSkipThreshold()
}

// zonePred compiles a predicate tree into a materialized zone verdict
// vector over the executor's table. It returns nil when consultation
// is gated off, when the tree contains an opaque FuncPred (skipping
// rows would change which rows the closure observes), or when no zone
// can be proven either way — callers then run the ordinary kernels.
func (ex *executor) zonePred(p Pred) *zoneScan {
	if !ex.zoneEnabled() || predHasFunc(p) {
		return nil
	}
	f, useful := ex.compileZonePred(p)
	if !useful {
		return nil
	}
	return ex.materializeZones(f)
}

// predHasFunc reports whether a predicate tree contains an opaque
// FuncPred closure, whose observed rows zone skipping must not change.
func predHasFunc(p Pred) bool {
	switch x := p.(type) {
	case *FuncPred:
		return true
	case *AndPred:
		return predHasFunc(x.L) || predHasFunc(x.R)
	case *OrPred:
		return predHasFunc(x.L) || predHasFunc(x.R)
	case *NotPred:
		return predHasFunc(x.P)
	}
	return false
}

// materializeZones evaluates the compiled verdict function over every
// zone once, so scan kernels do a single slice load per morsel.
func (ex *executor) materializeZones(f func(z int) zoneVerdict) *zoneScan {
	nz := morselCount(ex.t.NumRows())
	zs := &zoneScan{verdicts: make([]zoneVerdict, nz)}
	for z := 0; z < nz; z++ {
		v := f(z)
		zs.verdicts[z] = v
		switch v {
		case zoneNone:
			zs.none++
		case zoneAll:
			zs.all++
		}
	}
	if zs.none == 0 && zs.all == 0 {
		return nil
	}
	return zs
}

func zoneMaybeFn(int) zoneVerdict { return zoneMaybe }

// zoneLen is the number of rows zone z covers in a table of n rows.
func zoneLen(z, n int) int { return min(morselRows, n-z*morselRows) }

// compileZonePred lowers a predicate tree into a per-zone verdict
// function, mirroring compilePred leaf for leaf. The second result
// reports whether any leaf can ever prove a zone (a tree of only
// unprovable leaves returns false so callers skip consultation).
func (ex *executor) compileZonePred(p Pred) (func(z int) zoneVerdict, bool) {
	t := ex.t
	switch x := p.(type) {
	case *CmpPred:
		switch x.Op {
		case "=", "!=":
			if !t.KeyEqualConsistent(x.Col, x.V) {
				// The row kernel uses Value.Equal here; key bounds prove
				// nothing about fold-insensitive equality.
				return zoneMaybeFn, false
			}
			zones := t.ColumnZones(x.Col)
			lit := x.V.Key()
			want := x.Op == "="
			return func(z int) zoneVerdict {
				zn := &zones[z]
				switch {
				case lit < zn.KeyMin || lit > zn.KeyMax:
					if want {
						return zoneNone
					}
					return zoneAll
				case zn.KeyMin == lit && zn.KeyMax == lit:
					if want {
						return zoneAll
					}
					return zoneNone
				}
				return zoneMaybe
			}, true
		case "<", "<=", ">", ">=":
			lit, ok := x.V.Float()
			if !ok {
				// Range operators apply only between numeric values: a
				// text literal matches nothing anywhere.
				return func(int) zoneVerdict { return zoneNone }, true
			}
			return ex.zoneRangeFn(x.Col, x.Op, lit), true
		}
		return zoneMaybeFn, false
	case *AndPred:
		l, lok := ex.compileZonePred(x.L)
		r, rok := ex.compileZonePred(x.R)
		if !lok && !rok {
			return zoneMaybeFn, false
		}
		return func(z int) zoneVerdict {
			a, b := l(z), r(z)
			switch {
			case a == zoneNone || b == zoneNone:
				return zoneNone
			case a == zoneAll && b == zoneAll:
				return zoneAll
			}
			return zoneMaybe
		}, true
	case *OrPred:
		l, lok := ex.compileZonePred(x.L)
		r, rok := ex.compileZonePred(x.R)
		if !lok && !rok {
			return zoneMaybeFn, false
		}
		return func(z int) zoneVerdict {
			a, b := l(z), r(z)
			switch {
			case a == zoneAll || b == zoneAll:
				return zoneAll
			case a == zoneNone && b == zoneNone:
				return zoneNone
			}
			return zoneMaybe
		}, true
	case *NotPred:
		f, ok := ex.compileZonePred(x.P)
		if !ok {
			return zoneMaybeFn, false
		}
		return func(z int) zoneVerdict {
			switch f(z) {
			case zoneNone:
				return zoneAll
			case zoneAll:
				return zoneNone
			}
			return zoneMaybe
		}, true
	}
	return zoneMaybeFn, false
}

// zoneRangeFn builds the verdict function of one numeric range leaf.
// The row kernel it mirrors is "IsNumeric() && cmpMatch(op,
// Compare(lit))": plain-numeric cells decide on their float ordering,
// NaN cells compare equal to everything (so they match <= and >= but
// never < or >), and non-numeric cells never match.
func (ex *executor) zoneRangeFn(col int, op string, lit float64) func(z int) zoneVerdict {
	zones := ex.t.ColumnZones(col)
	n := ex.t.NumRows()
	if math.IsNaN(lit) {
		if op == "<" || op == ">" {
			// Strict comparison against NaN is false for every cell.
			return func(int) zoneVerdict { return zoneNone }
		}
		// <= / >= against NaN match exactly the numeric (incl. NaN) cells.
		return func(z int) zoneVerdict {
			zn := &zones[z]
			switch numeric := int(zn.NumCount) + int(zn.NaNCount); numeric {
			case 0:
				return zoneNone
			case zoneLen(z, n):
				return zoneAll
			}
			return zoneMaybe
		}
	}
	strict := op == "<" || op == ">"
	return func(z int) zoneVerdict {
		zn := &zones[z]
		var numNone, numAll bool
		switch op {
		case "<":
			numNone, numAll = zn.Min >= lit, zn.Max < lit
		case "<=":
			numNone, numAll = zn.Min > lit, zn.Max <= lit
		case ">":
			numNone, numAll = zn.Max <= lit, zn.Min > lit
		case ">=":
			numNone, numAll = zn.Max < lit, zn.Min >= lit
		}
		if (zn.NumCount == 0 || numNone) && (zn.NaNCount == 0 || strict) {
			return zoneNone
		}
		if int(zn.NumCount)+int(zn.NaNCount) == zoneLen(z, n) &&
			(zn.NumCount == 0 || numAll) && (zn.NaNCount == 0 || !strict) {
			return zoneAll
		}
		return zoneMaybe
	}
}

// zoneFilterScan evaluates a compiled row predicate over the full row
// space [0, n), morsel by morsel under zone verdicts: zoneNone morsels
// contribute nothing without being read, zoneAll morsels bulk-fill
// their whole row range, zoneMaybe morsels run the per-row predicate.
// Output is identical to the plain scan — ascending, duplicate-free.
// pred must be a compiled non-FuncPred closure (those never error).
func (ex *executor) zoneFilterScan(n int, zs *zoneScan, pred func(int) (bool, error)) ([]int, error) {
	var skipped, shortcut uint64
	buf := ex.ar.ints.get(n)
	nm := morselCount(n)
	for m := 0; m < nm; m++ {
		if err := ex.pollCtx(m * morselRows); err != nil {
			return nil, err
		}
		lo, hi := morselBounds(m, n)
		switch zs.verdicts[m] {
		case zoneNone:
			skipped++
			continue
		case zoneAll:
			shortcut++
			for r := lo; r < hi; r++ {
				buf = append(buf, r)
			}
			continue
		}
		for r := lo; r < hi; r++ {
			ok, err := pred(r)
			if err != nil {
				return nil, err
			}
			if ok {
				buf = append(buf, r)
			}
		}
	}
	statMorselsSkipped.Add(skipped)
	statMorselsShortcut.Add(shortcut)
	return buf, nil
}

// zoneSuperlative answers a full-table superlative over a clean
// all-numeric column from its zone maps, without building the sorted
// index: the global extreme is the extreme of the zone bounds, and
// only zones whose bound achieves it are read to collect the tie
// group (in ascending record order, exactly the index path's output).
// Returns ok=false when consultation is gated off or the sorted index
// is already resident (then the sublinear index path wins).
func (ex *executor) zoneSuperlative(col int, wantMax bool, nums []float64) ([]int, bool, error) {
	t := ex.t
	if !ex.zoneEnabled() || t.NumericIndexBuilt(col) {
		return nil, false, nil
	}
	zones := t.ColumnZones(col)
	if len(zones) == 0 {
		return nil, false, nil
	}
	// An indexable all-numeric column has no NaN and no text cells, so
	// every zone's Min/Max summarise all of its rows.
	best := zones[0].Max
	if !wantMax {
		best = zones[0].Min
	}
	for z := 1; z < len(zones); z++ {
		if wantMax {
			best = max(best, zones[z].Max)
		} else {
			best = min(best, zones[z].Min)
		}
	}
	n := t.NumRows()
	var skipped, shortcut uint64
	buf := ex.ar.ints.get(n)
	for m := range zones {
		if err := ex.pollCtx(m * morselRows); err != nil {
			return nil, false, err
		}
		lo, hi := morselBounds(m, n)
		zn := &zones[m]
		bound := zn.Max
		if !wantMax {
			bound = zn.Min
		}
		switch {
		case bound != best:
			skipped++
		case zn.Min == zn.Max:
			shortcut++
			for r := lo; r < hi; r++ {
				buf = append(buf, r)
			}
		default:
			for r := lo; r < hi; r++ {
				if nums[r] == best {
					buf = append(buf, r)
				}
			}
		}
	}
	statMorselsSkipped.Add(skipped)
	statMorselsShortcut.Add(shortcut)
	return buf, true, nil
}

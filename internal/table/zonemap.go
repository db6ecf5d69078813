package table

import (
	"math"
	"sync/atomic"
)

// ZoneRows is the number of records each zone summarises. The plan
// executor's zone-aware scans walk the row space in blocks of exactly
// this size, so one zone answers for exactly one scan block.
const ZoneRows = 32768

// Zone is the per-block summary of one column over one ZoneRows-aligned
// window of records: numeric min/max over the cells with a (non-NaN)
// numeric interpretation, lexicographic min/max over every canonical
// key, and counts that let a predicate decide whether the block can be
// skipped outright or bulk-accepted without per-row evaluation.
//
// Min/Max are meaningful only when NumCount > 0 (both are 0 otherwise).
// KeyMin/KeyMax range over all cells — including empty ones, whose
// canonical key is "" — and share the table's interned strings, so a
// zone slice costs a fixed ~64 bytes per zone.
type Zone struct {
	Min, Max       float64 // over numeric non-NaN cells; zero-valued when NumCount == 0
	KeyMin, KeyMax string  // lexicographic bounds over all canonical keys
	NumCount       int32   // cells with a numeric interpretation, excluding NaN
	NaNCount       int32   // cells whose numeric interpretation is NaN
	EmptyCount     int32   // cells whose canonical key is ""
}

// zoneMap is one column's published zone slice; immutable once published.
type zoneMap struct {
	zones []Zone
}

// atomicZones is the publication slot of one column's zone map,
// following the same Load/CompareAndSwap/Swap discipline as the sorted
// numeric indexes: concurrent first uses may build duplicate (identical)
// maps, but only the published build is charged to the derived-byte
// account.
type atomicZones = atomic.Pointer[zoneMap]

// ZoneCount returns how many zones summarise n records: ceil(n/ZoneRows).
func ZoneCount(n int) int { return (n + ZoneRows - 1) / ZoneRows }

// zoneBytes estimates the resident cost of a zone slice. Key strings
// are interned shares of the table dictionary, so only the fixed struct
// cost is charged.
func zoneBytes(nz int) int64 { return int64(nz)*64 + sliceHeaderBytes }

// computeZone summarises rows [lo,hi) of one column.
func computeZone(cd *columnData, lo, hi int) Zone {
	var z Zone
	for r := lo; r < hi; r++ {
		k := cd.keys[r]
		if r == lo {
			z.KeyMin, z.KeyMax = k, k
		} else if k < z.KeyMin {
			z.KeyMin = k
		} else if k > z.KeyMax {
			z.KeyMax = k
		}
		if k == "" {
			z.EmptyCount++
		}
		if !cd.isNum[r] {
			continue
		}
		f := cd.nums[r]
		if math.IsNaN(f) {
			z.NaNCount++
			continue
		}
		if z.NumCount == 0 {
			z.Min, z.Max = f, f
		} else if f < z.Min {
			z.Min = f
		} else if f > z.Max {
			z.Max = f
		}
		z.NumCount++
	}
	return z
}

// computeZones builds the full zone slice of one column over n records.
func computeZones(cd *columnData, n int) []Zone {
	zones := make([]Zone, ZoneCount(n))
	for z := range zones {
		lo := z * ZoneRows
		hi := min(lo+ZoneRows, n)
		zones[z] = computeZone(cd, lo, hi)
	}
	return zones
}

// Process-wide zone-map observability, mirroring the plan executor's
// process-wide counters: builds counts every published zone-map build (initial,
// incremental under Append, and rebuilds after eviction); bytes tracks
// the currently resident zone-map footprint across all tables.
var (
	zoneBuilds        atomic.Uint64
	zoneResidentBytes atomic.Int64
)

// ZoneMapStats reports process-wide zone-map counters: total published
// builds and currently resident zone-map bytes.
func ZoneMapStats() (builds uint64, bytes int64) {
	return zoneBuilds.Load(), zoneResidentBytes.Load()
}

// publishZones CAS-publishes a freshly built zone slice for column c,
// charging the derived-byte account on success. Returns the resident
// slice (the freshly published one, or the concurrent winner).
func (t *Table) publishZones(c int, zones []Zone) []Zone {
	if t.zones[c].CompareAndSwap(nil, &zoneMap{zones: zones}) {
		sz := zoneBytes(len(zones))
		t.mem.derived.Add(sz)
		t.memNotify(sz)
		zoneBuilds.Add(1)
		zoneResidentBytes.Add(sz)
		return zones
	}
	if zm := t.zones[c].Load(); zm != nil {
		return zm.zones
	}
	return zones
}

// ColumnZones returns the zone maps of column c — one Zone per
// ZoneRows-aligned block of records, ZoneCount(NumRows()) in total.
// The map is built lazily on first use, published atomically, and may
// be dropped again under memory pressure (DropDerivedIndexes); the
// returned slice is shared and must not be modified.
func (t *Table) ColumnZones(c int) []Zone {
	if zm := t.zones[c].Load(); zm != nil {
		return zm.zones
	}
	return t.publishZones(c, computeZones(&t.cols[c], len(t.rows)))
}

// ZonesBuilt reports whether column c currently has a published zone
// map (without building one).
func (t *Table) ZonesBuilt(c int) bool { return t.zones[c].Load() != nil }

// inheritZones maintains zone maps incrementally under copy-on-write
// Append: for every column whose parent published a zone map, the
// zones covering full parent blocks are copied verbatim (the shared
// prefix rows are bitwise identical) and only the trailing, partially
// filled or new blocks are recomputed. Columns the parent never
// summarised stay lazy in the child too.
func (nt *Table) inheritZones(t *Table) {
	full := len(t.rows) / ZoneRows // parent zones below this index cover full blocks
	n := len(nt.rows)
	for c := range nt.columns {
		pz := t.zones[c].Load()
		if pz == nil {
			continue
		}
		zones := make([]Zone, ZoneCount(n))
		copy(zones, pz.zones[:min(full, len(zones))])
		for z := full; z < len(zones); z++ {
			lo := z * ZoneRows
			zones[z] = computeZone(&nt.cols[c], lo, min(lo+ZoneRows, n))
		}
		nt.publishZones(c, zones)
	}
}

// ZoneSnapshot returns every column's zone maps for persistence: the
// published map where one exists, otherwise a transiently computed one
// (not published, not charged — a checkpoint of a cold table should not
// warm it). The outer slice is freshly allocated; inner slices may be
// shared with the table and must not be modified.
func (t *Table) ZoneSnapshot() [][]Zone {
	out := make([][]Zone, len(t.columns))
	for c := range t.columns {
		if zm := t.zones[c].Load(); zm != nil {
			out[c] = zm.zones
		} else {
			out[c] = computeZones(&t.cols[c], len(t.rows))
		}
	}
	return out
}

// InstallZoneMaps publishes zone maps recovered from a segment footer,
// skipping the rebuild scan. A snapshot whose shape does not match the
// table (wrong column count, wrong zone count for the row count) is
// ignored wholesale — the maps are rebuilt lazily instead, so a stale
// or foreign footer can never corrupt query results.
func (t *Table) InstallZoneMaps(zones [][]Zone) {
	if len(zones) != len(t.columns) {
		return
	}
	want := ZoneCount(len(t.rows))
	for _, zs := range zones {
		if len(zs) != want {
			return
		}
	}
	for c, zs := range zones {
		t.publishZones(c, zs)
	}
}

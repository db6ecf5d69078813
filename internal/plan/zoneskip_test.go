package plan

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"nlexplain/internal/table"
)

// forceZones forces zone-map consultation on every table regardless of
// size (threshold 0), restoring the previous configuration after.
func forceZones(tb testing.TB) {
	tb.Helper()
	prevOn := SetZoneSkipping(true)
	prevT := SetZoneSkipThreshold(0)
	tb.Cleanup(func() {
		SetZoneSkipping(prevOn)
		SetZoneSkipThreshold(prevT)
	})
}

// zonesOff disables zone consultation entirely — the full-scan
// reference configuration of the differential tests.
func zonesOff(tb testing.TB) {
	tb.Helper()
	prev := SetZoneSkipping(false)
	tb.Cleanup(func() { SetZoneSkipping(prev) })
}

// clusteredZoneTable builds an n-row table whose columns actually give
// zone maps something to prove: Seq is monotone (every zone a disjoint
// numeric range), Band is clustered low-cardinality text (most zones
// hold one key), and Mixed is numeric data with NaN, empty and text
// stragglers so verdicts must honour the NaN/empty tallies.
func clusteredZoneTable(tb testing.TB, n int) *table.Table {
	tb.Helper()
	rows := make([][]string, n)
	for i := range rows {
		mixed := strconv.Itoa(i % 1000)
		switch {
		case i%509 == 0:
			mixed = "nan"
		case i%757 == 0:
			mixed = ""
		case i%1021 == 0:
			mixed = "n/a"
		}
		rows[i] = []string{
			strconv.Itoa(i),
			"band" + strconv.Itoa(i/40_000),
			mixed,
		}
	}
	return table.MustNew("clustered", []string{"Seq", "Band", "Mixed"}, rows)
}

// zoneTestPlans enumerates the scan shapes the zone layer rewires:
// fused range conjunctions, equality and inequality over interned
// keys, Or/Not composition, ranges over the dirty Mixed column
// (NaN/empty/text cells), NaN literals, and full-table superlatives.
func zoneTestPlans() map[string]Node {
	num := func(v float64) table.Value { return table.NumberValue(v) }
	return map[string]Node{
		"range_narrow": &Filter{Input: &Scan{}, Pred: &AndPred{
			L: &CmpPred{Col: 0, Op: ">=", V: num(50_000)},
			R: &CmpPred{Col: 0, Op: "<", V: num(51_000)},
		}},
		"range_wide": &Filter{Input: &Scan{}, Pred: &CmpPred{Col: 0, Op: ">=", V: num(10)}},
		"range_none": &Filter{Input: &Scan{}, Pred: &CmpPred{Col: 0, Op: "<", V: num(-5)}},
		"eq_band":    &Filter{Input: &Scan{}, Pred: &CmpPred{Col: 1, Op: "=", V: table.ParseValue("band1")}},
		"ne_band":    &Filter{Input: &Scan{}, Pred: &CmpPred{Col: 1, Op: "!=", V: table.ParseValue("band0")}},
		"eq_missing": &Filter{Input: &Scan{}, Pred: &CmpPred{Col: 1, Op: "=", V: table.ParseValue("nowhere")}},
		"or_bands": &Filter{Input: &Scan{}, Pred: &OrPred{
			L: &CmpPred{Col: 1, Op: "=", V: table.ParseValue("band0")},
			R: &CmpPred{Col: 0, Op: ">=", V: num(110_000)},
		}},
		"not_range": &Filter{Input: &Scan{}, Pred: &NotPred{
			P: &CmpPred{Col: 0, Op: "<", V: num(100_000)},
		}},
		"mixed_range":  &Filter{Input: &Scan{}, Pred: &CmpPred{Col: 2, Op: ">", V: num(500)}},
		"mixed_nan_le": &Filter{Input: &Scan{}, Pred: &CmpPred{Col: 2, Op: "<=", V: num(math.NaN())}},
		"mixed_nan_lt": &Filter{Input: &Scan{}, Pred: &CmpPred{Col: 2, Op: "<", V: num(math.NaN())}},
		"compare_ge":   &Compare{Col: 0, Cmp: ">=", V: num(117_000)},
		"superlative":  &Superlative{Col: 0, Max: true, Input: &Scan{}},
	}
}

// TestZoneForcedMatchesFullScan is the zone-layer differential gate:
// with consultation forced on every table, zone scans must reproduce
// the zones-disabled full scan bitwise — rows, values, witness cells
// and errors.
func TestZoneForcedMatchesFullScan(t *testing.T) {
	tab := clusteredZoneTable(t, 120_000)
	for name, n := range zoneTestPlans() {
		t.Run(name, func(t *testing.T) {
			forceZones(t)
			got, gotErr := runPlan(t, n, tab)
			zonesOff(t)
			want, wantErr := runPlan(t, n, tab)
			if wantErr != gotErr {
				t.Fatalf("error mismatch: full-scan=%q zone=%q", wantErr, gotErr)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("zone scan differs from full scan\nfull: %+v\nzone: %+v", want, got)
			}
		})
	}
}

// TestZoneScanSkipsAndShortcuts proves the counters move: a narrow
// fused range over the monotone column must skip morsels, and an
// always-true range must short-circuit morsels into bulk fills, while
// both keep the result identical to the full scan.
func TestZoneScanSkipsAndShortcuts(t *testing.T) {
	tab := clusteredZoneTable(t, 120_000)
	forceZones(t)
	num := func(v float64) table.Value { return table.NumberValue(v) }

	narrow := &Filter{Input: &Scan{}, Pred: &AndPred{
		L: &CmpPred{Col: 0, Op: ">=", V: num(50_000)},
		R: &CmpPred{Col: 0, Op: "<", V: num(51_000)},
	}}
	_, skipBefore, _ := ExecStats()
	got, errs := runPlan(t, narrow, tab)
	if errs != "" {
		t.Fatal(errs)
	}
	if _, skipAfter, _ := ExecStats(); skipAfter == skipBefore {
		t.Fatal("narrow range over a monotone column skipped no morsels")
	}
	if len(got.Rows) != 1000 || got.Rows[0] != 50_000 {
		t.Fatalf("narrow range rows = %d starting %v, want 1000 starting 50000", len(got.Rows), got.Rows[:min(3, len(got.Rows))])
	}

	all := &Filter{Input: &Scan{}, Pred: &CmpPred{Col: 0, Op: ">=", V: num(0)}}
	_, _, cutBefore := ExecStats()
	got, errs = runPlan(t, all, tab)
	if errs != "" {
		t.Fatal(errs)
	}
	if _, _, cutAfter := ExecStats(); cutAfter == cutBefore {
		t.Fatal("always-true range short-circuited no morsels")
	}
	if len(got.Rows) != tab.NumRows() {
		t.Fatalf("always-true range matched %d of %d rows", len(got.Rows), tab.NumRows())
	}
}

// TestZoneConfigRoundTrip pins the configuration API: setters return
// the previous value, an explicit threshold of 0 forces consultation,
// and a negative threshold restores the default floor.
func TestZoneConfigRoundTrip(t *testing.T) {
	prevOn := SetZoneSkipping(false)
	defer SetZoneSkipping(prevOn)
	if ZoneSkipping() {
		t.Fatal("ZoneSkipping still on after disabling")
	}
	if got := SetZoneSkipping(true); got {
		t.Fatal("SetZoneSkipping(true) did not report the disabled state")
	}

	prevT := SetZoneSkipThreshold(0)
	defer SetZoneSkipThreshold(prevT)
	if ZoneSkipThreshold() != 0 {
		t.Fatalf("forced threshold = %d, want 0", ZoneSkipThreshold())
	}
	if got := SetZoneSkipThreshold(99); got != 0 {
		t.Fatalf("SetZoneSkipThreshold returned %d, want 0", got)
	}
	if ZoneSkipThreshold() != 99 {
		t.Fatalf("threshold = %d, want 99", ZoneSkipThreshold())
	}
	SetZoneSkipThreshold(-1)
	if ZoneSkipThreshold() != table.ZoneRows {
		t.Fatalf("default threshold = %d, want %d", ZoneSkipThreshold(), table.ZoneRows)
	}
}

// TestZoneDisabledBelowThreshold guards the warm small-table path: at
// the default floor, fixture-sized tables never consult zone maps (so
// their allocation profile is untouched by the zone layer).
func TestZoneDisabledBelowThreshold(t *testing.T) {
	tab := table.MustNew("small", []string{"A"}, [][]string{{"1"}, {"2"}, {"3"}})
	ex := &executor{t: tab}
	if ex.zoneEnabled() {
		t.Fatalf("zone consultation enabled for a %d-row table at default threshold %d",
			tab.NumRows(), ZoneSkipThreshold())
	}
}

package minisql

import (
	"testing"

	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// sqlDiffCorpus covers every statement shape the executor supports:
// filters (native and subquery predicates), projections, aggregates,
// grouping, ordering, DISTINCT, LIMIT, UNION and scalar difference.
var sqlDiffCorpus = []string{
	"SELECT * FROM T",
	"SELECT City FROM T",
	"SELECT Year, City FROM T",
	"SELECT City FROM T WHERE Country = 'Greece'",
	"SELECT City FROM T WHERE Country = 'Nowhere'",
	"SELECT City FROM T WHERE Year > 2000",
	"SELECT City FROM T WHERE Year >= 2004 AND Country != 'China'",
	"SELECT City FROM T WHERE Country = 'Greece' OR Country = 'UK'",
	"SELECT City FROM T WHERE NOT (Country = 'Greece')",
	"SELECT City FROM T WHERE 1900 < Year",
	"SELECT DISTINCT Country FROM T",
	"SELECT DISTINCT City FROM T WHERE Country = 'Greece'",
	"SELECT City FROM T ORDER BY Year DESC",
	"SELECT City FROM T ORDER BY Year DESC LIMIT 1",
	"SELECT City FROM T ORDER BY Index DESC LIMIT 2",
	"SELECT Year FROM T WHERE Index = 0",
	"SELECT COUNT(*) FROM T",
	"SELECT COUNT(*) FROM T WHERE Country = 'Greece'",
	"SELECT COUNT(DISTINCT Country) FROM T",
	"SELECT MAX(Year) FROM T WHERE Country = 'Greece'",
	"SELECT MIN(Year), MAX(Year) FROM T",
	"SELECT SUM(Year) FROM T WHERE City = 'Athens'",
	"SELECT AVG(Year) FROM T WHERE City = 'Athens'",
	"SELECT Country FROM T GROUP BY Country",
	"SELECT Country, COUNT(*) FROM T GROUP BY Country",
	"SELECT Country FROM T GROUP BY Country ORDER BY COUNT(*) DESC LIMIT 1",
	"SELECT City FROM T WHERE Year = (SELECT MAX(Year) FROM T)",
	"SELECT City FROM T WHERE Year IN (SELECT Year FROM T WHERE Country = 'Greece')",
	"SELECT City FROM T WHERE Country = 'Greece' UNION SELECT City FROM T WHERE Country = 'UK'",
	"SELECT City FROM T UNION SELECT City FROM T",
	"(SELECT COUNT(*) FROM T WHERE City = 'Athens') - (SELECT COUNT(*) FROM T WHERE City = 'London')",
	"SELECT MAX(Year) FROM T WHERE MIN(Year) > 1800",
	"SELECT City FROM T WHERE (SELECT MAX(Year) FROM T WHERE Country = 'Atlantis') > 2000",
}

// TestSQLPlanDifferential runs every corpus statement through the
// legacy interpreter and the plan path and requires identical columns,
// data, and source-row bookkeeping.
func TestSQLPlanDifferential(t *testing.T) {
	tab := olympics(t)
	for _, src := range sqlDiffCorpus {
		src := src
		t.Run(src, func(t *testing.T) {
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", src, err)
			}
			want, werr := ExecInterpreted(q, tab)
			got, gerr := Exec(q, tab)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("error divergence: interpreter=%v plan=%v", werr, gerr)
			}
			if werr != nil {
				return
			}
			assertSameRows(t, want, got)
		})
	}
}

// TestSQLPlanDifferentialParallel runs the corpus through the plan
// path twice — with zone-map skipping disabled and with zone-map
// consultation forced on every table (threshold 0) — and requires
// identical rows, columns and source bookkeeping. GROUP BY, DISTINCT
// and projection outputs must be order-identical, not just
// set-identical. (The name predates the removal of the morsel-parallel
// executor this test used to force on instead.)
func TestSQLPlanDifferentialParallel(t *testing.T) {
	prevZOn := plan.SetZoneSkipping(true)
	prevZT := plan.SetZoneSkipThreshold(0)
	defer func() {
		plan.SetZoneSkipping(prevZOn)
		plan.SetZoneSkipThreshold(prevZT)
	}()
	tab := olympics(t)
	for _, src := range sqlDiffCorpus {
		src := src
		t.Run(src, func(t *testing.T) {
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", src, err)
			}
			plan.SetZoneSkipping(false)
			want, werr := Exec(q, tab)
			plan.SetZoneSkipping(true)
			got, gerr := Exec(q, tab)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("error divergence: zones-off=%v zones-forced=%v", werr, gerr)
			}
			if werr != nil {
				if werr.Error() != gerr.Error() {
					t.Fatalf("error text diverged:\nzones-off:    %v\nzones-forced: %v", werr, gerr)
				}
				return
			}
			assertSameRows(t, want, got)
		})
	}
}

// TestSQLPlanDifferentialErrors checks error parity on the statements
// the interpreter rejects at runtime.
func TestSQLPlanDifferentialErrors(t *testing.T) {
	tab := olympics(t)
	for _, src := range []string{
		"SELECT MAX(Year) FROM T WHERE Country = 'Atlantis'",                   // empty aggregate
		"SELECT SUM(City) FROM T",                                              // non-numeric sum
		"SELECT City FROM T UNION SELECT Year, City FROM T",                    // width mismatch
		"SELECT City FROM T WHERE Year = (SELECT Year FROM T)",                 // non-scalar subquery
		"(SELECT City FROM T WHERE Country = 'UK') - (SELECT COUNT(*) FROM T)", // non-numeric diff operand is scalar here; shape ok
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		_, werr := ExecInterpreted(q, tab)
		_, gerr := Exec(q, tab)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("%s: error divergence: interpreter=%v plan=%v", src, werr, gerr)
		}
	}
}

func assertSameRows(t *testing.T, want, got *Rows) {
	t.Helper()
	if len(want.Cols) != len(got.Cols) {
		t.Fatalf("cols = %v, want %v", got.Cols, want.Cols)
	}
	for i := range want.Cols {
		if want.Cols[i] != got.Cols[i] {
			t.Fatalf("cols = %v, want %v", got.Cols, want.Cols)
		}
	}
	if len(want.Data) != len(got.Data) {
		t.Fatalf("%d rows, want %d", len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if len(want.Data[i]) != len(got.Data[i]) {
			t.Fatalf("row %d: %v, want %v", i, got.Data[i], want.Data[i])
		}
		for j := range want.Data[i] {
			if !want.Data[i][j].Equal(got.Data[i][j]) {
				t.Fatalf("row %d: %v, want %v", i, got.Data[i], want.Data[i])
			}
		}
	}
	if len(want.Src) != len(got.Src) {
		t.Fatalf("src = %v, want %v", got.Src, want.Src)
	}
	for i := range want.Src {
		if want.Src[i] != got.Src[i] {
			t.Fatalf("src = %v, want %v", got.Src, want.Src)
		}
	}
}

// TestSQLPlanDifferentialNaN pins Equal semantics for predicates over
// NaN cells: the interpreter's Value.Equal never matches NaN, so the
// plan path must not serve such predicates from the key-identity index.
func TestSQLPlanDifferentialNaN(t *testing.T) {
	tab := table.MustNew("nums",
		[]string{"Label", "N"},
		[][]string{
			{"a", "1"},
			{"b", "nan"},
			{"c", "3"},
		})
	for _, src := range []string{
		"SELECT Label FROM T WHERE N = 'nan'",
		"SELECT Label FROM T WHERE N != 'nan'",
		"SELECT Label FROM T WHERE N != 3",
		"SELECT Label FROM T WHERE N > 0",
		"SELECT Label FROM T WHERE N <= 3",
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		want, werr := ExecInterpreted(q, tab)
		got, gerr := Exec(q, tab)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error divergence: interpreter=%v plan=%v", src, werr, gerr)
		}
		if werr != nil {
			continue
		}
		assertSameRows(t, want, got)
	}
}

// TestSourceRowsMixedComputed covers the -1 computed-row sentinel on a
// result mixing source-backed and computed rows: a UNION of a plain
// selection with an aggregate keeps the selection's record indices and
// marks the aggregate row computed, and SourceRows must skip only the
// sentinel rows.
func TestSourceRowsMixedComputed(t *testing.T) {
	tab := table.MustNew("nums",
		[]string{"Label", "N"},
		[][]string{
			{"a", "3"},
			{"b", "1896"},
			{"c", "3"},
		})
	r, err := Run("SELECT N FROM T WHERE Label = 'b' UNION SELECT COUNT(*) FROM T", tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Data) != 2 {
		t.Fatalf("rows = %v", r.Data)
	}
	if r.Src[0] != 1 || r.Src[1] != -1 {
		t.Fatalf("Src = %v, want [1 -1] (source row then computed sentinel)", r.Src)
	}
	rows := r.SourceRows()
	if len(rows) != 1 || rows[0] != 1 {
		t.Fatalf("SourceRows = %v, want [1]", rows)
	}
}

package table

import (
	"math/rand"
	"strings"
	"testing"
)

func olympics(t *testing.T) *Table {
	t.Helper()
	tab, err := New("olympics",
		[]string{"Year", "Country", "City"},
		[][]string{
			{"1896", "Greece", "Athens"},
			{"1900", "France", "Paris"},
			{"2004", "Greece", "Athens"},
			{"2008", "China", "Beijing"},
			{"2012", "UK", "London"},
			{"2016", "Brazil", "Rio de Janeiro"},
		})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tab
}

func TestNewValidation(t *testing.T) {
	if _, err := New("t", nil, nil); err == nil {
		t.Error("New with no columns should fail")
	}
	if _, err := New("t", []string{"A", "a"}, nil); err == nil {
		t.Error("New with duplicate (case-insensitive) columns should fail")
	}
	if _, err := New("t", []string{"A"}, [][]string{{"1", "2"}}); err == nil {
		t.Error("New with ragged row should fail")
	}
}

func TestDimensions(t *testing.T) {
	tab := olympics(t)
	if tab.NumRows() != 6 || tab.NumCols() != 3 {
		t.Errorf("dims = %dx%d, want 6x3", tab.NumRows(), tab.NumCols())
	}
	if tab.Name() != "olympics" {
		t.Errorf("Name = %q", tab.Name())
	}
}

func TestColumnIndexCaseInsensitive(t *testing.T) {
	tab := olympics(t)
	for _, name := range []string{"Year", "year", " YEAR "} {
		if i, ok := tab.ColumnIndex(name); !ok || i != 0 {
			t.Errorf("ColumnIndex(%q) = %d,%v, want 0,true", name, i, ok)
		}
	}
	if _, ok := tab.ColumnIndex("Nope"); ok {
		t.Error("ColumnIndex of unknown column should report false")
	}
}

func TestRecordsWhere(t *testing.T) {
	tab := olympics(t)
	country, _ := tab.ColumnIndex("Country")
	got := tab.RecordsWhere(country, StringValue("Greece"))
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("RecordsWhere(Country, Greece) = %v, want [0 2]", got)
	}
	if got := tab.RecordsWhere(country, StringValue("Atlantis")); len(got) != 0 {
		t.Errorf("RecordsWhere of absent value = %v, want empty", got)
	}
	// KB lookup must be case-insensitive like entity matching.
	if got := tab.RecordsWhere(country, StringValue("greece")); len(got) != 2 {
		t.Errorf("case-insensitive lookup failed: %v", got)
	}
}

func TestRecordsWhereNumeric(t *testing.T) {
	tab := olympics(t)
	year, _ := tab.ColumnIndex("Year")
	got := tab.RecordsWhere(year, NumberValue(2004))
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("RecordsWhere(Year, 2004) = %v, want [2]", got)
	}
}

func TestColumnCells(t *testing.T) {
	tab := olympics(t)
	cells := tab.ColumnCells(1)
	if len(cells) != 6 {
		t.Fatalf("ColumnCells length = %d", len(cells))
	}
	for r, c := range cells {
		if c.Row != r || c.Col != 1 {
			t.Errorf("cell %d = %v", r, c)
		}
	}
}

func TestDistinctColumnValues(t *testing.T) {
	tab := olympics(t)
	city, _ := tab.ColumnIndex("City")
	vals := tab.DistinctColumnValues(city)
	want := []string{"Athens", "Paris", "Beijing", "London", "Rio de Janeiro"}
	if len(vals) != len(want) {
		t.Fatalf("distinct values = %v", vals)
	}
	for i, w := range want {
		if vals[i].Str != w {
			t.Errorf("distinct[%d] = %q, want %q", i, vals[i].Str, w)
		}
	}
}

func TestFromCSV(t *testing.T) {
	src := "Year,Country,City\n1896,Greece,Athens\n2004,Greece,Athens\n"
	tab, err := FromCSV("csv", strings.NewReader(src))
	if err != nil {
		t.Fatalf("FromCSV: %v", err)
	}
	if tab.NumRows() != 2 || tab.NumCols() != 3 {
		t.Errorf("dims = %dx%d", tab.NumRows(), tab.NumCols())
	}
	if tab.Value(0, 0).Kind != Number {
		t.Error("CSV year should parse as number")
	}
}

func TestFromCSVErrors(t *testing.T) {
	if _, err := FromCSV("e", strings.NewReader("")); err == nil {
		t.Error("empty CSV should fail")
	}
}

func TestTableString(t *testing.T) {
	s := olympics(t).String()
	if !strings.Contains(s, "Year") || !strings.Contains(s, "Rio de Janeiro") {
		t.Errorf("String() missing content:\n%s", s)
	}
	if lines := strings.Count(s, "\n"); lines != 7 {
		t.Errorf("String() has %d lines, want 7", lines)
	}
}

// newCellSet builds a set from references given in any order, with
// duplicates allowed.
func newCellSet(cells ...CellRef) CellSet { return DedupCells(cells) }

func TestCellSetOperations(t *testing.T) {
	a := newCellSet(CellRef{0, 0}, CellRef{1, 1})
	b := newCellSet(CellRef{1, 1}, CellRef{2, 2})
	if !a.Contains(CellRef{0, 0}) || a.Contains(CellRef{2, 2}) {
		t.Error("Contains broken")
	}
	u := CellSet(MergeCells(nil, a, b))
	if len(u) != 3 {
		t.Errorf("union size = %d, want 3", len(u))
	}
	i := CellSet(IntersectCells(nil, a, b))
	if len(i) != 1 || !i.Contains(CellRef{1, 1}) {
		t.Errorf("intersect = %v", i)
	}
	if !a.SubsetOf(u) || u.SubsetOf(a) {
		t.Error("SubsetOf broken")
	}
}

// TestCellSetAlgebraMatchesMapModel checks every slice-set operation
// against a map model on random small sets.
func TestCellSetAlgebraMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func() (CellSet, map[CellRef]bool) {
		var cells []CellRef
		m := map[CellRef]bool{}
		for n := rng.Intn(12); n > 0; n-- {
			c := CellRef{Row: rng.Intn(5), Col: rng.Intn(3)}
			cells = append(cells, c)
			m[c] = true
		}
		return newCellSet(cells...), m
	}
	isSet := func(s CellSet) bool { // strictly increasing: sorted, no duplicates
		for j := 1; j < len(s); j++ {
			if !s[j-1].Less(s[j]) {
				return false
			}
		}
		return true
	}
	for i := 0; i < 2000; i++ {
		a, am := draw()
		b, bm := draw()
		if len(a) != len(am) || !isSet(a) {
			t.Fatalf("DedupCells = %v, not the sorted distinct members", a)
		}
		union, inter := map[CellRef]bool{}, map[CellRef]bool{}
		subset := true
		for c := range am {
			union[c] = true
			if bm[c] {
				inter[c] = true
			} else {
				subset = false
			}
		}
		for c := range bm {
			union[c] = true
		}
		for _, op := range []struct {
			name string
			got  CellSet
			want map[CellRef]bool
		}{
			{"merge", MergeCells(nil, a, b), union},
			{"intersect", IntersectCells(nil, a, b), inter},
		} {
			if len(op.got) != len(op.want) || !isSet(op.got) {
				t.Fatalf("%s(%v, %v) = %v", op.name, a, b, op.got)
			}
			for _, c := range op.got {
				if !op.want[c] {
					t.Fatalf("%s(%v, %v) = %v", op.name, a, b, op.got)
				}
			}
		}
		if a.SubsetOf(b) != subset {
			t.Fatalf("%v.SubsetOf(%v) = %v", a, b, !subset)
		}
		for r := 0; r < 5; r++ {
			for c := 0; c < 3; c++ {
				if ref := (CellRef{r, c}); a.Contains(ref) != am[ref] {
					t.Fatalf("%v.Contains(%v) wrong", a, ref)
				}
			}
		}
	}
}

func TestCellSetRows(t *testing.T) {
	s := newCellSet(CellRef{3, 0}, CellRef{1, 2}, CellRef{3, 1})
	rows := s.Rows()
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 3 {
		t.Errorf("Rows = %v, want [1 3]", rows)
	}
}

func TestCellSetSortedDeterministic(t *testing.T) {
	s := CellSet(DedupCells([]CellRef{{2, 1}, {0, 5}, {2, 0}, {0, 5}}))
	got := s
	want := []CellRef{{0, 5}, {2, 0}, {2, 1}}
	if len(got) != len(want) {
		t.Fatalf("DedupCells = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DedupCells = %v, want %v", got, want)
		}
	}
	if s.String() != "{(0,5) (2,0) (2,1)}" {
		t.Errorf("String = %q", s.String())
	}
}

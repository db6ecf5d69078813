package provenance_test

import (
	"math/rand"
	"slices"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/plan"
	"nlexplain/internal/provenance"
	"nlexplain/internal/qrand"
	"nlexplain/internal/table"
	"nlexplain/internal/workload"
)

// The reference oracle follows Definition 4.1 literally, on the legacy
// tree-walking interpreter rather than the traced plan:
//
//	PO = the cells of Q(T);
//	PE = the union of PO over every sub-formula of QSUB (Algorithm 1);
//	PC = every cell of the columns Q mentions, plus PE.
//
// Sub-formulas without a standalone denotation (lambda bodies with a
// free variable) fail to execute and contribute nothing.
func oracle(q dcs.Expr, t *table.Table) (po, pe, pc []table.CellRef, err error) {
	top, err := dcs.ExecuteInterpreted(q, t)
	if err != nil {
		return nil, nil, nil, err
	}
	po = sortedUnique(top.Cells)
	for _, sub := range dcs.Subqueries(q) {
		if r, err := dcs.ExecuteInterpreted(sub, t); err == nil {
			pe = append(pe, r.Cells...)
		}
	}
	pe = sortedUnique(pe)
	pc = append(pc, pe...)
	for _, name := range dcs.Columns(q) {
		col, _ := t.ColumnIndex(name)
		for r := 0; r < t.NumRows(); r++ {
			pc = append(pc, table.CellRef{Row: r, Col: col})
		}
	}
	return po, pe, sortedUnique(pc), nil
}

func sortedUnique(cells []table.CellRef) []table.CellRef {
	out := slices.Clone(cells)
	slices.SortFunc(out, func(a, b table.CellRef) int {
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	})
	return slices.Compact(out)
}

// outermostSub finds the outermost arithmetic difference of q, if any.
func outermostSub(q dcs.Expr) *dcs.Sub {
	if s, ok := q.(*dcs.Sub); ok {
		return s
	}
	for _, c := range q.Children() {
		if s := outermostSub(c); s != nil {
			return s
		}
	}
	return nil
}

// sampleOracle is Section 5.3 by brute force: the earliest record of
// PO (of each operand, for a difference), then per stratum PE∖PO and
// PC∖PE the earliest record not already chosen, found by scanning the
// whole table cell by cell.
func sampleOracle(q dcs.Expr, t *table.Table, po, pe, pc []table.CellRef) []int {
	chosen := map[int]bool{}
	earliest := func(cells []table.CellRef) {
		if len(cells) > 0 {
			chosen[slices.MinFunc(cells, func(a, b table.CellRef) int { return a.Row - b.Row }).Row] = true
		}
	}
	if sub := outermostSub(q); sub != nil {
		for _, side := range []dcs.Expr{sub.L, sub.R} {
			if r, err := dcs.ExecuteInterpreted(side, t); err == nil {
				earliest(r.Cells)
			}
		}
	} else {
		earliest(po)
	}
	stratum := func(in, out []table.CellRef) {
		for r := 0; r < t.NumRows(); r++ {
			if chosen[r] {
				continue
			}
			for c := 0; c < t.NumCols(); c++ {
				ref := table.CellRef{Row: r, Col: c}
				if slices.Contains(in, ref) && !slices.Contains(out, ref) {
					chosen[r] = true
					return
				}
			}
		}
	}
	stratum(pe, po)
	stratum(pc, pe)
	out := make([]int, 0, len(chosen))
	for r := range chosen {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// checkDefinition41 compares the single traced run's provenance and
// sample with the oracles; it reports whether q had a denotation.
func checkDefinition41(t *testing.T, q dcs.Expr, tab *table.Table) bool {
	t.Helper()
	po, pe, pc, werr := oracle(q, tab)
	h, gerr := provenance.Highlight(q, tab)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s on %s: error divergence: oracle=%v traced=%v", q, tab.Name(), werr, gerr)
	}
	if werr != nil {
		return false
	}
	gpo, gpe, gpc := h.Prov.Levels()
	for _, l := range []struct {
		name      string
		got, want []table.CellRef
	}{{"PO", gpo, po}, {"PE", gpe, pe}, {"PC", gpc, pc}} {
		if !slices.Equal(l.got, l.want) {
			t.Fatalf("%s on %s: %s = %v, Definition 4.1 gives %v", q, tab.Name(), l.name, l.got, l.want)
		}
	}
	if got, want := provenance.Sample(q, tab, h), sampleOracle(q, tab, po, pe, pc); !slices.Equal(got, want) {
		t.Fatalf("%s on %s: Sample = %v, brute force gives %v", q, tab.Name(), got, want)
	}
	return true
}

// forceZones routes every scan through the zone-map verdict layer for
// the rest of the test, as the answer differentials do.
func forceZones(tb testing.TB) {
	prevOn, prevT := plan.SetZoneSkipping(true), plan.SetZoneSkipThreshold(0)
	tb.Cleanup(func() {
		plan.SetZoneSkipping(prevOn)
		plan.SetZoneSkipThreshold(prevT)
	})
}

// corpusQueries returns the queries of the explain and mixed workload
// mixes, each with its corpus table.
func corpusQueries(corpus *workload.Corpus, seed int64, n int) (qs []dcs.Expr, tabs []*table.Table) {
	for _, name := range []string{"explain", "mixed"} {
		mix, _ := workload.MixByName(name)
		for _, op := range workload.NewGenerator(seed, mix, corpus).Ops(n) {
			tab, ok := corpus.Table(op.Table)
			if !ok || op.Query == "" {
				continue
			}
			q, err := dcs.Parse(op.Query)
			if err != nil {
				continue // the malformed family
			}
			qs, tabs = append(qs, q), append(tabs, tab)
		}
	}
	return qs, tabs
}

// TestProvenanceMatchesDefinition41 checks the traced PO/PE/PC and the
// Section 5.3 sample against the reference oracles on random qrand
// tables and queries and on the workload corpus mixes, with zone-map
// consultation at its default and forced.
func TestProvenanceMatchesDefinition41(t *testing.T) {
	trials := 1500
	if testing.Short() {
		trials = 200
	}
	corpus := workload.NewCorpus(1)
	qs, tabs := corpusQueries(corpus, 1, 200)
	for _, zones := range []string{"default", "forced"} {
		t.Run("zones-"+zones, func(t *testing.T) {
			if zones == "forced" {
				forceZones(t)
			}
			rng := rand.New(rand.NewSource(41))
			checked := 0
			for i := 0; i < trials; i++ {
				tab := qrand.Table(rng)
				if checkDefinition41(t, qrand.Query(rng, tab, 1+rng.Intn(3)), tab) {
					checked++
				}
			}
			for i, q := range qs {
				if checkDefinition41(t, q, tabs[i]) {
					checked++
				}
			}
			if checked < (trials+len(qs))/2 {
				t.Fatalf("only %d of %d queries had a denotation", checked, trials+len(qs))
			}
		})
	}
}

// FuzzProvenanceDifferential fuzzes the oracle comparison with zone-map
// consultation forced: a seed picks either a random qrand table and
// query of the given depth, or an explain-mix query over the workload
// corpus.
func FuzzProvenanceDifferential(f *testing.F) {
	forceZones(f)
	for i := int64(0); i < 16; i++ {
		f.Add(i, uint8(i%3), i%2 == 0)
	}
	corpus := workload.NewCorpus(1)
	explainMix, _ := workload.MixByName("explain")
	f.Fuzz(func(t *testing.T, seed int64, depth uint8, fromCorpus bool) {
		if fromCorpus {
			op := workload.NewGenerator(seed, explainMix, corpus).Next()
			tab, _ := corpus.Table(op.Table)
			checkDefinition41(t, dcs.MustParse(op.Query), tab)
			return
		}
		rng := rand.New(rand.NewSource(seed))
		tab := qrand.Table(rng)
		checkDefinition41(t, qrand.Query(rng, tab, 1+int(depth%4)), tab)
	})
}

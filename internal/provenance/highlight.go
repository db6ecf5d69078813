package provenance

import (
	"context"
	"slices"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

// Marking is the visual class assigned to a table cell by the
// Highlight procedure of Section 5.2: colored cells are PO, framed
// cells PE, lit cells PC, and all other cells are unrelated to the
// query.
type Marking int

const (
	// None marks cells unrelated to the query.
	None Marking = iota
	// Lit marks PC cells: columns projected or aggregated on.
	Lit
	// Framed marks PE cells: examined during execution.
	Framed
	// Colored marks PO cells: the query output or its direct inputs.
	Colored
)

// String names the marking as in the paper.
func (m Marking) String() string {
	switch m {
	case Lit:
		return "lit"
	case Framed:
		return "framed"
	case Colored:
		return "colored"
	default:
		return "none"
	}
}

// Highlights is the result of Algorithm 1: the provenance sets, from
// which every cell's strongest marking is read.
type Highlights struct {
	Prov *Prov
}

// Highlight implements Algorithm 1 (Highlight(Q, T, output=true)): it
// recursively computes the multilevel cell-based provenance of q on t
// and assigns each cell its strongest marking — ColorCells(PO),
// FrameCells(PE), LitCells(PC).
func Highlight(q dcs.Expr, t *table.Table) (*Highlights, error) {
	p, err := Compute(q, t)
	if err != nil {
		return nil, err
	}
	return &Highlights{Prov: p}, nil
}

// HighlightCompiled is Highlight for an already-compiled query,
// skipping the recompilation for callers holding a cached plan. The
// top-level execution Result is returned alongside the highlights so
// the explanation pipeline gets both from one traced execution.
func HighlightCompiled(c *dcs.Compiled, t *table.Table) (*Highlights, *dcs.Result, error) {
	return HighlightCompiledCtx(nil, c, t)
}

// HighlightCompiledCtx is HighlightCompiled with cooperative
// cancellation threaded into the traced execution.
func HighlightCompiledCtx(ctx context.Context, c *dcs.Compiled, t *table.Table) (*Highlights, *dcs.Result, error) {
	p, res, err := ComputeCompiledCtx(ctx, c, t)
	if err != nil {
		return nil, nil, err
	}
	return &Highlights{Prov: p}, res, nil
}

// Marking returns the strongest marking of a cell, by binary search
// of PO, then PE, then PC.
func (h *Highlights) Marking(c table.CellRef) Marking {
	switch p := h.Prov; {
	case p.Output.Contains(c):
		return Colored
	case p.Execution.Contains(c):
		return Framed
	case p.Columns.Contains(c):
		return Lit
	}
	return None
}

// MarkingAt returns the marking of the cell at (row, col).
func (h *Highlights) MarkingAt(row, col int) Marking {
	return h.Marking(table.CellRef{Row: row, Col: col})
}

// HeaderAggr returns the aggregate function marked on a column header,
// if any (the MAX in "MAX(Year)" of Figure 1).
func (h *Highlights) HeaderAggr(col int) (dcs.AggrFn, bool) {
	fn, ok := h.Prov.HeaderAggrs[col]
	return fn, ok
}

// CountByMarking tallies cells per marking, a convenience for tests and
// experiment reports. PC holds every marked cell.
func (h *Highlights) CountByMarking() map[Marking]int {
	out := make(map[Marking]int)
	for _, c := range h.Prov.Columns {
		out[h.Marking(c)]++
	}
	return out
}

// Sample implements the record sampling of Section 5.3 for scaling
// highlights to large tables: one record from RO, one from RE∖RO and
// one from RC∖RE, each the earliest such record; queries containing an
// arithmetic difference contribute one record per subtracted operand
// (Figure 7 shows the resulting three-row rendering). Records are
// returned in table order. The strata are walked once each, in row
// order, stopping at the first record not already chosen.
func Sample(q dcs.Expr, t *table.Table, h *Highlights) []int {
	p := h.Prov
	chosen := make([]int, 0, 4)
	add := func(row int) {
		if i, found := slices.BinarySearch(chosen, row); !found {
			chosen = slices.Insert(chosen, i, row)
		}
	}

	// Difference queries contribute one output record per operand.
	if sub := findSub(q); sub != nil {
		for _, side := range []dcs.Expr{sub.L, sub.R} {
			if r, err := dcs.Execute(side, t); err == nil && len(r.Cells) > 0 {
				add(r.Cells[0].Row)
			}
		}
	} else if len(p.Output) > 0 {
		add(p.Output[0].Row)
	}
	if row, ok := firstFresh(p.Execution, p.Output, chosen); ok {
		add(row)
	}
	if row, ok := firstFresh(p.Columns, p.Execution, chosen); ok {
		add(row)
	}
	return chosen
}

// firstFresh returns the row of the first cell of s∖o whose
// record is not yet chosen, so each stratum contributes a fresh
// representative.
func firstFresh(s, o table.CellSet, chosen []int) (int, bool) {
	j := 0
	for _, c := range s {
		for j < len(o) && o[j].Less(c) {
			j++
		}
		if j < len(o) && o[j] == c {
			continue
		}
		if !slices.Contains(chosen, c.Row) {
			return c.Row, true
		}
	}
	return 0, false
}

// findSub locates the outermost arithmetic difference in q, if any.
func findSub(q dcs.Expr) *dcs.Sub {
	if s, ok := q.(*dcs.Sub); ok {
		return s
	}
	for _, c := range q.Children() {
		if s := findSub(c); s != nil {
			return s
		}
	}
	return nil
}

package provenance

import (
	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// Tracer is the provenance hook the shared plan executor calls at
// every operator boundary. The interface itself is declared in
// internal/plan (the executor cannot import this package without a
// cycle through dcs); this package owns its provenance-facing
// implementations: NoopTracer for answer-only execution and
// CellTracer, the full PO-cell tracer used for explanations.
type Tracer = plan.Tracer

// NoopTracer is the inactive tracer: the executor skips all witness
// cell bookkeeping, the fast path for answer-only traffic.
type NoopTracer = plan.Noop

// CellTracer accumulates the union of every operator's PO witness
// cells during one plan execution. Because plan operators correspond
// one-to-one to query sub-expressions (and the rewriter only applies
// PO-preserving rules), the accumulated union equals PE(Q,T) — the
// union of PO over QSUB (Equation 2) — without re-executing each
// sub-query. Each operator's cells arrive sorted, so folding them in
// is one merge walk; the zero value is ready to use.
type CellTracer struct {
	// Cells is the accumulated union.
	Cells table.CellSet
	// spare is the previous union's buffer, the next merge's target.
	spare []table.CellRef
}

// Active reports true: every operator computes its witness cells.
func (c *CellTracer) Active() bool { return true }

// Operator merges one operator's witness cells into the union. The
// cells live in the executor's arena, so the merge copies them.
func (c *CellTracer) Operator(_ string, cells []table.CellRef) {
	if len(cells) == 0 {
		return
	}
	merged := table.MergeCells(c.spare[:0], c.Cells, cells)
	c.spare, c.Cells = c.Cells, merged
}

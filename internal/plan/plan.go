// Package plan is the shared relational plan core both query
// front-ends of the system lower into: lambda DCS expressions
// (internal/dcs) and mini-SQL statements (internal/minisql) compile to
// the same small operator IR, which is then rewritten by rule
// (internal/plan/rewrite.go) and executed by one vectorized executor
// (internal/plan/exec.go) walking the typed column vectors of
// internal/table instead of boxed [][]Value rows.
//
// A plan node denotes one of four result kinds:
//
//	RowsKind   — a set of base-table record indices, always ascending;
//	ValuesKind — an ordered set of distinct cell values (lambda DCS
//	             unaries are sets; first-appearance order is kept);
//	ScalarKind — a single number (aggregate or arithmetic output);
//	TableKind  — a SQL result: labeled columns, data rows and per-row
//	             source record indices.
//
// Provenance capture is factored behind the Tracer interface
// (trace.go): with an inactive tracer the executor skips every witness
// cell computation — the answer-only fast path — while an active
// tracer receives each operator's witness cells at its boundary,
// giving the provenance layer PO (root cells) and PE (union over
// boundaries) in a single execution.
package plan

import (
	"fmt"
	"strings"
	"sync/atomic"

	"nlexplain/internal/table"
)

// Kind is the result kind a plan node denotes.
type Kind int

const (
	// RowsKind denotes a sorted set of base-table record indices.
	RowsKind Kind = iota
	// ValuesKind denotes an ordered set of distinct cell values.
	ValuesKind
	// ScalarKind denotes a single number.
	ScalarKind
	// TableKind denotes a SQL result table.
	TableKind
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case RowsKind:
		return "rows"
	case ValuesKind:
		return "values"
	case ScalarKind:
		return "scalar"
	case TableKind:
		return "table"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one relational plan operator. Nodes are immutable once
// built; the rewriter returns new trees rather than mutating.
type Node interface {
	// Kind is the node's result kind.
	Kind() Kind
	// Op names the operator for tracing and plan rendering.
	Op() string
	// Children returns the direct inputs, for generic traversal.
	Children() []Node
}

// ---- Row-producing operators ----

// Scan denotes every record of the table, in order.
type Scan struct{}

// Kind of a scan is rows.
func (*Scan) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Scan) Op() string { return "Scan" }

// Children is empty.
func (*Scan) Children() []Node { return nil }

// IndexLookup denotes the records whose value in Col equals any of the
// literal Keys — the predicate-pushdown form of Filter(Scan, Col=v)
// answered directly from the table's KB index.
type IndexLookup struct {
	Col  int
	Keys []table.Value

	// keys caches the canonical map keys (Value.Key) of Keys across
	// executions, built on first use — cached plans re-execute without
	// re-lowering each literal. Publication is atomic; racing builders
	// produce identical slices.
	keys atomic.Pointer[[]string]
}

// canonicalKeys returns the memoized Value.Key of every literal.
func (n *IndexLookup) canonicalKeys() []string {
	if p := n.keys.Load(); p != nil {
		return *p
	}
	ks := make([]string, len(n.Keys))
	for i, v := range n.Keys {
		ks[i] = v.Key()
	}
	n.keys.Store(&ks)
	return ks
}

// Kind of an index lookup is rows.
func (*IndexLookup) Kind() Kind { return RowsKind }

// Op names the operator.
func (*IndexLookup) Op() string { return "IndexLookup" }

// Children is empty: the keys are constants.
func (*IndexLookup) Children() []Node { return nil }

// Lookup denotes the records whose value in Col is a member of the
// value set denoted by Input (the lambda DCS join C.v with a computed
// argument). The rewriter folds Lookup over constants to IndexLookup.
type Lookup struct {
	Col   int
	Input Node // ValuesKind
}

// Kind of a lookup is rows.
func (*Lookup) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Lookup) Op() string { return "Lookup" }

// Children returns the value input.
func (l *Lookup) Children() []Node { return []Node{l.Input} }

// Compare denotes the records whose value in Col satisfies Op against
// the literal V, over the whole table — the comparative of the paper.
// Range operators (<, <=, >, >=) apply only between numeric values and
// are answered from the lazily built sorted numeric index in O(log n);
// "!=" is entity inequality and "=" entity equality.
type Compare struct {
	Col int
	Cmp string // < <= > >= != =
	V   table.Value

	// key caches V.Key() across executions of a cached plan.
	key atomic.Pointer[string]
}

// canonicalKey returns the memoized V.Key().
func (n *Compare) canonicalKey() string {
	if p := n.key.Load(); p != nil {
		return *p
	}
	k := n.V.Key()
	n.key.Store(&k)
	return k
}

// Kind of a comparison is rows.
func (*Compare) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Compare) Op() string { return "Compare" }

// Children is empty.
func (*Compare) Children() []Node { return nil }

// Filter denotes the records of Input that satisfy Pred, preserving
// order. Native predicates (CmpPred) are pushed into IndexLookup or
// Compare by the rewriter; opaque FuncPred closures evaluate per row.
type Filter struct {
	Input Node // RowsKind
	Pred  Pred
}

// Kind of a filter is rows.
func (*Filter) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Filter) Op() string { return "Filter" }

// Children returns the row input.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// Shift denotes the records Delta positions away from Input's records
// (Prev is -1, Next is +1), clipped to the table.
type Shift struct {
	Input Node // RowsKind
	Delta int
}

// Kind of a shift is rows.
func (*Shift) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Shift) Op() string { return "Shift" }

// Children returns the row input.
func (s *Shift) Children() []Node { return []Node{s.Input} }

// Intersect denotes the records common to both inputs.
type Intersect struct{ L, R Node }

// Kind of an intersection is rows.
func (*Intersect) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Intersect) Op() string { return "Intersect" }

// Children returns both inputs.
func (n *Intersect) Children() []Node { return []Node{n.L, n.R} }

// Union denotes the set union of two inputs of the same kind (rows or
// values).
type Union struct{ L, R Node }

// Kind of a union follows its operands.
func (n *Union) Kind() Kind { return n.L.Kind() }

// Op names the operator.
func (*Union) Op() string { return "Union" }

// Children returns both inputs.
func (n *Union) Children() []Node { return []Node{n.L, n.R} }

// Superlative denotes the records of Input achieving the extreme value
// of column Col (argmax/argmin with ties, Top-1 of the ordering). Over
// a full Scan of an all-numeric column it is answered from the sorted
// numeric index instead of a full comparison scan.
type Superlative struct {
	Input Node // RowsKind
	Col   int
	Max   bool
}

// Kind of a superlative is rows.
func (*Superlative) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Superlative) Op() string { return "Superlative" }

// Children returns the candidate rows.
func (s *Superlative) Children() []Node { return []Node{s.Input} }

// ---- Value-producing operators ----

// Const denotes a constant value set.
type Const struct{ Values []table.Value }

// Kind of a constant is values.
func (*Const) Kind() Kind { return ValuesKind }

// Op names the operator.
func (*Const) Op() string { return "Const" }

// Children is empty.
func (*Const) Children() []Node { return nil }

// ProjectCol denotes the distinct values of column Col over Input's
// records, in first-appearance order (the lambda DCS reverse join
// R[C].records; projection with implicit Distinct).
type ProjectCol struct {
	Input Node // RowsKind
	Col   int
}

// Kind of a column projection is values.
func (*ProjectCol) Kind() Kind { return ValuesKind }

// Op names the operator.
func (*ProjectCol) Op() string { return "ProjectCol" }

// Children returns the row input.
func (p *ProjectCol) Children() []Node { return []Node{p.Input} }

// IndexSuper denotes the value of column Col in the first (or last)
// record of Input — the index superlative R[C].argmin(records, Index).
type IndexSuper struct {
	Input Node // RowsKind
	Col   int
	First bool
}

// Kind of an index superlative is values.
func (*IndexSuper) Kind() Kind { return ValuesKind }

// Op names the operator.
func (*IndexSuper) Op() string { return "IndexSuper" }

// Children returns the row input.
func (s *IndexSuper) Children() []Node { return []Node{s.Input} }

// MostFrequent denotes, among the candidate values (Input, or every
// distinct value of Col when Input is nil), the one appearing the most
// in column Col; ties break to the earliest first appearance.
type MostFrequent struct {
	Input Node // ValuesKind, or nil for all values of Col
	Col   int
}

// Kind of a most-frequent superlative is values.
func (*MostFrequent) Kind() Kind { return ValuesKind }

// Op names the operator.
func (*MostFrequent) Op() string { return "MostFrequent" }

// Children returns the candidate input, when present.
func (m *MostFrequent) Children() []Node {
	if m.Input == nil {
		return nil
	}
	return []Node{m.Input}
}

// CompareVals denotes, among the candidate values of column ValCol,
// the ones whose records achieve the extreme value of column KeyCol
// (the comparing superlative argmax(vals, R[λx.R[C1].C2.x])).
type CompareVals struct {
	Input  Node // ValuesKind
	KeyCol int
	ValCol int
	Max    bool
}

// Kind of a comparing superlative is values.
func (*CompareVals) Kind() Kind { return ValuesKind }

// Op names the operator.
func (*CompareVals) Op() string { return "CompareVals" }

// Children returns the candidate values.
func (c *CompareVals) Children() []Node { return []Node{c.Input} }

// ---- Scalar operators ----

// Aggregate applies Fn (count, min, max, sum, avg) to Input and
// denotes a scalar. Count accepts rows or values; the rest need
// numeric values.
type Aggregate struct {
	Fn    string
	Input Node
}

// Kind of an aggregate is scalar.
func (*Aggregate) Kind() Kind { return ScalarKind }

// Op names the operator.
func (*Aggregate) Op() string { return "Aggregate" }

// Children returns the aggregated input.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

// Arith denotes the arithmetic combination of two scalar-ish inputs
// (singleton value sets or scalars); Op is "-" or "+".
type Arith struct {
	Op2  string
	L, R Node
}

// Kind of an arithmetic node is scalar.
func (*Arith) Kind() Kind { return ScalarKind }

// Op names the operator.
func (*Arith) Op() string { return "Arith" }

// Children returns both operands.
func (a *Arith) Children() []Node { return []Node{a.L, a.R} }

// ---- SQL (table-producing) operators ----

// ProjItem is one SELECT projection: a plain column (Col >= 0), the
// Index pseudo-column, or an opaque per-row expression closure.
type ProjItem struct {
	Label string
	Col   int // base-table column fast path; -1 when Fn or Index is used
	Index bool
	Fn    func(row int) (table.Value, error)
}

// OrderBy is a per-row sort specification for SQLProject.
type OrderBy struct {
	Col   int // base-table column fast path; -1 when Fn or Index is used
	Index bool
	Fn    func(row int) (table.Value, error)
	Desc  bool
}

// SQLProject denotes the row-wise projection of Input's records with
// an optional stable ORDER BY; each output row remembers its source
// record index.
type SQLProject struct {
	Input Node // RowsKind
	Items []ProjItem
	Order *OrderBy
}

// Kind of a projection is a SQL table.
func (*SQLProject) Kind() Kind { return TableKind }

// Op names the operator.
func (*SQLProject) Op() string { return "SQLProject" }

// Children returns the row input.
func (p *SQLProject) Children() []Node { return []Node{p.Input} }

// GroupItem is one aggregate-query projection, evaluated per group.
// Fn receives the group's record indices in executor-owned scratch
// memory: read them during the call, never retain the slice.
type GroupItem struct {
	Label string
	Fn    func(rows []int) (table.Value, error)
}

// SQLAggregate denotes grouping (first-appearance order) and aggregate
// projection over Input's records. GroupCol < 0 means one global
// group; output rows are computed, so their source index is the
// computed-row sentinel -1.
type SQLAggregate struct {
	Input    Node // RowsKind
	GroupCol int
	Items    []GroupItem
	Order    func(rows []int) (table.Value, error)
	Desc     bool
}

// Kind of an aggregate query is a SQL table.
func (*SQLAggregate) Kind() Kind { return TableKind }

// Op names the operator.
func (*SQLAggregate) Op() string { return "SQLAggregate" }

// Children returns the row input.
func (a *SQLAggregate) Children() []Node { return []Node{a.Input} }

// Distinct deduplicates a SQL table's rows by full-row key, keeping
// first appearances. The rewriter eliminates it over provably distinct
// inputs.
type Distinct struct{ Input Node }

// Kind of a distinct is its input's table kind.
func (*Distinct) Kind() Kind { return TableKind }

// Op names the operator.
func (*Distinct) Op() string { return "Distinct" }

// Children returns the table input.
func (d *Distinct) Children() []Node { return []Node{d.Input} }

// Limit truncates a SQL table to its first N rows.
type Limit struct {
	Input Node
	N     int
}

// Kind of a limit is a SQL table.
func (*Limit) Kind() Kind { return TableKind }

// Op names the operator.
func (*Limit) Op() string { return "Limit" }

// Children returns the table input.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// SQLUnion is the deduplicating union of two SQL tables of equal
// width.
type SQLUnion struct{ L, R Node }

// Kind of a union is a SQL table.
func (*SQLUnion) Kind() Kind { return TableKind }

// Op names the operator.
func (*SQLUnion) Op() string { return "SQLUnion" }

// Children returns both inputs.
func (u *SQLUnion) Children() []Node { return []Node{u.L, u.R} }

// SQLDiff is the arithmetic difference of two scalar (1x1) SQL
// queries, producing a single computed row labeled "diff".
type SQLDiff struct{ L, R Node }

// Kind of a difference is a SQL table.
func (*SQLDiff) Kind() Kind { return TableKind }

// Op names the operator.
func (*SQLDiff) Op() string { return "SQLDiff" }

// Children returns both inputs.
func (d *SQLDiff) Children() []Node { return []Node{d.L, d.R} }

// ---- Predicates ----

// Pred is a row predicate usable in Filter.
type Pred interface{ predNode() }

// CmpPred compares column Col's value against the literal V with Op
// (= != < <= > >=): equality is entity equality, range operators apply
// only between numeric values. The rewriter pushes CmpPred over Scan
// into IndexLookup (=) or Compare (range, !=).
type CmpPred struct {
	Col int
	Op  string
	V   table.Value
}

func (*CmpPred) predNode() {}

// AndPred is the short-circuit conjunction of two predicates.
type AndPred struct{ L, R Pred }

func (*AndPred) predNode() {}

// OrPred is the short-circuit disjunction of two predicates.
type OrPred struct{ L, R Pred }

func (*OrPred) predNode() {}

// NotPred negates a predicate.
type NotPred struct{ P Pred }

func (*NotPred) predNode() {}

// FuncPred is an opaque per-row predicate closure, the fallback for
// predicates the front-end cannot express natively (subqueries,
// arithmetic, pseudo-columns).
type FuncPred struct{ Fn func(row int) (bool, error) }

func (*FuncPred) predNode() {}

// Format renders a plan tree as an indented outline, for debugging,
// tests and documentation.
func Format(n Node) string {
	var b strings.Builder
	formatNode(&b, n, 0)
	return b.String()
}

func formatNode(b *strings.Builder, n Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(describe(n))
	b.WriteByte('\n')
	for _, c := range n.Children() {
		formatNode(b, c, depth+1)
	}
}

func describe(n Node) string {
	switch x := n.(type) {
	case *IndexLookup:
		keys := make([]string, len(x.Keys))
		for i, v := range x.Keys {
			keys[i] = v.String()
		}
		return fmt.Sprintf("IndexLookup(col=%d, keys=[%s])", x.Col, strings.Join(keys, ", "))
	case *Lookup:
		return fmt.Sprintf("Lookup(col=%d)", x.Col)
	case *Compare:
		return fmt.Sprintf("Compare(col=%d %s %s)", x.Col, x.Cmp, x.V)
	case *Filter:
		return "Filter(" + describePred(x.Pred) + ")"
	case *Shift:
		return fmt.Sprintf("Shift(%+d)", x.Delta)
	case *Superlative:
		return fmt.Sprintf("Superlative(col=%d, max=%t)", x.Col, x.Max)
	case *Const:
		vals := make([]string, len(x.Values))
		for i, v := range x.Values {
			vals[i] = v.String()
		}
		return "Const[" + strings.Join(vals, ", ") + "]"
	case *ProjectCol:
		return fmt.Sprintf("ProjectCol(col=%d)", x.Col)
	case *IndexSuper:
		return fmt.Sprintf("IndexSuper(col=%d, first=%t)", x.Col, x.First)
	case *MostFrequent:
		return fmt.Sprintf("MostFrequent(col=%d)", x.Col)
	case *CompareVals:
		return fmt.Sprintf("CompareVals(key=%d, val=%d, max=%t)", x.KeyCol, x.ValCol, x.Max)
	case *Aggregate:
		return "Aggregate(" + x.Fn + ")"
	case *Arith:
		return "Arith(" + x.Op2 + ")"
	case *SQLAggregate:
		return fmt.Sprintf("SQLAggregate(group=%d)", x.GroupCol)
	case *Limit:
		return fmt.Sprintf("Limit(%d)", x.N)
	default:
		return n.Op()
	}
}

func describePred(p Pred) string {
	switch x := p.(type) {
	case *CmpPred:
		return fmt.Sprintf("col=%d %s %s", x.Col, x.Op, x.V)
	case *AndPred:
		return describePred(x.L) + " AND " + describePred(x.R)
	case *OrPred:
		return describePred(x.L) + " OR " + describePred(x.R)
	case *NotPred:
		return "NOT " + describePred(x.P)
	case *FuncPred:
		return "fn"
	default:
		return fmt.Sprintf("%T", p)
	}
}

// FamilyOf classifies a plan root into a coarse query family for
// profiling labels: lookup, comparative, superlative, aggregate, sql.
func FamilyOf(n Node) string {
	switch x := n.(type) {
	case *ProjectCol:
		return FamilyOf(x.Input)
	case *SQLProject, *SQLAggregate, *Distinct, *Limit, *SQLUnion, *SQLDiff:
		return "sql"
	case *Aggregate, *Arith, *MostFrequent, *CompareVals:
		return "aggregate"
	case *Superlative, *IndexSuper:
		return "superlative"
	case *Compare, *Filter:
		return "comparative"
	}
	return "lookup"
}

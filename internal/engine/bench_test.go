package engine_test

import (
	"context"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/engine"
	"nlexplain/internal/provenance"
	"nlexplain/internal/render"
	"nlexplain/internal/table"
	"nlexplain/internal/workload"
)

// largeQueries are one query per explain family over the corpus's big
// table, each cutting the Games column at cut: lookup, comparative,
// superlative, aggregate and difference.
func largeQueries(cut float64) []dcs.Expr {
	games := func(op dcs.CmpOp) dcs.Expr { return &dcs.Compare{Column: "Games", Op: op, V: table.NumberValue(cut)} }
	nation := func(v string) dcs.Expr {
		return &dcs.Join{Column: "Nation", Arg: &dcs.ValueLit{V: table.StringValue(v)}}
	}
	count := func(v string) dcs.Expr {
		return &dcs.Aggregate{Fn: dcs.Count, Arg: &dcs.Intersect{L: nation(v), R: games(dcs.Ge)}}
	}
	return []dcs.Expr{
		&dcs.ColumnValues{Column: "City", Records: &dcs.Intersect{L: nation("Greece"), R: games(dcs.Ge)}},
		&dcs.ColumnValues{Column: "Nation", Records: games(dcs.Lt)},
		&dcs.ColumnValues{Column: "City", Records: &dcs.ArgRecords{Max: true, Records: games(dcs.Ge), Column: "Year"}},
		&dcs.Aggregate{Fn: dcs.Avg, Arg: &dcs.ColumnValues{Column: "Year", Records: games(dcs.Le)}},
		&dcs.Sub{L: count("Greece"), R: count("France")},
	}
}

// BenchmarkExplainLarge times the explain path over a 20,000-row corpus
// table, whole and layer by layer: "engine" is an uncached
// Engine.Explain (every iteration a fresh query), "highlight" the
// traced execution with PO/PE/PC, "sample" the Section 5.3 sampler and
// "grid" the sampled grid's rendering. Run with -benchmem for the
// allocation budget of each layer.
func BenchmarkExplainLarge(b *testing.B) {
	tab, _ := workload.NewCorpusSized(1, 20_000).Table(workload.TableBig)
	qs := largeQueries(500_000)
	compiled := make([]*dcs.Compiled, len(qs))
	hs := make([]*provenance.Highlights, len(qs))
	samples := make([][]int, len(qs))
	for i, q := range qs {
		c, err := dcs.Compile(q, tab)
		if err != nil {
			b.Fatal(err)
		}
		compiled[i] = c
		if hs[i], _, err = provenance.HighlightCompiledCtx(context.Background(), c, tab); err != nil {
			b.Fatal(err)
		}
		samples[i] = provenance.Sample(q, tab, hs[i])
	}

	b.Run("engine", func(b *testing.B) {
		e := engine.New(engine.Options{})
		if _, err := e.RegisterTable(tab); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := largeQueries(float64(50_000 + (i/len(qs)*7919)%900_000))[i%len(qs)]
			if _, err := e.Explain(context.Background(), tab.Name(), q.String()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("highlight", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := provenance.HighlightCompiledCtx(context.Background(), compiled[i%len(qs)], tab); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			provenance.Sample(qs[i%len(qs)], tab, hs[i%len(qs)])
		}
	})
	b.Run("grid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			render.JSONGrid(tab, hs[i%len(qs)], samples[i%len(qs)], true)
		}
	})
}

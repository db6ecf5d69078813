package plan

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"nlexplain/internal/table"
)

// bigTestTable builds a deterministic n-row table shaped like the
// workload corpus: a low-cardinality text column, a wide-range numeric
// column, a low-cardinality numeric column, and a text column with a
// few non-numeric stragglers mixed into otherwise numeric data (so the
// non-indexable fallbacks are reachable).
func bigTestTable(tb testing.TB, n int) *table.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	nations := []string{"Greece", "France", "China", "UK", "Brazil", "Fiji", "Tonga", "Samoa"}
	rows := make([][]string, n)
	for i := range rows {
		mixed := strconv.Itoa(rng.Intn(1000))
		if rng.Intn(512) == 0 {
			mixed = "n/a"
		}
		rows[i] = []string{
			nations[rng.Intn(len(nations))],
			strconv.Itoa(rng.Intn(1_000_000)),
			strconv.Itoa(1896 + 4*rng.Intn(40)),
			mixed,
		}
	}
	return table.MustNew("big", []string{"Nation", "Games", "Year", "Mixed"}, rows)
}

// runPlan executes a plan with the Capture tracer so witness cells are
// computed, normalizing the error to its message so differential
// tests can compare errors too.
func runPlan(tb testing.TB, n Node, t *table.Table) (*Val, string) {
	tb.Helper()
	v, err := Run(n, t, Capture{})
	if err != nil {
		return nil, err.Error()
	}
	return v, ""
}

// TestBigTableNaNAndTies exercises the big-table edge cases: NaN
// literals (range semantics: always false), and superlatives whose
// extreme is achieved by many rows across morsel boundaries.
func TestBigTableNaNAndTies(t *testing.T) {
	n := 90_000
	rows := make([][]string, n)
	var wantTies []int
	for i := range rows {
		// Low-cardinality numeric column: every extreme is a huge tie
		// group spanning every morsel.
		rows[i] = []string{strconv.Itoa(i % 7), strconv.Itoa(i)}
		if i%7 == 6 {
			wantTies = append(wantTies, i)
		}
	}
	tab := table.MustNew("ties", []string{"K", "Seq"}, rows)

	sup, errs := runPlan(t, &Superlative{Col: 0, Max: true, Input: &Compare{Col: 1, Cmp: ">=", V: table.ParseValue("0")}}, tab)
	if errs != "" {
		t.Fatal(errs)
	}
	if !reflect.DeepEqual(sup.Rows, wantTies) {
		t.Fatalf("tie-group superlative returned %d rows, want the %d rows with K=6 in record order", len(sup.Rows), len(wantTies))
	}

	nan, errs := runPlan(t, &Compare{Col: 1, Cmp: "<", V: table.NumberValue(math.NaN())}, tab)
	if errs != "" {
		t.Fatal(errs)
	}
	if len(nan.Rows) != 0 {
		t.Fatalf("NaN range matched %d rows, want 0", len(nan.Rows))
	}
}

// TestBigTableCtxCancel verifies both cancellation surfaces of a scan:
// a pre-canceled context fails fast, and a deadline firing mid-scan
// aborts the run with the context error.
func TestBigTableCtxCancel(t *testing.T) {
	tab := bigTestTable(t, 120_000)
	n := &Aggregate{Fn: "sum", Input: &ProjectCol{Col: 1, Input: &Scan{}}}

	t.Run("serial", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var out Val
		if err := RunIntoCtx(ctx, &out, n, tab, Noop{}); err != context.Canceled {
			t.Fatalf("pre-canceled run: err = %v, want context.Canceled", err)
		}

		// A deadline that fires mid-run: loop until the race lands
		// inside the execution window at least once.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
			err := RunIntoCtx(ctx, &out, n, tab, Noop{})
			cancel()
			if err == context.DeadlineExceeded {
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		}
		t.Skip("scan always completed before the deadline fired")
	})
}

// BenchmarkBigTable measures the scan kernels on a 256K-row table.
func BenchmarkBigTable(b *testing.B) {
	tab := bigTestTable(b, 1<<18)
	countGroup := GroupItem{Label: "COUNT(*)", Fn: func(rows []int) (table.Value, error) {
		return table.NumberValue(float64(len(rows))), nil
	}}
	for _, bp := range []struct {
		name string
		n    Node
	}{
		{"compare_ne", &Compare{Col: 0, Cmp: "!=", V: table.ParseValue("Greece")}},
		{"filter", &Filter{Input: &Scan{}, Pred: &AndPred{
			L: &CmpPred{Col: 1, Op: ">", V: table.ParseValue("250000")},
			R: &NotPred{P: &CmpPred{Col: 0, Op: "=", V: table.ParseValue("Fiji")}},
		}}},
		{"superlative", &Superlative{Col: 1, Max: true,
			Input: &Compare{Col: 1, Cmp: "<", V: table.ParseValue("900000")}}},
		{"aggregate_sum", &Aggregate{Fn: "sum", Input: &ProjectCol{Col: 1, Input: &Scan{}}}},
		{"group_by", &SQLAggregate{Input: &Scan{}, GroupCol: 0, Items: []GroupItem{countGroup}}},
	} {
		b.Run(bp.name, func(b *testing.B) {
			var out Val
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := RunInto(&out, bp.n, tab, Noop{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

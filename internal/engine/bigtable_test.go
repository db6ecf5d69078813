package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"nlexplain/internal/table"
)

// bigTable builds a deterministic n-row table shaped like the workload
// corpus's scan-throughput table. Built inline rather than through
// internal/workload (which imports this package).
func bigTable(tb testing.TB, n int) *table.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	nations := []string{"Greece", "France", "China", "UK", "Brazil", "Fiji"}
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{
			nations[rng.Intn(len(nations))],
			strconv.Itoa(rng.Intn(1_000_000)),
			strconv.Itoa(1896 + 4*rng.Intn(40)),
		}
	}
	t, err := table.New("big", []string{"Nation", "Games", "Year"}, rows)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// TestBigTableParallelHammer drives big-table scans from several
// goroutines in parallel while a mutator churns the table with
// appends: every execution must run against the snapshot it pinned
// (version stamps prove it), with the scans racing the store's
// mutation path. Run under -race this is the data-race gate for
// concurrent big-table execution.
func TestBigTableParallelHammer(t *testing.T) {
	e := New(Options{CacheSize: 8, Workers: 4, QueryTimeout: time.Minute})
	e.RegisterTable(bigTable(t, 1<<16))

	// One synchronous append so the run always sees at least one store
	// mutation, then a background mutator churning versions while the
	// hammer goroutines scan.
	if _, err := e.AppendRows("big", [][]string{{"Tonga", "0", "2000"}}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.AppendRows("big", [][]string{
				{"Tonga", strconv.Itoa(i), "2000"},
			}); err != nil {
				t.Errorf("AppendRows: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const goroutines = 8
	const opsPer = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				// Distinct literals per op defeat the answer cache, so
				// every call really scans; != keeps the scan on the
				// full-table complement kernel.
				q := fmt.Sprintf("count(Games!=%d)", g*1000+i)
				a, _, err := e.ExplainAnswer(context.Background(), "big", q)
				if errors.Is(err, ErrOverloaded) {
					continue
				}
				if err != nil {
					t.Errorf("ExplainAnswer(%q): %v", q, err)
					return
				}
				if a.Version == "" {
					t.Errorf("answer missing its snapshot version stamp")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	mutator.Wait()
}

// TestBigTableDeadline verifies a big-table scan honors the engine's
// query deadline: with a nanosecond budget the executor's context
// polling must abort the scan and surface the timeout.
func TestBigTableDeadline(t *testing.T) {
	e := New(Options{CacheSize: 8, Workers: 2, QueryTimeout: time.Nanosecond})
	e.RegisterTable(bigTable(t, 1<<16))
	_, _, err := e.ExplainAnswer(context.Background(), "big", "count(Games!=7)")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

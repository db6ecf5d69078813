// Package workload synthesizes reproducible query traffic for the
// explanation engine and drives it against a target — either an
// in-process engine.Engine or a live wtq-server over HTTP — measuring
// throughput, latency quantiles, error/shed counts and cache hit
// ratios into a stable JSON report.
//
// The pieces compose as:
//
//	corpus := workload.NewCorpus(seed)          // deterministic tables
//	ops := workload.Generate(seed, mix, n)      // deterministic op stream
//	tgt := workload.NewInProc(engineOpts)       // or NewHTTPTarget(url)
//	report, err := workload.Run(ctx, tgt, corpus, ops, driverOpts)
//
// Generated traffic covers the paper's query families (lookups,
// comparatives, superlatives, aggregates), the mini-SQL fragment, NL
// parsing, batch requests, and an adversarial mix of malformed and
// overload-inducing queries. Everything downstream of a seed is
// deterministic: same seed + mix + count -> byte-identical op stream,
// which is what lets CI diff two reports meaningfully.
//
// cmd/wtq-bench wraps this package in a CLI (run / compare / baseline)
// and .github/workflows/ci.yml gates merges on Compare against a
// checked-in baseline report.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"nlexplain/internal/table"
)

// Corpus table names, smallest to largest. All share one schema so
// every query family applies to every table; sizes differ so mixes
// exercise both the sampling path (large grids) and the dense path.
// TableHuge exists for the adversarial hog family only: it is big
// enough that one uncached hog computation takes real CPU time, which
// is what lets overload tests fill the engine's admission queue.
const (
	TableSmall = "wl_small"
	TableMid   = "wl_mid"
	TableLarge = "wl_large"
	TableHuge  = "wl_huge"
	// TableBig is the opt-in scan-throughput table of the bigtable mix:
	// 10^5-10^7 generated rows, present only in corpora built with
	// NewCorpusSized(seed, bigRows > 0). It is the table the
	// zone-map skipping path is measured on.
	TableBig = "wl_big"
)

// corpusSizes fixes the row count per table.
var corpusSizes = map[string]int{TableSmall: 12, TableMid: 64, TableLarge: 256, TableHuge: 2048}

// mixTables are the tables ordinary (non-hog) families draw from.
var mixTables = []string{TableSmall, TableMid, TableLarge}

// The shared schema: two text columns, two numeric columns, one
// low-cardinality category column (same shape qrand uses for its
// property tests, so every operator class has something to chew on).
var corpusColumns = []string{"Nation", "City", "Year", "Games", "Result"}

// bigColumns is the TableBig schema: the shared schema plus a monotone
// numeric Seq column (Seq = row index). Because Seq is sorted, every
// 32768-row zone holds a disjoint numeric range, which is what lets
// the big_selective family's fused range predicates prove most zones
// row-free — the workload the zone-map skipping gate measures.
var bigColumns = append(append([]string{}, corpusColumns...), "Seq")

var (
	nations = []string{"Greece", "France", "China", "UK", "Brazil", "Fiji", "Tonga", "Samoa", "Nauru", "Tahiti"}
	cities  = []string{"Athens", "Paris", "Beijing", "London", "Rio", "Suva", "Apia", "Sydney", "Tokyo", "Rome"}
	results = []string{"1st Round", "2nd Round", "3rd Round", "4th Round", "Did not qualify", "Final"}
)

var (
	numericColumns = []string{"Year", "Games"}
	textColumns    = []string{"Nation", "City", "Result"}
	anyColumns     = corpusColumns
)

// Corpus is the deterministic set of tables a workload runs over.
type Corpus struct {
	Tables []*table.Table
	byName map[string]*table.Table
}

// NewCorpus builds the four standard workload tables from a seed. The
// same seed always yields byte-identical tables (and therefore
// identical engine table versions), so cache-hit ratios are comparable
// between two runs of the same seed.
func NewCorpus(seed int64) *Corpus {
	return NewCorpusSized(seed, 0)
}

// NewCorpusSized is NewCorpus plus an optional TableBig of bigRows
// generated rows (bigRows <= 0 omits it). The standard tables are
// generated first from the same stream, so a sized corpus leaves them
// byte-identical to NewCorpus's — existing mixes and their op-set
// hashes are unaffected; the big table draws from an independent
// seed-derived stream so its content is pinned by (seed, bigRows)
// alone.
func NewCorpusSized(seed int64, bigRows int) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{byName: make(map[string]*table.Table)}
	for _, name := range []string{TableSmall, TableMid, TableLarge, TableHuge} {
		rows := make([][]string, corpusSizes[name])
		for r := range rows {
			rows[r] = []string{
				nations[rng.Intn(len(nations))],
				cities[rng.Intn(len(cities))],
				strconv.Itoa(1896 + rng.Intn(40)*4),
				strconv.Itoa(rng.Intn(300)),
				results[rng.Intn(len(results))],
			}
		}
		t, err := table.New(name, corpusColumns, rows)
		if err != nil {
			panic(fmt.Sprintf("building corpus table %s: %v", name, err)) // unreachable: shapes are fixed
		}
		c.Tables = append(c.Tables, t)
		c.byName[name] = t
	}
	if bigRows > 0 {
		brng := rand.New(rand.NewSource(seed ^ 0x2545f4914f6cdd1d))
		rows := make([][]string, bigRows)
		for r := range rows {
			rows[r] = []string{
				nations[brng.Intn(len(nations))],
				cities[brng.Intn(len(cities))],
				strconv.Itoa(1896 + brng.Intn(40)*4),
				strconv.Itoa(brng.Intn(1_000_000)),
				results[brng.Intn(len(results))],
				strconv.Itoa(r), // Seq: monotone, so zones are disjoint ranges
			}
		}
		t, err := table.New(TableBig, bigColumns, rows)
		if err != nil {
			panic(fmt.Sprintf("building corpus table %s: %v", TableBig, err))
		}
		c.Tables = append(c.Tables, t)
		c.byName[TableBig] = t
	}
	return c
}

// Table returns a corpus table by name.
func (c *Corpus) Table(name string) (*table.Table, bool) {
	t, ok := c.byName[name]
	return t, ok
}

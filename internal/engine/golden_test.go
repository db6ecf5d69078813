package engine_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nlexplain/internal/engine"
	"nlexplain/internal/qrand"
	"nlexplain/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/explain_sha256.golden")

// goldenBigRows sizes the corpus's TableBig for the golden: far past
// the 40-row sampling threshold, small enough for a unit test.
const goldenBigRows = 3000

// encodeLikeServer renders an explanation exactly as wtq-server writes
// an uncached /v1/explain reply.
func encodeLikeServer(t *testing.T, ex *engine.Explanation) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		*engine.Explanation
		Cached bool `json:"cached"`
	}{ex, false}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenLines explains every query of the pinned streams and returns
// one "label sha256" line per explanation (errors are hashed by their
// text, so an error that changes is caught too).
func goldenLines(t *testing.T) []string {
	ctx := context.Background()
	var (
		lines []string
		fails int
	)
	record := func(e *engine.Engine, label, tab, query string) {
		var sum [32]byte
		ex, err := e.Explain(ctx, tab, query)
		if err != nil {
			fails++
			sum = sha256.Sum256([]byte("error: " + err.Error()))
		} else {
			sum = sha256.Sum256(encodeLikeServer(t, ex))
		}
		lines = append(lines, fmt.Sprintf("%s %s %x", label, tab, sum))
	}

	// The explain and mixed mixes over the standard corpus: tables of
	// 12, 64 and 256 rows, so both the dense and the sampled grid.
	corpus := workload.NewCorpusSized(1, goldenBigRows)
	e := engine.New(engine.Options{CacheSize: 4096})
	for _, tab := range corpus.Tables {
		if _, err := e.RegisterTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	var explainQueries []string
	for _, name := range []string{"explain", "mixed"} {
		mix, _ := workload.MixByName(name)
		for i, op := range workload.NewGenerator(1, mix, corpus).Ops(120) {
			switch op.Kind {
			case workload.OpExplain, workload.OpSQL, workload.OpAnswer:
				record(e, fmt.Sprintf("%s/%d", name, i), op.Table, op.Query)
				if name == "explain" {
					explainQueries = append(explainQueries, op.Query)
				}
			case workload.OpBatch:
				for j, b := range op.Batch {
					record(e, fmt.Sprintf("%s/%d.%d", name, i, j), b.Table, b.Query)
				}
			}
		}
	}
	// The same explain-mix queries and the bigtable mix's scans over
	// the sized table: every grid here is a Section 5.3 sample.
	for i, q := range explainQueries {
		record(e, fmt.Sprintf("big-explain/%d", i), workload.TableBig, q)
	}
	mix, _ := workload.MixByName("bigtable")
	for i, op := range workload.NewGenerator(1, mix, corpus).Ops(40) {
		record(e, fmt.Sprintf("bigtable/%d", i), op.Table, op.Query)
	}

	// Random queries over random tables with sampling forced on every
	// table, so the sampler meets every query shape qrand generates.
	forced := engine.New(engine.Options{CacheSize: 4096, SampleThreshold: 1})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		tab := qrand.Table(rng)
		q := qrand.Query(rng, tab, 1+rng.Intn(3))
		if _, err := forced.RegisterTable(tab); err != nil {
			t.Fatal(err)
		}
		record(forced, fmt.Sprintf("qrand/%d", i), tab.Name(), q.String())
	}
	t.Logf("%d explanations, %d of them errors", len(lines), fails)
	return lines
}

// TestExplanationBytesGolden pins the exact bytes of every explanation
// reply — utterance, SQL, result, highlighted grid, sample and the
// PO/PE/PC lists — as SHA-256 digests, so a rewrite of the provenance
// pipeline cannot change a single byte on the wire unnoticed.
// Regenerate with -update only for an intended wire change.
func TestExplanationBytesGolden(t *testing.T) {
	got := strings.Join(goldenLines(t), "\n") + "\n"
	golden := filepath.Join("testdata", "explain_sha256.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("explanation bytes drifted at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden has %d lines, run produced %d", len(wl), len(gl))
}

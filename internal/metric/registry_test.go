// Package metric_test holds the tests that need the real wired
// registries: TestRegistryNames (the metrics-lint CI check) builds an
// actual engine, which imports internal/metric, so these live outside
// the package to avoid the import cycle.
package metric_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"nlexplain/internal/engine"
	"nlexplain/internal/metric"
)

var update = flag.Bool("update", false, "rewrite golden files")

// wantNames is the canonical engine+store namespace. Adding a metric
// means extending this list — the diff is the review surface for new
// series names, and the metrics-lint CI target runs exactly this test.
var wantNames = []string{
	"engine.admission.wait.seconds",
	"engine.answer.latency.seconds",
	"engine.answers",
	"engine.batch.latency.seconds",
	"engine.batches",
	"engine.cache.answer.hits",
	"engine.cache.answer.misses",
	"engine.cache.answer.size",
	"engine.cache.ast.hits",
	"engine.cache.ast.misses",
	"engine.cache.ast.size",
	"engine.cache.parse.hits",
	"engine.cache.parse.misses",
	"engine.cache.parse.size",
	"engine.cache.plan.hits",
	"engine.cache.plan.misses",
	"engine.cache.plan.size",
	"engine.cache.result.hits",
	"engine.cache.result.misses",
	"engine.cache.result.size",
	"engine.errors",
	"engine.exec.morsels.shortcut",
	"engine.exec.morsels.skipped",
	"engine.exec.serial.runs",
	"engine.executions",
	"engine.explain.latency.seconds",
	"engine.gomaxprocs",
	"engine.parse.latency.seconds",
	"engine.parses",
	"engine.sheds",
	"engine.timeouts",
	"store.bytes",
	"store.checkpoint.bytes",
	"store.checkpoint.count",
	"store.checkpoint.errors",
	"store.checkpoint.generation",
	"store.checkpoint.latency.seconds",
	"store.degraded",
	"store.degraded.episodes",
	"store.evictions",
	"store.faults.durability",
	"store.generation",
	"store.recovery.attempts",
	"store.recovery.successes",
	"store.tables",
	"store.wal.appended.bytes",
	"store.wal.appends",
	"store.wal.replayed.records",
	"store.wal.size.bytes",
	"store.wal.syncs",
	"store.wal.truncated.bytes",
	"store.zonemap.builds",
	"store.zonemap.bytes",
}

var nameRE = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)*$`)

// TestRegistryNames is the metrics-lint gate: the engine's registry
// must expose exactly the canonical namespace, every name well-formed,
// no duplicates. Registration itself panics on collisions, so simply
// constructing the engine exercises the wiring.
func TestRegistryNames(t *testing.T) {
	e := engine.New(engine.Options{})
	got := e.Metrics().Names()
	for i, name := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("malformed metric name %q", name)
		}
		if i > 0 && got[i] == got[i-1] {
			t.Errorf("duplicate metric name %q", name)
		}
	}
	if strings.Join(got, "\n") != strings.Join(wantNames, "\n") {
		t.Errorf("engine registry namespace changed:\n got: %v\nwant: %v\n(if intentional, update wantNames)", got, wantNames)
	}
}

// TestPrometheusGolden locks the exposition format byte-for-byte
// against testdata/exposition.golden. Regenerate with -update.
func TestPrometheusGolden(t *testing.T) {
	r := metric.NewRegistry()
	eng := r.Sub("engine")
	eng.Counter("cache.plan.hits", "compiled-plan cache hits").Add(17)
	eng.Gauge("queue.depth", "admission queue depth").Set(-3)
	eng.GaugeFunc("cache.plan.size", "compiled-plan cache entries", func() int64 { return 4 })
	eng.CounterFunc("exec.morsels.skipped", "morsels proven row-free by zone maps and skipped", func() uint64 { return 21 })
	eng.Rate("requests", "requests observed").Add(9)
	h := eng.LatencyHistogram("explain.latency.seconds", "explain compute latency")
	h.RecordDuration(1500 * time.Nanosecond)
	h.RecordDuration(2 * time.Millisecond)
	h.RecordDuration(2 * time.Millisecond)
	u := r.Sub("store").Histogram("rows", "rows per table")
	u.RecordValue(3)
	u.RecordValue(100)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

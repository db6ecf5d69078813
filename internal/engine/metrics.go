package engine

import (
	"runtime"

	"nlexplain/internal/metric"
	"nlexplain/internal/plan"
)

// metrics is the engine's registry-backed instrumentation, replacing
// the flat counters struct that predated internal/metric. Every field
// is registered under the "engine." namespace of the engine's root
// registry (the store's gauges land under "store."); wtq-server adds
// its "server.http." series to the same root and serves the whole tree
// on GET /metrics. Recording any of these is allocation-free.
type metrics struct {
	root *metric.Registry

	astHits      *metric.Counter
	astMisses    *metric.Counter
	planHits     *metric.Counter
	planMisses   *metric.Counter
	resultHits   *metric.Counter
	resultMisses *metric.Counter
	answerHits   *metric.Counter
	answerMisses *metric.Counter
	parseHits    *metric.Counter
	parseMisses  *metric.Counter

	executions      *metric.Counter
	answersComputed *metric.Counter
	errors          *metric.Counter
	timeouts        *metric.Counter
	sheds           *metric.Counter
	batches         *metric.Counter
	parses          *metric.Counter

	explainLatency *metric.Histogram // uncached explain pipeline computations
	answerLatency  *metric.Histogram // uncached answer-only computations
	parseLatency   *metric.Histogram // uncached semantic-parse candidate generations
	batchLatency   *metric.Histogram // whole ExplainBatch calls, wall clock
	admitWait      *metric.Histogram // admission-to-worker-slot queue wait
}

// initMetrics wires the engine's namespace into a fresh root registry
// and registers the scrape-time cache-size gauges, which read the LRUs
// directly.
func (e *Engine) initMetrics() {
	root := metric.NewRegistry()
	r := root.Sub("engine")
	m := &metrics{
		root: root,

		astHits:      r.Counter("cache.ast.hits", "parsed-AST cache hits"),
		astMisses:    r.Counter("cache.ast.misses", "parsed-AST cache misses"),
		planHits:     r.Counter("cache.plan.hits", "compiled-plan cache hits"),
		planMisses:   r.Counter("cache.plan.misses", "compiled-plan cache misses"),
		resultHits:   r.Counter("cache.result.hits", "explanation result cache hits"),
		resultMisses: r.Counter("cache.result.misses", "explanation result cache misses"),
		answerHits:   r.Counter("cache.answer.hits", "answer-only result cache hits"),
		answerMisses: r.Counter("cache.answer.misses", "answer-only result cache misses"),
		parseHits:    r.Counter("cache.parse.hits", "semantic-parse candidate cache hits"),
		parseMisses:  r.Counter("cache.parse.misses", "semantic-parse candidate cache misses"),

		executions:      r.Counter("executions", "uncached full explanation pipeline computations"),
		answersComputed: r.Counter("answers", "uncached answer-only computations"),
		errors:          r.Counter("errors", "failed requests (bad query, unknown table, contained panic)"),
		timeouts:        r.Counter("timeouts", "requests killed by deadline expiry"),
		sheds:           r.Counter("sheds", "requests shed by the full admission queue"),
		batches:         r.Counter("batches", "ExplainBatch calls"),
		parses:          r.Counter("parses", "ParseQuestion calls"),

		explainLatency: r.LatencyHistogram("explain.latency.seconds", "uncached explain pipeline compute latency"),
		answerLatency:  r.LatencyHistogram("answer.latency.seconds", "uncached answer-only compute latency"),
		parseLatency:   r.LatencyHistogram("parse.latency.seconds", "uncached candidate-generation latency"),
		batchLatency:   r.LatencyHistogram("batch.latency.seconds", "ExplainBatch wall-clock latency"),
		admitWait:      r.LatencyHistogram("admission.wait.seconds", "admitted computations' wait for a worker slot"),
	}
	// Plan executor series. The executor's counters are process-global,
	// so these read straight from internal/plan at scrape time.
	r.GaugeFunc("gomaxprocs", "runtime GOMAXPROCS",
		func() int64 { return int64(runtime.GOMAXPROCS(0)) })
	r.CounterFunc("exec.serial.runs", "plan executions",
		func() uint64 { runs, _, _ := plan.ExecStats(); return runs })
	r.CounterFunc("exec.morsels.skipped", "morsels proven row-free by zone maps and skipped",
		func() uint64 { _, sk, _ := plan.ExecStats(); return sk })
	r.CounterFunc("exec.morsels.shortcut", "morsels proven all-match by zone maps and bulk-filled",
		func() uint64 { _, _, sc := plan.ExecStats(); return sc })

	r.GaugeFunc("cache.ast.size", "parsed-AST cache entries", func() int64 { return int64(e.asts.len()) })
	r.GaugeFunc("cache.plan.size", "compiled-plan cache entries", func() int64 { return int64(e.plans.len()) })
	r.GaugeFunc("cache.result.size", "explanation result cache entries", func() int64 { return int64(e.results.len()) })
	r.GaugeFunc("cache.result.bytes", "explanation result cache estimated resident bytes", e.results.size)
	r.GaugeFunc("cache.answer.size", "answer-only result cache entries", func() int64 { return int64(e.answers.len()) })
	r.GaugeFunc("cache.parse.size", "semantic-parse candidate cache entries", func() int64 { return int64(e.parseCache.len()) })
	e.met = m
	e.store.RegisterMetrics(root.Sub("store"))
}

// Metrics exposes the engine's root metric registry — the tree behind
// GET /metrics. Embedders (wtq-server) register additional subsystems
// on sub-registries of it.
func (e *Engine) Metrics() *metric.Registry { return e.met.root }

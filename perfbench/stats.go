package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first. tailPercentile picks the highest one that leaves at
// least minBeyond samples above it, so a tail figure never rests on a
// handful of outliers.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// rank is the 1-based nearest-rank index of percentile p among n sorted
// samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(r, n))
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it; ok is false when n is too small for
// any.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(p, len(sorted))-1]
}

// dist summarizes one latency sample set.
type dist struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64
}

func summarize(samples []float64) (dist, error) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p, ok := tailPercentile(len(s))
	if !ok {
		return dist{}, fmt.Errorf("%d samples: too few for a tail percentile", len(s))
	}
	return dist{n: len(s), p50: percentile(s, 50), tail: percentile(s, p), tailPct: p}, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValue is one reported metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload.
// What "op" means differs per workload (see WORKLOADS.md). The tail
// latency is in the report only: its run-to-run spread is wider than
// any bound it could be gated on (see WORKLOADS.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"op_response_kb", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports, named by module.
// Span metrics (_ms) are means per call; counts of cells, rows and
// candidates are means per call; the rest are run totals or ratios.
var perLayer = []metricDef{
	{"wtq-server.self_ms", "ms"},
	{"wtq-server.encode_ms", "ms"},
	{"wtq-server.response_bytes", "bytes"},
	{"engine.explain_ms", "ms"},
	{"engine.answer_ms", "ms"},
	{"engine.parse_question_ms", "ms"},
	{"engine.self_ms", "ms"},
	{"engine.cache.result.hit_ratio", "ratio"},
	{"engine.cache.answer.hit_ratio", "ratio"},
	{"engine.cache.plan.hit_ratio", "ratio"},
	{"engine.cache.ast.hit_ratio", "ratio"},
	{"engine.cache.parse.hit_ratio", "ratio"},
	{"engine.admission.wait_ms", "ms"},
	{"engine.sheds", "count"},
	{"semparse.parse_all_ms", "ms"},
	{"semparse.candidates", "count"},
	{"dcs.parse_ms", "ms"},
	{"dcs.compile_ms", "ms"},
	{"provenance.highlight_ms", "ms"},
	{"provenance.sample_ms", "ms"},
	{"provenance.levels_ms", "ms"},
	{"provenance.po_cells", "count"},
	{"provenance.pe_cells", "count"},
	{"provenance.pc_cells", "count"},
	{"provenance.sample_rows", "count"},
	{"plan.execute_ms", "ms"},
	{"plan.parallel_runs", "count"},
	{"plan.serial_runs", "count"},
	{"plan.morsels_skipped", "count"},
	{"plan.morsels_shortcut", "count"},
	{"utterance.utter_ms", "ms"},
	{"sqlgen.translate_ms", "ms"},
	{"render.grid_ms", "ms"},
	{"render.grid_cells", "count"},
	{"table.new_ms", "ms"},
	{"table.ingest_rows_s", "rows/s"},
	{"store.register_ms", "ms"},
	{"store.append_ms", "ms"},
	{"store.drop_ms", "ms"},
	{"wal.appends", "count"},
	{"wal.syncs", "count"},
	{"wal.appends_per_sync", "ratio"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"segment.checkpoints", "count"},
	{"segment.checkpoint_ms", "ms"},
	{"segment.bytes_per_user_byte", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"nlexplain/internal/workload"
)

// scrape is one parsed GET /metrics: every unlabeled sample by series
// name (histograms contribute their _sum and _count).
type scrape map[string]float64

// parseScrape validates the exposition with the strict parser
// wtq-bench uses and collects its unlabeled samples.
func parseScrape(body []byte) (scrape, error) {
	if _, err := workload.ParsePrometheus(bytes.NewReader(body)); err != nil {
		return nil, err
	}
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics scrape: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics scrape: %q: %w", line, err)
		}
		out[name] = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("metrics scrape: no samples")
	}
	return out, sc.Err()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrapeLayers turns the /metrics counter deltas over the timed
// windows (summed over the run's servers) into the per-layer metrics
// that come from the server's own registry. last is the last server's
// scrape after its window; userBytes is the cell text the client's
// mutations carried; liveBytes the cell text of the tables live at the
// end of the run.
func scrapeLayers(d, last scrape, userBytes, liveBytes float64, out map[string]float64) {
	for _, c := range []string{"result", "answer", "plan", "ast", "parse"} {
		hits := d["engine_cache_"+c+"_hits"]
		misses := d["engine_cache_"+c+"_misses"]
		out["engine.cache."+c+".hit_ratio"] = ratio(hits, hits+misses)
	}
	out["engine.admission.wait_ms"] = 1e3 * ratio(
		d["engine_admission_wait_seconds_sum"],
		d["engine_admission_wait_seconds_count"])
	out["engine.sheds"] = d["engine_sheds"]
	out["plan.parallel_runs"] = d["engine_exec_parallel_runs"]
	out["plan.serial_runs"] = d["engine_exec_serial_runs"]
	out["plan.morsels_skipped"] = d["engine_exec_morsels_skipped"]
	out["plan.morsels_shortcut"] = d["engine_exec_morsels_shortcut"]
	appends := d["store_wal_appends"]
	syncs := d["store_wal_syncs"]
	out["wal.appends"] = appends
	out["wal.syncs"] = syncs
	out["wal.appends_per_sync"] = ratio(appends, syncs)
	out["wal.bytes_per_user_byte"] = ratio(d["store_wal_appended_bytes"], userBytes)
	out["segment.checkpoints"] = d["store_checkpoint_count"]
	out["segment.checkpoint_ms"] = 1e3 * ratio(
		d["store_checkpoint_latency_seconds_sum"],
		d["store_checkpoint_latency_seconds_count"])
	if out["segment.checkpoints"] > 0 {
		out["segment.bytes_per_user_byte"] = ratio(last["store_checkpoint_bytes"], liveBytes)
	} else {
		out["segment.bytes_per_user_byte"] = 0
	}
}

// Command perfbench is the repository benchmark: it builds nothing
// itself (run.sh builds cmd/wtq-server and this program), starts a
// fresh wtq-server per run on loopback, drives it over HTTP in a closed
// loop with one workload's seeded op stream, checks every reply, and
// prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer breakdown of a separate traced
// run (see trace.go). A human-readable report goes to standard error.
// The workloads and metrics are described in WORKLOADS.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/bits"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nlexplain/internal/table"
)

// allCPUs is the CPU mask the benchmark started with.
var allCPUs cpuMask

const (
	// servers is how many servers a run sets up, one after another.
	// setup_s is the median of their set-up times, and each is measured
	// for an equal share of the window: a server process's latency level
	// varies from one process to the next by more than within one, so
	// pooling several steadies the medians.
	servers = 3
	// warmup runs ops, checked but not measured, before the timed
	// window, so lazily built indexes and the Go heap settle.
	warmup = time.Second
	// runLimit bounds a whole run: past it the benchmark gives up and
	// exits with an error rather than hang.
	runLimit = 170 * time.Second
)

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: wtq_questions, explain_large, scan_big or durable_churn")
	seed := flag.Int64("seed", 1, "seed of the tables and the op stream")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	sp, ok := specByName(*name)
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if allCPUs, err = currentMask(); err == nil && sp.cpu0 {
		err = setAffinity(cpu0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	res, err := runBench(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// recorder collects the outcome of every op of a run.
type recorder struct {
	mu        sync.Mutex
	attempted int
	failedOps map[int]bool
	firstErr  error
	checks    []refCheck
	seen      map[string]bool
	// The rest covers measured ops only.
	opMs              []float64
	tracedMs, plainMs []float64
	lat               map[string][]float64
	bytes             map[string]float64
	opBytes           float64
	user              float64
	repeats           int
}

func newRecorder() *recorder {
	return &recorder{failedOps: map[int]bool{}, seen: map[string]bool{}, lat: map[string][]float64{}, bytes: map[string]float64{}}
}

func (rec *recorder) fail(id int, err error) {
	rec.failedOps[id] = true
	if rec.firstErr == nil {
		rec.firstErr = err
	}
}

// add books one finished op. An op's latency is the sum of its
// requests' round trips; the benchmark's own checks between requests
// are not part of it.
func (rec *recorder) add(o op, r *opRun, err error, measured bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.attempted++
	repeat := rec.seen[o.key()]
	rec.seen[o.key()] = true
	if err != nil {
		rec.fail(o.ID, fmt.Errorf("op %d: %w", o.ID, err))
		return
	}
	for _, c := range r.checks {
		c.op = o.ID
		rec.checks = append(rec.checks, c)
	}
	if !measured {
		return
	}
	total := 0.0
	for _, q := range r.reqs {
		total += q.ms
		rec.lat[q.kind] = append(rec.lat[q.kind], q.ms)
		rec.bytes[q.kind] += float64(q.bytes)
		rec.opBytes += float64(q.bytes)
	}
	rec.opMs = append(rec.opMs, total)
	if r.tr != nil {
		rec.tracedMs = append(rec.tracedMs, total)
	} else {
		rec.plainMs = append(rec.plainMs, total)
	}
	rec.user += r.user
	if repeat {
		rec.repeats++
	}
}

// tracedOp picks the half of a traced run's ops that are traced; the
// others run plain, so the run can compare the two. An op is traced
// when its id has an even number of one bits (the Thue–Morse
// sequence): unlike even ids, this choice does not line up with the
// fixed family cycles of scan_big and explain_large, so traced and
// plain ops run the same mix.
func tracedOp(id int) bool { return bits.OnesCount(uint(id))%2 == 0 }

// loop runs the closed loop: conns callers, each sending its next op
// only after the previous one completed, until d has passed.
func loop(cl *http.Client, base string, sp spec, in *inputs, st *stream, tr *tracer, replies *spill, d time.Duration, rec *recorder, measured bool) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for range sp.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := new(bytes.Buffer)
			for time.Now().Before(deadline) {
				o := st.take()
				r := &opRun{cl: cl, base: base, spill: replies, buf: buf}
				if tr != nil && tracedOp(o.ID) {
					r.tr = tr.beginOp(o.ID)
				}
				err := in.run(r, in, o)
				if r.tr != nil {
					r.tr.endOp(r)
				}
				rec.add(o, r, err, measured)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// measure warms the set-up server, then runs the closed loop on it
// for d. It returns the loop's wall time and the /metrics scrapes that
// bracket the timed window.
func measure(cl *http.Client, srv *server, sp spec, in *inputs, st *stream, tr *tracer, replies *spill, rec *recorder, d time.Duration) (time.Duration, scrape, scrape, error) {
	loop(cl, srv.base, sp, in, st, tr, replies, warmup, rec, false)
	before, err := metricsScrape(cl, srv.base)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("scraping /metrics before the window: %w", err)
	}
	wall := loop(cl, srv.base, sp, in, st, tr, replies, d, rec, true)
	after, err := metricsScrape(cl, srv.base)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("scraping /metrics after the window: %w", err)
	}
	return wall, before, after, nil
}

// setup starts a server and registers the workload's tables; the time
// runs from process start until /v1/healthz is ok.
func setup(cl *http.Client, sp spec, in *inputs, bodies [][]byte, dataDir string) (*server, time.Duration, error) {
	start := time.Now()
	srv, err := startServer(sp.flags(dataDir))
	if err != nil {
		return nil, 0, err
	}
	for i, t := range in.tables {
		q, err := send(cl, http.MethodPost, srv.base+"/v1/tables", bodies[i], http.StatusCreated, new(bytes.Buffer))
		if err != nil {
			srv.kill()
			return nil, 0, fmt.Errorf("registering %s: %w", t.Name(), err)
		}
		var info tableInfo
		if err := json.Unmarshal(q.body, &info); err != nil || info.Name != t.Name() || info.Rows != t.NumRows() {
			srv.kill()
			return nil, 0, fmt.Errorf("registering %s: acknowledged %+v (%v)", t.Name(), info, err)
		}
		in.versions[t.Name()] = info
	}
	if err := waitHealthy(cl, srv.base); err != nil {
		srv.kill()
		return nil, 0, err
	}
	return srv, time.Since(start), nil
}

// checkDurable restarts the server on the run's data directory and
// checks that exactly the long-lived tables are served, each with the
// version and generation its registration acknowledged: every churn
// table was dropped, and dropped tables stay dropped.
func checkDurable(cl *http.Client, sp spec, in *inputs, dataDir string) error {
	srv, err := startServer(sp.flags(dataDir))
	if err != nil {
		return err
	}
	defer srv.stop()
	if err := waitHealthy(cl, srv.base); err != nil {
		return err
	}
	var list struct {
		Tables []tableInfo `json:"tables"`
	}
	if err := getJSON(cl, srv.base, "/v1/tables", &list); err != nil {
		return err
	}
	if len(list.Tables) != len(in.versions) {
		return fmt.Errorf("after restart %d tables are served, want the %d long-lived ones", len(list.Tables), len(in.versions))
	}
	for _, got := range list.Tables {
		want, ok := in.versions[got.Name]
		if !ok || got.Version != want.Version || got.Generation != want.Generation {
			return fmt.Errorf("after restart %s has version %s generation %d, acknowledged %s generation %d",
				got.Name, got.Version, got.Generation, want.Version, want.Generation)
		}
	}
	return nil
}

func registrationBodies(tables []*table.Table) ([][]byte, error) {
	bodies := make([][]byte, len(tables))
	for i, t := range tables {
		b, err := json.Marshal(map[string]any{"name": t.Name(), "columns": t.Columns(), "rows": t.RawRows()})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

func runBench(sp spec, seed int64, window time.Duration, traced bool) (*result, error) {
	if _, err := os.Stat(serverBin); err != nil {
		return nil, fmt.Errorf("server binary missing (perfbench/run.sh builds it): %w", err)
	}
	began := time.Now()
	in := sp.build(seed)
	bodies, err := registrationBodies(in.tables)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cl := newHTTPClient(sp.conns)
	defer cl.CloseIdleConnections()

	replies, err := newSpill(filepath.Join(work, "replies"))
	if err != nil {
		return nil, err
	}
	defer replies.close()
	var (
		setups, rss               []float64
		srv                       *server
		dataDir                   string
		tr                        *tracer
		wall, setUpTime, checking time.Duration
		deltas                    = scrape{}
		lastScrape                scrape
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	rec := newRecorder()
	st := &stream{in: in}
	refs := &references{}
	// verify runs the deferred checks of the ops since the last call and
	// empties the spill, so the replies of one window at most are on
	// disk: a whole run's multi-megabyte explanations would pass the
	// kernel's dirty-page threshold and start writeback inside a timed
	// window.
	// The checks are not timed, so a workload pinned to CPU 0 runs them
	// on every CPU.
	verify := func() error {
		start := time.Now()
		if sp.cpu0 {
			if err := setAffinity(allCPUs); err != nil {
				return err
			}
		}
		bad, err := refs.verify(rec.checks, replies, 2)
		for id := range bad {
			rec.fail(id, fmt.Errorf("op %d: reference check: %w", id, err))
		}
		rec.checks = nil
		if sp.cpu0 {
			if err := setAffinity(cpu0); err != nil {
				return err
			}
		}
		checking += time.Since(start)
		return replies.reset()
	}
	built := time.Now()
	for i := range servers {
		dataDir = filepath.Join(work, fmt.Sprintf("data-%d", i))
		s, d, err := setup(cl, sp, in, bodies, dataDir)
		if err != nil {
			return nil, err
		}
		srv = s
		setups = append(setups, d.Seconds())
		setUpTime += d
		if traced && tr == nil {
			traceDir := ""
			if sp.name == "durable_churn" {
				traceDir = filepath.Join(work, "trace-data")
			}
			if tr, err = newTracer(in, traceDir); err != nil {
				return nil, err
			}
			defer tr.close()
		}
		w, before, after, err := measure(cl, srv, sp, in, st, tr, replies, rec, window/servers)
		if err != nil {
			return nil, err
		}
		wall += w
		for k, v := range after {
			deltas[k] += v - before[k]
		}
		lastScrape = after
		r, err := srv.peakRSSMiB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, r)
		if i < servers-1 {
			srv.kill()
			srv = nil
			if err := verify(); err != nil {
				return nil, err
			}
		}
	}
	if sp.name == "durable_churn" {
		srv.kill()
		srv = nil
		rec.attempted++
		if err := checkDurable(cl, sp, in, dataDir); err != nil {
			rec.fail(-1, fmt.Errorf("durability check: %w", err))
		}
	}

	if err := verify(); err != nil {
		return nil, err
	}

	res := &result{Attempted: rec.attempted, Failed: len(rec.failedOps), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0
	rep := &report{sp: sp, seed: seed, window: window, traced: traced, rec: rec}
	rep.line("phases: inputs %.1fs, set-ups %.1fs, deferred checks %.1fs, warm-ups, measuring and the rest %.1fs",
		built.Sub(began).Seconds(), setUpTime.Seconds(), checking.Seconds(), (time.Since(built) - setUpTime - checking).Seconds())
	if rec.firstErr != nil {
		rep.line("first failure: %v", rec.firstErr)
	}
	if len(rec.opMs) == 0 {
		return nil, fmt.Errorf("no op completed in the timed window (first failure: %v)", rec.firstErr)
	}
	if traced {
		vals := map[string]float64{}
		scrapeLayers(deltas, lastScrape, rec.user, liveBytes(in), vals)
		tr.layers(vals)
		vals["trace.overhead_ratio"] = ratio(median(rec.tracedMs), median(rec.plainMs))
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
		rep.layers(tr, vals)
		if err := tr.writeSpans(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", sp.name, seed))); err != nil {
			return nil, err
		}
	} else {
		d, err := summarize(rec.opMs)
		if err != nil {
			return nil, err
		}
		vals := map[string]float64{
			"setup_s":          median(setups),
			"throughput_ops_s": float64(len(rec.opMs)) / wall.Seconds(),
			"op_p50_ms":        d.p50,
			"op_response_kb":   rec.opBytes / float64(len(rec.opMs)) / 1024,
			"peak_rss_mb":      median(rss),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
		rep.endToEnd(vals, setups, rss, d, res)
	}
	rep.flush()
	return res, nil
}

// liveBytes is the cell text of the long-lived tables.
func liveBytes(in *inputs) float64 {
	n := 0.0
	for _, t := range in.tables {
		n += cellBytes(t.Columns(), t.RawRows())
	}
	return n
}

// report is the human-readable account of a run, on standard error.
type report struct {
	sp     spec
	seed   int64
	window time.Duration
	traced bool
	rec    *recorder
	lines  []string
}

func (p *report) line(format string, args ...any) {
	p.lines = append(p.lines, fmt.Sprintf(format, args...))
}

func (p *report) flush() {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d window=%v conns=%d trace=%v\n", p.sp.name, p.seed, p.window, p.sp.conns, p.traced)
	for _, l := range p.lines {
		fmt.Fprintln(os.Stderr, "  "+l)
	}
}

// endToEnd prints the end-to-end metrics that apply to the workload,
// the per-request-kind latencies among them, each with its unit and
// sample count.
func (p *report) endToEnd(vals map[string]float64, setups, rss []float64, d dist, res *result) {
	rec := p.rec
	p.line("%-22s %10.4f s      median of %d set-ups %v", "setup_s", vals["setup_s"], len(setups), setups)
	p.line("%-22s %10.2f ops/s  n=%d ops", "throughput_ops_s", vals["throughput_ops_s"], d.n)
	p.line("%-22s %10.3f ms     n=%d ops", "op_p50_ms", d.p50, d.n)
	p.line("%-22s %10.3f ms     p%g, n=%d ops (not gated)", "op_tail_ms", d.tail, d.tailPct, d.n)
	p.line("%-22s %10.2f KiB    n=%d ops", "op_response_kb", vals["op_response_kb"], d.n)
	if p.sp.name == "wtq_questions" {
		p.line("%-22s %10.3f ms     (= op_p50_ms) n=%d", "question_p50_ms", d.p50, d.n)
		p.line("%-22s %10.3f ms     (= op_tail_ms) p%g, n=%d", "question_tail_ms", d.tail, d.tailPct, d.n)
	}
	for _, kind := range []string{kindExplain, kindAnswer, kindMutation, kindParse} {
		xs := rec.lat[kind]
		if len(xs) == 0 {
			continue
		}
		kd, err := summarize(xs)
		if err != nil {
			p.line("%s: %v", kind, err)
			continue
		}
		p.line("%-22s %10.3f ms     n=%d", kind+"_p50_ms", kd.p50, kd.n)
		p.line("%-22s %10.3f ms     p%g, n=%d", kind+"_tail_ms", kd.tail, kd.tailPct, kd.n)
		if kind == kindExplain {
			p.line("%-22s %10.2f KiB    n=%d", "explain_response_kb", rec.bytes[kind]/float64(len(xs))/1024, len(xs))
		}
	}
	p.line("%-22s %10.1f MiB    median of %d servers' VmHWM %v", "peak_rss_mb", vals["peak_rss_mb"], len(rss), rss)
	p.line("%-22s %10.4f        %d failed of %d attempted", "error_rate", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	p.line("%-22s %10.3f        %d of %d measured ops repeat an earlier op", "repeat_share", ratio(float64(rec.repeats), float64(len(rec.opMs))), rec.repeats, len(rec.opMs))
}

// layers prints the per-layer breakdown and the self-time account.
func (p *report) layers(tr *tracer, vals map[string]float64) {
	names := make([]string, 0, len(perLayer))
	units := map[string]string{}
	for _, m := range perLayer {
		names = append(names, m.name)
		units[m.name] = m.unit
	}
	sort.Strings(names)
	for _, n := range names {
		p.line("%-32s %14.4f %s", n, vals[n], units[n])
	}
	tr.mu.Lock()
	self, children := mean(tr.vals["engine.explain_self_ms"]), mean(tr.vals["engine.explain_children_ms"])
	misses := len(tr.vals["engine.explain_self_ms"])
	tr.mu.Unlock()
	if misses > 0 {
		p.line("uncached explains: engine span %.3f ms = layer spans %.3f ms + engine self %.3f ms (n=%d)", self+children, children, self, misses)
	}
	p.line("tracing overhead: traced ops' median latency / plain ops' = %.3f (n=%d traced, %d plain)",
		vals["trace.overhead_ratio"], len(p.rec.tracedMs), len(p.rec.plainMs))
}

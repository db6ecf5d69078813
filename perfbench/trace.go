package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nlexplain/internal/dcs"
	"nlexplain/internal/engine"
	"nlexplain/internal/plan"
	"nlexplain/internal/provenance"
	"nlexplain/internal/render"
	"nlexplain/internal/semparse"
	"nlexplain/internal/sqlgen"
	"nlexplain/internal/store"
	"nlexplain/internal/table"
	"nlexplain/internal/utterance"
)

// span is one timed call, relative to the start of the traced run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer gives the per-layer breakdown of a traced run. The server is
// not instrumented: after each traced request the benchmark replays it
// in-process twice — once through the Engine, once through the public
// functions the engine's pipeline composes — timing every call, and
// checks that the decomposed replay assembles the exact bytes the
// server sent. Replays are serialized, so spans never overlap.
type tracer struct {
	mu       sync.Mutex
	start    time.Time
	eng      *engine.Engine
	tables   map[string]*table.Table
	versions map[string]string
	spans    []span
	vals     map[string][]float64
	// ingestRows and ingestSec accumulate table.New throughput.
	ingestRows, ingestSec float64
}

// opTrace is one traced op: spans of its requests and replays hang
// off the op's root span.
type opTrace struct {
	t     *tracer
	op    int
	root  int
	begin time.Time
}

// newTracer builds the in-process engine the replays run on, with its
// own copies of the workload's tables. dataDir, when set, makes its
// store durable like the server's.
func newTracer(in *inputs, dataDir string) (*tracer, error) {
	opts := engine.Options{}
	if dataDir != "" {
		opts.DataDir = dataDir
		opts.CheckpointBytes = checkpointBytes
	}
	eng, err := engine.Open(opts)
	if err != nil {
		return nil, err
	}
	t := &tracer{
		start:    time.Now(),
		eng:      eng,
		tables:   map[string]*table.Table{},
		versions: map[string]string{},
		vals:     map[string][]float64{},
	}
	for _, src := range in.tables {
		cp := t.newTable(src.Name(), src.Columns(), src.RawRows())
		if cp == nil {
			return nil, fmt.Errorf("copying table %s", src.Name())
		}
		info, err := eng.RegisterTable(cp)
		if err != nil {
			return nil, err
		}
		if want := in.versions[src.Name()].Version; info.Version != want {
			return nil, fmt.Errorf("table %s: in-process version %s, server acknowledged %s", src.Name(), info.Version, want)
		}
		t.tables[cp.Name()] = cp
		t.versions[cp.Name()] = info.Version
	}
	return t, nil
}

// newTable times table.New; nil means the rows did not form a table.
func (t *tracer) newTable(name string, columns []string, rows [][]string) *table.Table {
	start := time.Now()
	tab, err := table.New(name, columns, rows)
	d := time.Since(start)
	if err != nil {
		return nil
	}
	t.vals["table.new_ms"] = append(t.vals["table.new_ms"], ms(d))
	t.ingestRows += float64(len(rows))
	t.ingestSec += d.Seconds()
	return tab
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (t *tracer) close() error { return t.eng.Close() }

func (t *tracer) since(at time.Time) float64 { return ms(at.Sub(t.start)) }

// record appends a finished span; callers hold t.mu.
func (t *tracer) record(op, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.since(start), End: t.since(end)})
	return id
}

// timed runs f as a span named name and books its duration as a sample
// of the per-layer metric name+"_ms".
func (o *opTrace) timed(parent int, name string, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	o.t.record(o.op, parent, name, start, end)
	d := ms(end.Sub(start))
	o.t.vals[name+"_ms"] = append(o.t.vals[name+"_ms"], d)
	return d
}

func (t *tracer) add(name string, v float64) { t.vals[name] = append(t.vals[name], v) }

// beginOp opens the root span of a traced op.
func (t *tracer) beginOp(id int) *opTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Op: id, Name: "op"})
	return &opTrace{t: t, op: id, root: len(t.spans), begin: time.Now()}
}

// endOp closes the root span and adds one span per HTTP request.
func (o *opTrace) endOp(r *opRun) {
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	root := &t.spans[o.root-1]
	root.Start, root.End = t.since(o.begin), t.since(time.Now())
	for _, q := range r.reqs {
		t.record(o.op, o.root, "http."+q.kind, q.start, q.start.Add(time.Duration(q.ms*float64(time.Millisecond))))
		t.add("wtq-server.response_bytes", float64(q.bytes))
	}
}

// serverSelf books the server's own share of a request: its HTTP
// latency minus the engine span of the same call.
func (t *tracer) serverSelf(q request, engineMs float64) {
	t.add("wtq-server.self_ms", q.ms-engineMs)
}

// encode renders v with the server's JSON settings.
func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// provJSON is the engine's wire projection of the provenance sets.
func provJSON(t *table.Table, p *provenance.Prov) engine.ProvJSON {
	conv := func(cells []table.CellRef) []engine.ProvCell {
		out := make([]engine.ProvCell, len(cells))
		for i, c := range cells {
			out[i] = engine.ProvCell{Row: c.Row, Col: c.Col}
		}
		return out
	}
	po, pe, pc := p.Levels()
	j := engine.ProvJSON{Output: conv(po), Execution: conv(pe), Columns: conv(pc)}
	for _, fn := range p.Aggrs {
		j.Aggrs = append(j.Aggrs, string(fn))
	}
	if len(p.HeaderAggrs) > 0 {
		j.HeaderAggrs = make(map[string]string, len(p.HeaderAggrs))
		for col, fn := range p.HeaderAggrs {
			j.HeaderAggrs[t.Column(col)] = string(fn)
		}
	}
	return j
}

// inOrder runs the engine replay and the decomposed replay of one
// request, alternating which goes first from one traced op to the
// next, so that neither always pays for the other's garbage.
func (o *opTrace) inOrder(engineReplay, pipelineReplay func() error) error {
	first, second := engineReplay, pipelineReplay
	if o.op%4 == 2 {
		first, second = pipelineReplay, engineReplay
	}
	if err := first(); err != nil {
		return err
	}
	return second()
}

// explain replays the op's last request, an explain, in-process.
func (o *opTrace) explain(r *opRun, tab *table.Table, query string, cached bool) error {
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	q := r.reqs[len(r.reqs)-1]
	name := tab.Name()
	var (
		engMs, children float64
		engCached       bool
	)
	err := o.inOrder(func() error {
		var err error
		engMs = o.timed(o.root, "engine.explain", func() { _, engCached, err = t.eng.ExplainCached(context.Background(), name, query) })
		if err != nil {
			return fmt.Errorf("in-process explain of %q on %s: %w", query, name, err)
		}
		return nil
	}, func() error {
		var err error
		children, err = o.explainPipeline(q, name, query, cached)
		return err
	})
	if err != nil {
		return err
	}
	t.serverSelf(q, engMs)
	if !engCached {
		t.add("engine.self_ms", engMs-children)
		t.add("engine.explain_self_ms", engMs-children)
		t.add("engine.explain_children_ms", children)
	}
	return nil
}

// explainPipeline assembles the explanation from the public functions
// export.BuildCompiledCtx composes, plus the engine's provenance
// projection and the server's encoding, and checks the bytes equal the
// server's reply. It returns the time spent in the engine's layers.
func (o *opTrace) explainPipeline(q request, name, query string, cached bool) (float64, error) {
	t := o.t
	it := t.tables[name]
	ctx := context.Background()
	pipe := time.Now()
	var (
		expr dcs.Expr
		c    *dcs.Compiled
		h    *provenance.Highlights
		res  *dcs.Result
		rows []int
		err  error
	)
	children := o.timed(o.root, "dcs.parse", func() { expr, err = dcs.Parse(query) })
	if err != nil {
		return 0, err
	}
	children += o.timed(o.root, "dcs.compile", func() { c, err = dcs.Compile(expr, it) })
	if err != nil {
		return 0, err
	}
	children += o.timed(o.root, "provenance.highlight", func() { h, res, err = provenance.HighlightCompiledCtx(ctx, c, it) })
	if err != nil {
		return 0, err
	}
	sampled := it.NumRows() > sampleThreshold
	if sampled {
		children += o.timed(o.root, "provenance.sample", func() { rows = provenance.Sample(c.Expr, it, h) })
		t.add("provenance.sample_rows", float64(len(rows)))
	}
	var utt, sql string
	children += o.timed(o.root, "utterance.utter", func() { utt = utterance.Utter(c.Expr) })
	children += o.timed(o.root, "sqlgen.translate", func() {
		if s, err := sqlgen.TranslateSQL(c.Expr); err == nil {
			sql = s
		}
	})
	var grid render.Grid
	children += o.timed(o.root, "render.grid", func() { grid = render.JSONGrid(it, h, rows, sampled) })
	var prov engine.ProvJSON
	children += o.timed(o.root, "provenance.levels", func() { prov = provJSON(it, h.Prov) })
	doc := &engine.Explanation{
		Table: name, Version: t.versions[name], Query: c.Expr.String(), Utterance: utt,
		SQL: sql, Result: res.String(), Grid: grid, Provenance: prov,
	}
	var body []byte
	o.timed(o.root, "wtq-server.encode", func() {
		body, err = encode(struct {
			*engine.Explanation
			Cached bool `json:"cached"`
		}{doc, cached})
	})
	t.record(o.op, o.root, "replay.explain", pipe, time.Now())
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(body, q.body) {
		return 0, fmt.Errorf("decomposed replay of explain %q on %s differs from the server's reply (%d vs %d bytes)", query, name, len(body), len(q.body))
	}
	t.add("provenance.po_cells", float64(len(prov.Output)))
	t.add("provenance.pe_cells", float64(len(prov.Execution)))
	t.add("provenance.pc_cells", float64(len(prov.Columns)))
	t.add("render.grid_cells", float64(len(grid.Rows)*len(grid.Headers)))
	return children, nil
}

// answer replays the op's last request, an answer, in-process.
func (o *opTrace) answer(r *opRun, tab *table.Table, query string, cached bool) error {
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	q := r.reqs[len(r.reqs)-1]
	name := tab.Name()
	var (
		engMs, children float64
		engCached       bool
	)
	err := o.inOrder(func() error {
		var err error
		engMs = o.timed(o.root, "engine.answer", func() { _, engCached, err = t.eng.ExplainAnswer(context.Background(), name, query) })
		if err != nil {
			return fmt.Errorf("in-process answer of %q on %s: %w", query, name, err)
		}
		return nil
	}, func() error {
		var err error
		children, err = o.answerPipeline(q, name, query, cached)
		return err
	})
	if err != nil {
		return err
	}
	t.serverSelf(q, engMs)
	if !engCached {
		t.add("engine.self_ms", engMs-children)
	}
	return nil
}

// answerPipeline is explainPipeline for the answer-only path: parse,
// compile and an untraced plan execution.
func (o *opTrace) answerPipeline(q request, name, query string, cached bool) (float64, error) {
	t := o.t
	it := t.tables[name]
	pipe := time.Now()
	var (
		expr dcs.Expr
		c    *dcs.Compiled
		res  *dcs.Result
		err  error
	)
	children := o.timed(o.root, "dcs.parse", func() { expr, err = dcs.Parse(query) })
	if err != nil {
		return 0, err
	}
	children += o.timed(o.root, "dcs.compile", func() { c, err = dcs.Compile(expr, it) })
	if err != nil {
		return 0, err
	}
	children += o.timed(o.root, "plan.execute", func() { res, err = c.ExecuteWithCtx(context.Background(), it, plan.Noop{}) })
	if err != nil {
		return 0, err
	}
	var body []byte
	o.timed(o.root, "wtq-server.encode", func() {
		body, err = encode(struct {
			*engine.Answer
			Cached bool `json:"cached"`
		}{&engine.Answer{Table: name, Version: t.versions[name], Query: query, Result: res.String()}, cached})
	})
	t.record(o.op, o.root, "replay.answer", pipe, time.Now())
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(body, q.body) {
		return 0, fmt.Errorf("decomposed replay of answer %q on %s differs from the server's reply", query, name)
	}
	return children, nil
}

// parse replays the op's last request, a parse, in-process.
func (o *opTrace) parse(r *opRun, tab *table.Table, question string) error {
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	q := r.reqs[len(r.reqs)-1]
	name := tab.Name()
	var err error
	engMs := o.timed(o.root, "engine.parse_question", func() { _, err = t.eng.ParseQuestion(context.Background(), name, question, 7) })
	if err != nil {
		return fmt.Errorf("in-process parse of %q on %s: %w", question, name, err)
	}
	t.serverSelf(q, engMs)

	pipe := time.Now()
	parser := semparse.NewUncachedParser()
	var cands []*semparse.Candidate
	o.timed(o.root, "semparse.parse_all", func() { cands = parser.ParseAll(question, t.tables[name]) })
	t.add("semparse.candidates", float64(len(cands)))
	cands = cands[:min(len(cands), 7)]
	out := make([]engine.RankedCandidate, len(cands))
	for i, c := range cands {
		rc := engine.RankedCandidate{Rank: i + 1, Query: c.Query.String(), Score: c.Score}
		o.timed(o.root, "utterance.utter", func() { rc.Utterance = utterance.Utter(c.Query) })
		if c.Result != nil {
			rc.Result = c.Result.String()
		}
		out[i] = rc
	}
	var body []byte
	o.timed(o.root, "wtq-server.encode", func() {
		body, err = encode(map[string]any{"question": question, "candidates": out})
	})
	t.record(o.op, o.root, "replay.parse", pipe, time.Now())
	if err != nil {
		return err
	}
	if !bytes.Equal(body, q.body) {
		return fmt.Errorf("decomposed replay of parse %q on %s differs from the server's reply", question, name)
	}
	return nil
}

// register replays a churn registration on the in-process durable
// store, checking it hashes to the version the server acknowledged.
func (o *opTrace) register(src *table.Table, version string) error {
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	start := time.Now()
	tab := t.newTable(src.Name(), src.Columns(), src.RawRows())
	t.record(o.op, o.root, "table.new", start, time.Now())
	if tab == nil {
		return fmt.Errorf("copying churn table %s", src.Name())
	}
	var (
		snap *store.Snapshot
		err  error
	)
	o.timed(o.root, "store.register", func() { snap, err = t.eng.Store().Register(tab) })
	return t.installed(src.Name(), snap, err, version)
}

// append replays a churn append on the in-process store.
func (o *opTrace) append(name string, rows [][]string, version string) error {
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	var (
		snap *store.Snapshot
		err  error
	)
	o.timed(o.root, "store.append", func() { snap, err = t.eng.Store().Append(name, rows) })
	return t.installed(name, snap, err, version)
}

func (t *tracer) installed(name string, snap *store.Snapshot, err error, version string) error {
	if err != nil {
		return fmt.Errorf("in-process mutation of %s: %w", name, err)
	}
	if snap.Version() != version {
		return fmt.Errorf("in-process %s has version %s, server acknowledged %s", name, snap.Version(), version)
	}
	t.tables[name] = snap.Table()
	t.versions[name] = snap.Version()
	return nil
}

// drop replays a churn drop on the in-process store.
func (o *opTrace) drop(name string) error {
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	var (
		ok  bool
		err error
	)
	o.timed(o.root, "store.drop", func() { _, ok, err = t.eng.Store().Drop(name) })
	if err != nil || !ok {
		return fmt.Errorf("in-process drop of %s: ok=%v err=%v", name, ok, err)
	}
	delete(t.tables, name)
	delete(t.versions, name)
	return nil
}

// layers is the per-layer breakdown of the run: the mean of every
// sampled metric, 0 for layers the workload never reached.
func (t *tracer) layers(out map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range perLayer {
		if vs, ok := t.vals[m.name]; ok {
			out[m.name] = mean(vs)
		} else if _, set := out[m.name]; !set {
			out[m.name] = 0
		}
	}
	out["table.ingest_rows_s"] = ratio(t.ingestRows, t.ingestSec)
}

// writeSpans saves the run's spans as JSON.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

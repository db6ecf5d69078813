package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"sync"

	"nlexplain/internal/dcs"
	"nlexplain/internal/semparse"
	"nlexplain/internal/table"
	"nlexplain/internal/wikitables"
	"nlexplain/internal/workload"
)

// op is one unit of closed-loop traffic; which fields are set depends
// on the workload. Its JSON form is what the op-stream hash covers.
type op struct {
	ID       int           `json:"id"`
	Table    string        `json:"table,omitempty"`
	Question string        `json:"question,omitempty"`
	Query    string        `json:"query,omitempty"`
	Reads    []workload.Op `json:"reads,omitempty"`
	Churn    *workload.Op  `json:"churn,omitempty"`
}

// key identifies an op's request content, for the repeat share.
func (o op) key() string {
	o.ID = 0
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // unreachable: op has only encodable fields
	}
	return string(b)
}

// spec is one benchmark workload.
type spec struct {
	name  string
	conns int
	// cpu0 runs the client and the server on CPU 0 only.
	cpu0 bool
	// flags are the wtq-server flags beyond -addr; dataDir is a fresh
	// directory per server start.
	flags func(dataDir string) []string
	// build makes the workload's tables and op stream from the seed.
	build func(seed int64) *inputs
}

// inputs is everything a run sends, derived from the seed alone.
type inputs struct {
	tables []*table.Table
	byName map[string]*table.Table
	// next returns the next op of the stream. It is not safe for
	// concurrent use; stream serializes it.
	next func() op
	// run executes one op against the server.
	run func(r *opRun, in *inputs, o op) error
	// versions are the table versions the server acknowledged at
	// set-up, filled in by setup.
	versions map[string]tableInfo
}

// checkpointBytes is durable_churn's -checkpoint-bytes: small enough
// that several checkpoints complete in one run.
const checkpointBytes = 128 << 10

var specs = []spec{
	{
		name:  "wtq_questions",
		conns: 1,
		// An op is eight small requests, so wake-ups that cross CPUs
		// dominate its latency and made the run-to-run spread 3-6
		// times wider than with both processes on one CPU.
		cpu0:  true,
		flags: func(string) []string { return nil },
		build: buildQuestions,
	},
	{
		name:  "explain_large",
		conns: 1,
		cpu0:  true,
		flags: func(string) []string { return nil },
		build: buildExplainLarge,
	},
	{
		name:  "scan_big",
		conns: 1,
		flags: func(string) []string { return []string{"-max-table-bytes", fmt.Sprint(64 << 20)} },
		build: buildScanBig,
	},
	{
		name:  "durable_churn",
		conns: 2,
		flags: func(dir string) []string {
			return []string{"-data-dir", dir, "-checkpoint-bytes", fmt.Sprint(checkpointBytes)}
		},
		build: buildDurableChurn,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func newInputs(tables []*table.Table) *inputs {
	in := &inputs{tables: tables, byName: map[string]*table.Table{}, versions: map[string]tableInfo{}}
	for _, t := range tables {
		in.byName[t.Name()] = t
	}
	return in
}

// stream hands out the op stream to the connections in order.
type stream struct {
	mu   sync.Mutex
	in   *inputs
	next int
}

func (s *stream) take() op {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.in.next()
	o.ID = s.next
	s.next++
	return o
}

// hashOps fingerprints the first n ops of a stream.
func hashOps(in *inputs, n int) string {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	s := &stream{in: in}
	for range n {
		o := s.take()
		if err := enc.Encode(&o); err != nil {
			panic(err) // unreachable: op has only encodable fields
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Question popularity: one op in repeatEvery re-asks one of the
// hotSet questions asked most recently; the others ask the next
// question of a seeded permutation of the pool. The repeat share is
// then the same however many ops a run gets through, the hot set's
// parses and explanations fit the engine's default caches, and the
// median op is a fresh question rather than the boundary between
// fresh and repeated ones.
const (
	repeatEvery = 4
	hotSet      = 100
)

// buildQuestions is the Figure 2 deployment flow over the generated
// WikiTableQuestions-style dataset: one op asks one question (parse,
// top 7) and explains every returned candidate.
func buildQuestions(seed int64) *inputs {
	ds := wikitables.Generate(wikitables.DefaultOptions())
	in := newInputs(append(append([]*table.Table{}, ds.TrainTables...), ds.TestTables...))
	var pool []op
	for _, ex := range append(append([]*semparse.Example{}, ds.Train...), ds.Test...) {
		pool = append(pool, op{Table: ex.Table.Name(), Question: ex.Question})
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(pool))
	var asked []op
	in.next = func() op {
		if len(asked) > 0 && rng.Intn(repeatEvery) == 0 {
			return asked[max(0, len(asked)-1-rng.Intn(hotSet))]
		}
		o := pool[order[len(asked)%len(pool)]]
		asked = append(asked, o)
		return o
	}
	in.run = runQuestion
	return in
}

func runQuestion(r *opRun, in *inputs, o op) error {
	t := in.byName[o.Table]
	var parsed struct {
		Question   string `json:"question"`
		Candidates []struct {
			Rank  int    `json:"rank"`
			Query string `json:"query"`
		} `json:"candidates"`
	}
	body := map[string]any{"table": o.Table, "question": o.Question, "top_k": 7}
	if err := r.post(kindParse, "/v1/parse", body, &parsed); err != nil {
		return err
	}
	if parsed.Question != o.Question || len(parsed.Candidates) > 7 {
		return fmt.Errorf("parse of %q: echoed %q with %d candidates", o.Question, parsed.Question, len(parsed.Candidates))
	}
	if r.tr != nil {
		if err := r.tr.parse(r, t, o.Question); err != nil {
			return err
		}
	}
	for i, c := range parsed.Candidates {
		if c.Rank != i+1 {
			return fmt.Errorf("parse of %q: candidate %d has rank %d", o.Question, i, c.Rank)
		}
		if err := explain(r, t, in.versions[t.Name()].Version, c.Query); err != nil {
			return err
		}
	}
	return nil
}

// explain requests one explanation and queues it for the checks.
func explain(r *opRun, t *table.Table, version, query string) error {
	body, err := r.do(kindExplain, http.MethodPost, "/v1/explain", map[string]string{"table": t.Name(), "query": query}, http.StatusOK)
	if err != nil {
		return err
	}
	at, err := r.spill.put(body)
	if err != nil {
		return err
	}
	r.checks = append(r.checks, refCheck{t: t, version: version, query: query, reply: at})
	if r.tr != nil {
		// The reply is not decoded here; "cached" is its last field, and
		// the replay compares every byte, so a wrong reading fails it.
		return r.tr.explain(r, t, query, bytes.HasSuffix(body, []byte("\"cached\": true\n}\n")))
	}
	return nil
}

// answer requests one answer-only result and queues its reference check.
func answer(r *opRun, t *table.Table, version, query string) error {
	var ans answerReply
	if err := r.post(kindAnswer, "/v1/answer", map[string]string{"table": t.Name(), "query": query}, &ans); err != nil {
		return err
	}
	if ans.Table != t.Name() || version != "" && ans.Version != version {
		return fmt.Errorf("answer of %q served table %s version %s, want %s version %s", query, ans.Table, ans.Version, t.Name(), version)
	}
	r.checks = append(r.checks, refCheck{t: t, version: version, query: query, got: ans.Result})
	if r.tr != nil {
		return r.tr.answer(r, t, query, ans.Cached)
	}
	return nil
}

// largeRows is explain_large's table size: far past the sampling
// threshold, small enough for a tail percentile per run.
const largeRows = 20_000

// buildExplainLarge explains distinct queries over one 20,000-row
// table in the workload corpus schema; each explain is followed by the
// answer-only request for the same query.
func buildExplainLarge(seed int64) *inputs {
	big, _ := workload.NewCorpusSized(seed, largeRows).Table(workload.TableBig)
	in := newInputs([]*table.Table{big})
	rng := rand.New(rand.NewSource(seed ^ 0x6c8e9cf570932bd5))
	// Each family's cuts walk the unit interval by the golden ratio
	// from a seeded start, so any run of ops covers the cut range
	// evenly: what a query costs depends on where its cut falls, and
	// independent draws made the mix of cheap and dear queries, and so
	// the median, differ from seed to seed.
	var phase [5]float64
	for i := range phase {
		phase[i] = rng.Float64()
	}
	used := map[string]bool{}
	n := 0
	in.next = func() op {
		n++
		for {
			f := n % 5
			phase[f] = math.Mod(phase[f]+goldenStep, 1)
			q := largeQuery(rng, big, f, phase[f]).String()
			if !used[q] {
				used[q] = true
				return op{Table: big.Name(), Query: q}
			}
		}
	}
	in.run = func(r *opRun, in *inputs, o op) error {
		t := in.byName[o.Table]
		v := in.versions[o.Table].Version
		if err := explain(r, t, v, o.Query); err != nil {
			return err
		}
		return answer(r, t, v, o.Query)
	}
	return in
}

// goldenStep is the fractional part of the golden ratio: adding it
// modulo 1 spreads successive points evenly over the unit interval.
const goldenStep = 0.6180339887498949

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// largeQuery draws one query of family 0-4: lookup, comparative,
// superlative, aggregate or difference. The stream cycles through the
// families, so every run explains the same mix however few ops fit in
// it. Each query carries a Games cut at a fresh literal, so queries
// rarely repeat; the cut keeps at least 5% of the rows on either side,
// so aggregates never see an empty set. u in [0, 1) places the cut.
func largeQuery(rng *rand.Rand, t *table.Table, family int, u float64) dcs.Expr {
	cut := table.NumberValue(float64(50_000 + int(u*900_000)))
	games := func(ops ...dcs.CmpOp) dcs.Expr { return &dcs.Compare{Column: "Games", Op: pick(rng, ops), V: cut} }
	nation := func() dcs.Expr {
		return &dcs.Join{Column: "Nation", Arg: &dcs.ValueLit{V: t.Value(rng.Intn(t.NumRows()), 0)}}
	}
	text := []string{"Nation", "City", "Result"}
	switch family {
	case 0: // lookup
		return &dcs.ColumnValues{Column: pick(rng, text), Records: &dcs.Intersect{L: nation(), R: games(dcs.Ge, dcs.Le)}}
	case 1: // comparative
		if rng.Intn(2) == 0 {
			return &dcs.Aggregate{Fn: dcs.Count, Arg: games(dcs.Lt, dcs.Le, dcs.Gt, dcs.Ge)}
		}
		return &dcs.ColumnValues{Column: pick(rng, text), Records: games(dcs.Lt, dcs.Le, dcs.Gt, dcs.Ge)}
	case 2: // superlative
		return &dcs.ColumnValues{Column: pick(rng, text), Records: &dcs.ArgRecords{Max: rng.Intn(2) == 0, Records: games(dcs.Ge, dcs.Le), Column: "Year"}}
	case 3: // aggregate
		fn := pick(rng, []dcs.AggrFn{dcs.Min, dcs.Max, dcs.Sum, dcs.Avg})
		return &dcs.Aggregate{Fn: fn, Arg: &dcs.ColumnValues{Column: "Year", Records: games(dcs.Ge, dcs.Le)}}
	default: // difference
		count := func() dcs.Expr {
			return &dcs.Aggregate{Fn: dcs.Count, Arg: &dcs.Intersect{L: nation(), R: games(dcs.Ge)}}
		}
		return &dcs.Sub{L: count(), R: count()}
	}
}

// bigRows is scan_big's table size: past the 65,536-row morsel-parallel
// threshold and eight 32,768-row zones.
const bigRows = 262_144

// scanCycle is the family order of scan_big's stream: the bigtable
// mix's weights (filter 30, superlative 25, aggregate 25, selective 20)
// interleaved over 20 ops. Following it instead of the generator's
// random family draws gives every seed and every run length the same
// family mix, so the median answer of two seeds is the same kind of
// query.
var scanCycle = []string{
	"big_filter", "big_superlative", "big_aggregate", "big_selective",
	"big_filter", "big_superlative", "big_aggregate", "big_selective",
	"big_filter", "big_superlative", "big_aggregate", "big_filter",
	"big_selective", "big_superlative", "big_aggregate", "big_filter",
	"big_selective", "big_superlative", "big_aggregate", "big_filter",
}

// buildScanBig sends answer-only queries of the existing bigtable
// families over the big table, made distinct so each misses the cache.
// The generator's ops are queued by family and taken in scanCycle
// order.
func buildScanBig(seed int64) *inputs {
	corpus := workload.NewCorpusSized(seed, bigRows)
	big, _ := corpus.Table(workload.TableBig)
	in := newInputs([]*table.Table{big})
	mix, _ := workload.MixByName("bigtable")
	gen := workload.NewGenerator(seed, mix, corpus)
	queued := map[string][]workload.Op{}
	nextOf := func(family string) workload.Op {
		for len(queued[family]) == 0 {
			w := gen.Next()
			queued[w.Family] = append(queued[w.Family], w)
		}
		w := queued[family][0]
		queued[family] = queued[family][1:]
		return w
	}
	used := map[string]bool{}
	n := 0
	in.next = func() op {
		for {
			n++
			q := distinctQuery(nextOf(scanCycle[n%len(scanCycle)]).Query, n)
			if !used[q] {
				used[q] = true
				return op{Table: big.Name(), Query: q}
			}
		}
	}
	in.run = func(r *opRun, in *inputs, o op) error {
		return answer(r, in.byName[o.Table], in.versions[o.Table].Version, o.Query)
	}
	return in
}

// distinctQuery makes a whole-table query a distinct cache key without
// changing its answer: every Record becomes Games != n+10^6, and every
// Games value of the big table is below 10^6.
func distinctQuery(query string, n int) string {
	q, err := dcs.Parse(query)
	if err != nil {
		panic(fmt.Sprintf("generated query %q does not parse: %v", query, err)) // unreachable: generated from ASTs
	}
	all := &dcs.Compare{Column: "Games", Op: dcs.Ne, V: table.NumberValue(float64(1_000_000 + n))}
	return replaceAll(q, all).String()
}

func replaceAll(e dcs.Expr, all dcs.Expr) dcs.Expr {
	switch x := e.(type) {
	case *dcs.AllRecords:
		return all
	case *dcs.Aggregate:
		return &dcs.Aggregate{Fn: x.Fn, Arg: replaceAll(x.Arg, all)}
	case *dcs.ColumnValues:
		return &dcs.ColumnValues{Column: x.Column, Records: replaceAll(x.Records, all)}
	case *dcs.ArgRecords:
		return &dcs.ArgRecords{Max: x.Max, Records: replaceAll(x.Records, all), Column: x.Column}
	}
	return e
}

// buildDurableChurn mixes the existing churn lifecycle with explains
// and answers on long-lived tables, on a durable store. One op is the
// run of reads the durable mix draws before its next churn op, then
// that churn op.
func buildDurableChurn(seed int64) *inputs {
	corpus := workload.NewCorpus(seed)
	in := newInputs(corpus.Tables)
	mix, _ := workload.MixByName("durable")
	gen := workload.NewGenerator(seed, mix, corpus)
	in.next = func() op {
		var o op
		for {
			w := gen.Next()
			if w.Kind == workload.OpChurn {
				o.Churn = &w
				return o
			}
			o.Reads = append(o.Reads, w)
		}
	}
	in.run = runChurn
	return in
}

func runChurn(r *opRun, in *inputs, o op) error {
	for _, w := range o.Reads {
		t := in.byName[w.Table]
		v := in.versions[w.Table].Version
		var err error
		switch w.Kind {
		case workload.OpExplain:
			err = explain(r, t, v, w.Query)
		case workload.OpAnswer:
			err = answer(r, t, v, w.Query)
		default:
			err = fmt.Errorf("durable mix drew unexpected op kind %q", w.Kind)
		}
		if err != nil {
			return err
		}
	}
	c := o.Churn
	name := fmt.Sprintf("%s_%d", c.Table, o.ID)
	t, err := table.New(name, c.Columns, c.Rows)
	if err != nil {
		return err
	}
	grownRows := append(append([][]string{}, c.Rows...), c.AppendRows...)
	grown, err := table.New(name, c.Columns, grownRows)
	if err != nil {
		return err
	}
	var reg, app tableInfo
	body, err := r.do(kindMutation, http.MethodPost, "/v1/tables", map[string]any{"name": name, "columns": c.Columns, "rows": c.Rows}, http.StatusCreated)
	if err != nil {
		return err
	}
	if err := decodeInto("register", body, &reg); err != nil {
		return err
	}
	r.user += cellBytes(c.Columns, c.Rows)
	if r.tr != nil {
		if err := r.tr.register(t, reg.Version); err != nil {
			return err
		}
	}
	if err := explain(r, t, reg.Version, c.Query); err != nil {
		return err
	}
	body, err = r.do(kindMutation, http.MethodPatch, "/v1/tables/"+name, map[string]any{"rows": c.AppendRows}, http.StatusOK)
	if err != nil {
		return err
	}
	if err := decodeInto("append", body, &app); err != nil {
		return err
	}
	r.user += cellBytes(nil, c.AppendRows)
	if app.Generation <= reg.Generation || app.Version == reg.Version || app.Rows != len(grownRows) {
		return fmt.Errorf("churn append to %s: generation %d -> %d, version %s -> %s, %d rows (want %d)",
			name, reg.Generation, app.Generation, reg.Version, app.Version, app.Rows, len(grownRows))
	}
	if r.tr != nil {
		if err := r.tr.append(name, c.AppendRows, app.Version); err != nil {
			return err
		}
	}
	if err := answer(r, grown, app.Version, c.Query); err != nil {
		return err
	}
	var dropped struct {
		Dropped tableInfo `json:"dropped"`
	}
	body, err = r.do(kindMutation, http.MethodDelete, "/v1/tables/"+name, nil, http.StatusOK)
	if err != nil {
		return err
	}
	if err := decodeInto("drop", body, &dropped); err != nil {
		return err
	}
	if dropped.Dropped.Name != name || dropped.Dropped.Generation != app.Generation || dropped.Dropped.Version != app.Version {
		return fmt.Errorf("churn drop of %s acknowledged %+v, want generation %d version %s", name, dropped.Dropped, app.Generation, app.Version)
	}
	if r.tr != nil {
		if err := r.tr.drop(name); err != nil {
			return err
		}
	}
	return nil
}

// cellBytes is the cell text (and header text) a mutation carries.
func cellBytes(columns []string, rows [][]string) float64 {
	n := 0
	for _, c := range columns {
		n += len(c)
	}
	for _, row := range rows {
		for _, c := range row {
			n += len(c)
		}
	}
	return float64(n)
}

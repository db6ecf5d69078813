// Package engine is the reusable explanation pipeline behind the
// wtq-server service: it unifies parse → typecheck → execute →
// provenance → highlight → utterance behind one Engine type with a
// named-table registry, LRU caches for parsed ASTs and full explanation
// results (keyed on table version + query string), a bounded worker
// pool for concurrent batch execution with per-query timeouts, and
// scrape-ready counters.
//
// The pipeline itself reproduces the deployment flow of Section 6.3 of
// "Explaining Queries over Web Tables to Non-Experts" (ICDE 2019); the
// engine adds the serving machinery that lets one process answer many
// concurrent explanation requests over many registered tables.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"nlexplain/internal/dcs"
	"nlexplain/internal/export"
	"nlexplain/internal/fault"
	"nlexplain/internal/plan"
	"nlexplain/internal/provenance"
	"nlexplain/internal/render"
	"nlexplain/internal/retry"
	"nlexplain/internal/semparse"
	"nlexplain/internal/store"
	"nlexplain/internal/table"
	"nlexplain/internal/utterance"
)

// Options configures an Engine. The zero value selects sensible
// defaults for every field.
type Options struct {
	// CacheSize caps each LRU cache (ASTs, explanation results).
	// Default 1024 entries.
	CacheSize int
	// Workers bounds the concurrent pipeline executions of batch
	// requests. Default GOMAXPROCS.
	Workers int
	// QueryTimeout is the per-query deadline applied when a request
	// carries none of its own; request-supplied timeouts are clamped
	// to it, so it is the operator's hard per-query cap. Default 10s.
	QueryTimeout time.Duration
	// MaxPending bounds how many uncached pipeline computations may
	// exist at once (running + queued for a worker slot); beyond it
	// new work is shed with ErrOverloaded instead of parking
	// goroutines without limit. Default 16x Workers.
	MaxPending int
	// SampleThreshold is the row count above which explanation grids
	// switch to Section 5.3 record sampling. Default 40.
	SampleThreshold int
	// StoreShards is the lock-stripe count of the versioned table
	// store. Default 16 (store default).
	StoreShards int
	// StoreByteBudget bounds the table store's resident-byte estimate;
	// over it, cold tables' derived indexes are evicted (base data
	// never is). 0 means unlimited.
	StoreByteBudget int64
	// DataDir enables durable storage: the table store writes every
	// catalog mutation to a write-ahead log under this directory and
	// compacts it into columnar segment checkpoints, so registered
	// tables survive restarts (Open recovers them). Empty means
	// in-memory only.
	DataDir string
	// WALSyncWindow is the WAL group-commit window: mutations landing
	// within it share one fsync. 0 selects the store default (2ms);
	// negative syncs every mutation individually. Ignored without
	// DataDir.
	WALSyncWindow time.Duration
	// CheckpointInterval is the periodic checkpoint cadence (0 = store
	// default of 30s; negative disables the timer). Ignored without
	// DataDir.
	CheckpointInterval time.Duration
	// CheckpointBytes triggers a checkpoint when the active WAL grows
	// past it (0 = store default of 8MiB; negative disables). Ignored
	// without DataDir.
	CheckpointBytes int64
	// FS is the filesystem the durability layer performs all I/O
	// through. nil means the real OS; tests and chaos runs inject a
	// fault.InjectFS. Ignored without DataDir.
	FS fault.FS
	// RecoveryBackoff paces the store's degraded-mode recovery loop
	// (zero value = retry package defaults). Ignored without DataDir.
	RecoveryBackoff retry.Backoff
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueryTimeout <= 0 {
		o.QueryTimeout = 10 * time.Second
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 16 * o.Workers
	}
	if o.SampleThreshold <= 0 {
		o.SampleThreshold = 40
	}
	return o
}

// ErrUnknownTable reports a request against a table name that is not
// in the registry; match it with errors.Is.
var ErrUnknownTable = errors.New("unknown table")

// ErrInternal marks a server-side pipeline failure (a contained
// panic), as opposed to a client mistake; match it with errors.Is to
// map it to a 5xx status.
var ErrInternal = errors.New("internal pipeline failure")

// ErrOverloaded reports that the engine shed a request because
// MaxPending uncached computations are already running or queued;
// clients should back off and retry. Match it with errors.Is.
var ErrOverloaded = errors.New("engine overloaded")

// ErrUnavailable reports a mutation rejected because the durable store
// cannot persist it — a durability fault, or degraded read-only mode
// while recovery retries in the background. Reads keep serving; the
// client should back off and retry the mutation (HTTP 503 +
// Retry-After). Match it with errors.Is.
var ErrUnavailable = errors.New("store unavailable, retry later")

// Engine is the concurrent explanation pipeline. It is safe for
// concurrent use; cached *Explanation values are shared between callers
// and must be treated as immutable.
//
// Table state lives in the versioned store (internal/store): every
// request pins an immutable snapshot, so registrations, appends and
// drops never tear an execution in flight, and each mutation's
// invalidation hook synchronously purges the displaced version's
// entries from the result/plan/answer/parse LRUs.
type Engine struct {
	opts  Options
	store *store.Store

	asts       *lruCache // query string -> dcs.Expr
	plans      *lruCache // table version + query -> *dcs.Compiled
	results    *lruCache // table version + query -> *Explanation
	answers    *lruCache // table version + query -> *Answer
	parseCache *lruCache // table version + question -> []*semparse.Candidate

	// inflight deduplicates concurrent computations of the same cache
	// key (singleflight): duplicate queries in one batch execute once.
	inflightMu sync.Mutex
	inflight   map[string]*inflightCall

	sem   chan struct{} // worker pool: bounds running pipeline computations
	admit chan struct{} // admission queue: bounds running + queued computations

	// met is the registry-backed instrumentation ("engine." and
	// "store." namespaces); see metrics.go and internal/metric.
	met *metrics
}

// New builds an in-memory Engine with the given options (zero value =
// defaults). It panics if opts.DataDir is set and recovery fails; use
// Open to handle durable startup errors.
func New(opts Options) *Engine {
	e, err := Open(opts)
	if err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	return e
}

// Open builds an Engine. With Options.DataDir set, the table store
// opens its durability layer first — loading the latest checkpoint,
// replaying the WAL tail and resuming at the recovered generation —
// so the engine's caches, memory accounting and per-snapshot parsers
// all build over the recovered catalog. The error is non-nil only for
// durable startup failures (recovery refuses corrupt logs/segments).
func Open(opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	sopts := store.Options{
		Shards:     opts.StoreShards,
		ByteBudget: opts.StoreByteBudget,
	}
	var st *store.Store
	if opts.DataDir != "" {
		var err error
		st, err = store.Open(sopts, store.DurableOptions{
			Dir:                opts.DataDir,
			SyncWindow:         opts.WALSyncWindow,
			CheckpointInterval: opts.CheckpointInterval,
			CheckpointBytes:    opts.CheckpointBytes,
			FS:                 opts.FS,
			RecoveryBackoff:    opts.RecoveryBackoff,
		})
		if err != nil {
			return nil, err
		}
	} else {
		st = store.New(sopts)
	}
	e := &Engine{
		opts:       opts,
		store:      st,
		asts:       newLRU(opts.CacheSize),
		plans:      newLRU(opts.CacheSize),
		results:    newLRU(opts.CacheSize),
		answers:    newLRU(opts.CacheSize),
		parseCache: newLRU(opts.CacheSize),
		inflight:   make(map[string]*inflightCall),
		sem:        make(chan struct{}, opts.Workers),
		admit:      make(chan struct{}, opts.MaxPending),
	}
	e.initMetrics()
	// Version-scoped invalidation: the store delivers every replace and
	// drop synchronously, so by the time a mutation returns, no cache
	// can serve the displaced version. (A computation already in flight
	// against the old snapshot may still publish under the old version
	// afterwards; such entries are unreachable — lookups key on the
	// current version — and age out of the LRU.) Re-registering
	// identical content keeps its version, so an idempotent re-POST
	// must not wipe the still-valid entries.
	e.store.OnEvent(func(ev store.Event) {
		if ev.Old == nil {
			return
		}
		if ev.New != nil && ev.New.Version() == ev.Old.Version() {
			return
		}
		e.purgeVersion(ev.Old.Version())
	})
	return e, nil
}

// Close flushes and closes the store's durability layer: a final
// checkpoint compacts the WAL, then the log is closed. Mutations
// after Close fail; queries keep working against the resident
// catalog. In-memory engines close as a no-op.
func (e *Engine) Close() error { return e.store.Close() }

// Checkpoint forces a durability checkpoint now (no-op in-memory).
func (e *Engine) Checkpoint() error { return e.store.Checkpoint() }

// Store exposes the engine's versioned table store (stats, direct
// snapshot access for tests and embedders).
func (e *Engine) Store() *store.Store { return e.store }

// purgeVersion eagerly removes every cache entry scoped to a displaced
// table version from the result, plan, answer and parse LRUs.
func (e *Engine) purgeVersion(version string) {
	e.results.purgePrefix(version + "\x00")
	e.plans.purgePrefix("plan\x00" + version + "\x00")
	e.answers.purgePrefix("answer\x00" + version + "\x00")
	e.parseCache.purgePrefix("parse\x00" + version + "\x00")
}

// TableInfo describes one registered table.
type TableInfo struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	// Generation is the store's monotonic install counter: unique per
	// mutation even when content (and therefore Version) repeats.
	Generation uint64 `json:"generation"`
	Rows       int    `json:"rows"`
	Cols       int    `json:"cols"`
}

func infoOf(s *store.Snapshot) TableInfo {
	t := s.Table()
	return TableInfo{Name: t.Name(), Version: s.Version(), Generation: s.Gen(), Rows: t.NumRows(), Cols: t.NumCols()}
}

// RegisterTable adds (or replaces) a pre-built table under its own
// name and returns its registry info. Replacing a name synchronously
// purges the displaced version's entries from every cache. On a
// durable engine the registration is fsync-durable before it returns;
// a failure to persist fails the mutation (nothing installed) with an
// ErrUnavailable-classed error.
func (e *Engine) RegisterTable(t *table.Table) (TableInfo, error) {
	snap, err := e.store.Register(t)
	if err != nil {
		return TableInfo{}, e.mapStoreErr(err)
	}
	return infoOf(snap), nil
}

// RegisterRaw builds a table from a header and raw rows (cells are
// typed automatically) and registers it.
func (e *Engine) RegisterRaw(name string, columns []string, rows [][]string) (TableInfo, error) {
	t, err := table.New(name, columns, rows)
	if err != nil {
		return TableInfo{}, err
	}
	return e.RegisterTable(t)
}

// mapStoreErr classifies store mutation failures for transport: a
// durability failure — including the degraded-mode fail-fast — means
// the store cannot accept writes right now but reads still serve, so
// it is wrapped as ErrUnavailable (HTTP 503 + Retry-After) while
// staying matchable as store.ErrDurability / store.ErrDegraded.
func (e *Engine) mapStoreErr(err error) error {
	if errors.Is(err, store.ErrDurability) {
		e.met.errors.Inc()
		return fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	return err
}

// Health describes the engine's serving state: "ok", or "degraded"
// with the durability fault that started the episode while the store
// is read-only and recovery retries in the background.
type Health struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// Health reports the engine's current serving state.
func (e *Engine) Health() Health {
	if degraded, reason := e.store.Degraded(); degraded {
		return Health{Status: "degraded", Reason: reason}
	}
	return Health{Status: "ok"}
}

// AppendRows installs a copy-on-write successor of a registered table
// with rows appended, bumping the generation and synchronously purging
// the old version's cache entries. Queries in flight keep the snapshot
// they pinned.
func (e *Engine) AppendRows(name string, rows [][]string) (TableInfo, error) {
	snap, err := e.store.Append(name, rows)
	if err != nil {
		if errors.Is(err, store.ErrUnknownTable) {
			e.met.errors.Inc()
			return TableInfo{}, fmt.Errorf("%w: %q", ErrUnknownTable, name)
		}
		return TableInfo{}, e.mapStoreErr(err)
	}
	return infoOf(snap), nil
}

// DropTable removes a table from the store, returning its final
// registry info and whether it existed. Its cache entries are purged
// synchronously; snapshots already pinned by in-flight queries stay
// readable. On a durable engine the drop is fsync-durable before it
// returns.
func (e *Engine) DropTable(name string) (TableInfo, bool, error) {
	snap, ok, err := e.store.Drop(name)
	if err != nil {
		return TableInfo{}, false, e.mapStoreErr(err)
	}
	if !ok {
		return TableInfo{}, false, nil
	}
	return infoOf(snap), true, nil
}

// Table returns a registered table and its version.
func (e *Engine) Table(name string) (*table.Table, string, bool) {
	snap, ok := e.store.Get(name)
	if !ok {
		return nil, "", false
	}
	return snap.Table(), snap.Version(), true
}

// Tables lists the registry, in unspecified order.
func (e *Engine) Tables() []TableInfo {
	snaps := e.store.Snapshots()
	out := make([]TableInfo, 0, len(snaps))
	for _, s := range snaps {
		out = append(out, infoOf(s))
	}
	return out
}

// TableDetail is the full table resource on the wire: TableInfo plus
// the schema and the store's resident-byte estimate, served by
// GET /v1/tables/{name} and per entry by GET /v1/tables.
type TableDetail struct {
	TableInfo
	// Columns is the table's header, in column order.
	Columns []string `json:"columns"`
	// Bytes is the table's resident footprint estimate: base data plus
	// currently built derived indexes.
	Bytes int64 `json:"bytes"`
}

func detailOf(s *store.Snapshot) TableDetail {
	t := s.Table()
	return TableDetail{
		TableInfo: infoOf(s),
		Columns:   t.Columns(),
		Bytes:     t.BaseBytes() + t.DerivedBytes(),
	}
}

// TableDetail returns the full resource view of one registered table.
func (e *Engine) TableDetail(name string) (TableDetail, bool) {
	snap, ok := e.store.Get(name)
	if !ok {
		return TableDetail{}, false
	}
	return detailOf(snap), true
}

// TableDetails lists the full resource view of every registered table,
// sorted by name so list responses are stable.
func (e *Engine) TableDetails() []TableDetail {
	snaps := e.store.Snapshots()
	out := make([]TableDetail, 0, len(snaps))
	for _, s := range snaps {
		out = append(out, detailOf(s))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ProvCell is one provenance cell reference on the wire.
type ProvCell struct {
	Row int `json:"row"`
	Col int `json:"col"`
}

// ProvJSON is the multilevel provenance Prov(Q,T) = (PO, PE, PC) in
// wire form, with cells sorted row-major per level.
type ProvJSON struct {
	Output      []ProvCell        `json:"output"`
	Execution   []ProvCell        `json:"execution"`
	Columns     []ProvCell        `json:"columns"`
	Aggrs       []string          `json:"aggrs,omitempty"`
	HeaderAggrs map[string]string `json:"header_aggrs,omitempty"` // column name -> fn
}

func provJSON(t *table.Table, p *provenance.Prov) ProvJSON {
	conv := func(cells []table.CellRef) []ProvCell {
		out := make([]ProvCell, len(cells))
		for i, c := range cells {
			out[i] = ProvCell{Row: c.Row, Col: c.Col}
		}
		return out
	}
	po, pe, pc := p.Levels()
	j := ProvJSON{Output: conv(po), Execution: conv(pe), Columns: conv(pc)}
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

// Explanation is the full pipeline output for one query on one
// registered table, ready for JSON encoding. Cached instances are
// shared across requests: treat as immutable.
type Explanation struct {
	Table      string      `json:"table"`
	Version    string      `json:"version"`
	Query      string      `json:"query"`
	Utterance  string      `json:"utterance"`
	SQL        string      `json:"sql,omitempty"` // empty outside the SQL fragment
	Result     string      `json:"result"`
	Grid       render.Grid `json:"grid"`
	Provenance ProvJSON    `json:"provenance"`
}

// parseQuery resolves a query string through the AST cache.
func (e *Engine) parseQuery(src string) (dcs.Expr, error) {
	if v, ok := e.asts.get(src); ok {
		e.met.astHits.Inc()
		return v.(dcs.Expr), nil
	}
	e.met.astMisses.Inc()
	q, err := dcs.Parse(src)
	if err != nil {
		return nil, err
	}
	e.asts.put(src, q)
	return q, nil
}

// compiledPlan resolves a query's compiled relational plan through
// the plan LRU, keyed on snapshot version so a mutated table can
// never serve a stale plan. Compiled plans are table-bound, immutable
// and safe to share across concurrent executions.
func (e *Engine) compiledPlan(snap *store.Snapshot, q dcs.Expr, query string) (*dcs.Compiled, error) {
	key := "plan\x00" + snap.Version() + "\x00" + query
	if v, ok := e.plans.get(key); ok {
		e.met.planHits.Inc()
		return v.(*dcs.Compiled), nil
	}
	e.met.planMisses.Inc()
	c, err := dcs.Compile(q, snap.Table())
	if err != nil {
		return nil, err
	}
	e.plans.put(key, c)
	return c, nil
}

// compute runs the uncached pipeline: parse through the AST cache,
// compile through the plan cache, then the shared export pipeline
// (execute, provenance+highlight, sample, utter, translate), then the
// engine's extra provenance projection. The leader's request ctx is
// threaded into plan execution, so a caller that gave up stops the
// scan at the next row-batch boundary instead of burning it to
// completion.
func (e *Engine) compute(ctx context.Context, snap *store.Snapshot, tableName, query string) (*Explanation, error) {
	start := time.Now()
	q, err := e.parseQuery(query)
	if err != nil {
		return nil, fmt.Errorf("parsing %q: %w", query, err)
	}
	c, err := e.compiledPlan(snap, q, query)
	if err != nil {
		return nil, fmt.Errorf("compiling %s on %s: %w", q, tableName, err)
	}
	// Resolve the table through the snapshot handle once; the whole
	// export pipeline (execute, provenance, sample) reads this one
	// pinned state.
	tab := snap.PlanTable()
	var (
		doc *export.ExplanationJSON
		h   *provenance.Highlights
	)
	// -pprof profiles attribute CPU to query families through these
	// labels.
	pprof.Do(ctx, execLabels(c, tableName), func(ctx context.Context) {
		doc, h, err = export.BuildCompiledCtx(ctx, c, tab, e.opts.SampleThreshold)
	})
	if err != nil {
		return nil, fmt.Errorf("explaining %s on %s: %w", q, tableName, err)
	}
	ex := &Explanation{
		Table:      tableName,
		Version:    snap.Version(),
		Query:      doc.Query,
		Utterance:  doc.Utterance,
		SQL:        doc.SQL,
		Result:     doc.Result,
		Grid:       doc.Table,
		Provenance: provJSON(tab, h.Prov),
	}
	e.met.executions.Inc()
	e.met.explainLatency.RecordDuration(time.Since(start))
	return ex, nil
}

// execLabels builds the pprof label set attached around plan
// execution: the plan's query family and the table name.
func execLabels(c *dcs.Compiled, tableName string) pprof.LabelSet {
	return pprof.Labels("query_family", plan.FamilyOf(c.Root), "table", tableName)
}

// isCtxErr reports whether err is a context cancellation or deadline
// expiry (possibly wrapped).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// withDefaultDeadline bounds the caller's context by the engine's
// QueryTimeout: contexts with no deadline get one, and contexts with a
// deadline beyond the cap are clamped to it, making QueryTimeout the
// hard per-query bound its documentation promises.
func (e *Engine) withDefaultDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	hardCap := time.Now().Add(e.opts.QueryTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(hardCap) {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, hardCap)
}

// countCtxErr books a context failure: only genuine deadline expiry
// counts as a timeout; client cancellations are not pipeline signal.
func (e *Engine) countCtxErr(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		e.met.timeouts.Inc()
	}
}

// Explain runs the full pipeline for one query over a registered table,
// honoring ctx for cancellation and deadlines.
func (e *Engine) Explain(ctx context.Context, tableName, query string) (*Explanation, error) {
	ex, _, err := e.explain(ctx, tableName, query)
	return ex, err
}

// ExplainCached is Explain plus whether the result was served from the
// explanation cache.
func (e *Engine) ExplainCached(ctx context.Context, tableName, query string) (*Explanation, bool, error) {
	return e.explain(ctx, tableName, query)
}

// explain is Explain plus a cache-hit indicator. It pins the table's
// current snapshot up front: the whole computation (compile, execute,
// provenance) reads that one consistent state even if mutations
// install newer generations meanwhile.
func (e *Engine) explain(ctx context.Context, tableName, query string) (*Explanation, bool, error) {
	snap, ok := e.store.Get(tableName)
	if !ok {
		e.met.errors.Inc()
		return nil, false, fmt.Errorf("%w: %q", ErrUnknownTable, tableName)
	}
	key := snap.Version() + "\x00" + query
	if v, ok := e.results.get(key); ok {
		e.met.resultHits.Inc()
		return v.(*Explanation), true, nil
	}
	e.met.resultMisses.Inc()
	ctx, cancel := e.withDefaultDeadline(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		e.countCtxErr(err)
		return nil, false, err
	}

	// The pipeline runs in its own goroutine under the leader's request
	// context: the executor polls it, so an abandoned scan stops at the
	// next row-batch boundary instead of running to completion.
	// Concurrent requests for the same key join one in-flight
	// computation rather than duplicating it; a follower whose own
	// budget is still live when the leader's context dies retakes the
	// key and becomes the new leader.
	for {
		call, leader := e.joinInflight(key)
		if leader {
			e.startPipeline(key, call,
				func() (any, error) { return e.compute(ctx, snap, tableName, query) },
				func(v any) { e.results.put(key, v) })
		}
		select {
		case <-ctx.Done():
			e.countCtxErr(ctx.Err())
			return nil, false, ctx.Err()
		case <-call.done:
			if call.err != nil {
				if !leader && isCtxErr(call.err) && ctx.Err() == nil {
					continue
				}
				e.met.errors.Inc()
				e.countCtxErr(call.err)
				return nil, false, call.err
			}
			return call.val.(*Explanation), false, nil
		}
	}
}

// Answer is the answer-only pipeline output for one query on one
// registered table: the denotation string without witness cells,
// highlights or an utterance. Cached instances are shared across
// requests: treat as immutable.
type Answer struct {
	Table   string `json:"table"`
	Version string `json:"version"`
	Query   string `json:"query"`
	Result  string `json:"result"`
}

// ExplainAnswer runs the answer-only fast path for one query over a
// registered table: parse through the AST cache, compile through the
// plan cache, then execute under an inactive tracer, skipping every
// witness-cell, provenance and utterance computation. It shares the
// engine's worker pool, admission queue (ErrOverloaded applies) and
// in-flight deduplication with Explain, plus its own result LRU. The
// second return reports whether the answer came from that cache.
func (e *Engine) ExplainAnswer(ctx context.Context, tableName, query string) (*Answer, bool, error) {
	snap, ok := e.store.Get(tableName)
	if !ok {
		e.met.errors.Inc()
		return nil, false, fmt.Errorf("%w: %q", ErrUnknownTable, tableName)
	}
	key := "answer\x00" + snap.Version() + "\x00" + query
	if v, ok := e.answers.get(key); ok {
		e.met.answerHits.Inc()
		return v.(*Answer), true, nil
	}
	e.met.answerMisses.Inc()
	ctx, cancel := e.withDefaultDeadline(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		e.countCtxErr(err)
		return nil, false, err
	}
	for {
		call, leader := e.joinInflight(key)
		if leader {
			e.startPipeline(key, call,
				func() (any, error) { return e.computeAnswer(ctx, snap, tableName, query) },
				func(v any) { e.answers.put(key, v) })
		}
		select {
		case <-ctx.Done():
			e.countCtxErr(ctx.Err())
			return nil, false, ctx.Err()
		case <-call.done:
			if call.err != nil {
				// A ctx-class failure means the leader's caller gave up,
				// not that the query is bad; a follower with remaining
				// budget retakes the key and recomputes under its own ctx.
				if !leader && isCtxErr(call.err) && ctx.Err() == nil {
					continue
				}
				e.met.errors.Inc()
				e.countCtxErr(call.err)
				return nil, false, call.err
			}
			return call.val.(*Answer), false, nil
		}
	}
}

// computeAnswer runs the uncached answer-only path: shared AST and
// plan caches, then execution with witness capture off, under the
// leader's request ctx and pprof execution labels.
func (e *Engine) computeAnswer(ctx context.Context, snap *store.Snapshot, tableName, query string) (*Answer, error) {
	start := time.Now()
	q, err := e.parseQuery(query)
	if err != nil {
		return nil, fmt.Errorf("parsing %q: %w", query, err)
	}
	c, err := e.compiledPlan(snap, q, query)
	if err != nil {
		return nil, fmt.Errorf("compiling %s on %s: %w", q, tableName, err)
	}
	var res *dcs.Result
	pprof.Do(ctx, execLabels(c, tableName), func(ctx context.Context) {
		res, err = c.ExecuteSourceCtx(ctx, snap, plan.Noop{})
	})
	if err != nil {
		return nil, fmt.Errorf("answering %s on %s: %w", q, tableName, err)
	}
	ans := &Answer{Table: tableName, Version: snap.Version(), Query: query, Result: res.String()}
	e.met.answersComputed.Inc()
	e.met.answerLatency.RecordDuration(time.Since(start))
	return ans, nil
}

// inflightCall is one deduplicated computation; followers block on done.
type inflightCall struct {
	done chan struct{}
	val  any
	err  error
}

// joinInflight returns the in-flight call for key, creating it (and
// reporting leadership) when absent.
func (e *Engine) joinInflight(key string) (*inflightCall, bool) {
	e.inflightMu.Lock()
	defer e.inflightMu.Unlock()
	if call, ok := e.inflight[key]; ok {
		return call, false
	}
	call := &inflightCall{done: make(chan struct{})}
	e.inflight[key] = call
	return call, true
}

// finishInflight publishes a completed call's outcome and releases its
// key for future computations.
func (e *Engine) finishInflight(key string, call *inflightCall, val any, err error) {
	call.val, call.err = val, err
	e.inflightMu.Lock()
	delete(e.inflight, key)
	e.inflightMu.Unlock()
	close(call.done)
}

// startPipeline launches a leader computation for an inflight call:
// detached from any request context (so an abandoned computation still
// completes and warms the cache), bounded by the admission queue (a
// full queue sheds the call with ErrOverloaded instead of parking yet
// another goroutine), and taking a worker-pool slot while it runs. A
// panic in work is contained as ErrInternal; on success publish (if
// non-nil) stores the value before waiters are released.
func (e *Engine) startPipeline(key string, call *inflightCall, work func() (any, error), publish func(any)) {
	select {
	case e.admit <- struct{}{}:
	default:
		e.met.sheds.Inc()
		e.finishInflight(key, call, nil, ErrOverloaded)
		return
	}
	admitted := time.Now()
	go func() {
		defer func() { <-e.admit }()
		e.sem <- struct{}{}
		// Queue wait: admitted past the shed check, parked until a
		// worker slot freed up — the depth signal admission tuning needs.
		e.met.admitWait.RecordDuration(time.Since(admitted))
		var val any
		var err error
		defer func() {
			<-e.sem
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: pipeline panic: %v", ErrInternal, r)
			}
			if err == nil && publish != nil {
				publish(val)
			}
			e.finishInflight(key, call, val, err)
		}()
		val, err = work()
	}()
}

// Request is one query of a batch.
type Request struct {
	Table string `json:"table"`
	Query string `json:"query"`
	// Timeout overrides the engine's per-query deadline when positive;
	// it is clamped to Options.QueryTimeout, the operator's hard cap.
	Timeout time.Duration `json:"-"`
}

// BatchResult is the outcome of one batch request, in request order.
type BatchResult struct {
	Explanation *Explanation `json:"explanation,omitempty"`
	Cached      bool         `json:"cached"`
	Err         error        `json:"-"`
}

// ExplainBatch executes every request concurrently, each under its own
// per-query deadline, and returns results in request order. At most
// Workers goroutines run per batch (requests are fed to a fixed worker
// loop, so a huge batch never spawns a goroutine per entry); the
// actual pipeline computations additionally go through the engine-wide
// worker pool and admission queue shared with all other traffic. A
// canceled ctx fails every query that has not completed, including
// those in flight.
func (e *Engine) ExplainBatch(ctx context.Context, reqs []Request) []BatchResult {
	e.met.batches.Inc()
	start := time.Now()
	defer func() { e.met.batchLatency.RecordDuration(time.Since(start)) }()
	out := make([]BatchResult, len(reqs))
	idx := make(chan int)
	var wg sync.WaitGroup
	workers := e.opts.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = e.runBatchRequest(ctx, reqs[i])
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// runBatchRequest executes one batch entry under its per-query
// deadline (the request's own, clamped to the engine cap). The
// deadline starts immediately, so time a computation spends queued for
// a worker slot counts against the query's budget; cache hits are
// served by explain before any deadline check, so a warmed batch
// succeeds even with a tiny budget.
func (e *Engine) runBatchRequest(ctx context.Context, r Request) BatchResult {
	timeout := r.Timeout
	if timeout <= 0 || timeout > e.opts.QueryTimeout {
		timeout = e.opts.QueryTimeout
	}
	qctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	ex, cached, err := e.explain(qctx, r.Table, r.Query)
	return BatchResult{Explanation: ex, Cached: cached, Err: err}
}

// RankedCandidate is one semantic-parse candidate on the wire: a
// ranked query with its utterance, model score and result preview.
type RankedCandidate struct {
	Rank      int     `json:"rank"`
	Query     string  `json:"query"`
	Utterance string  `json:"utterance"`
	Score     float64 `json:"score"`
	Result    string  `json:"result,omitempty"`
}

// ParseQuestion maps an NL question over a registered table to ranked
// candidate queries via the log-linear semantic parser (Figure 2's
// deployment flow). topK <= 0 uses the parser's default (7).
func (e *Engine) ParseQuestion(ctx context.Context, tableName, question string, topK int) ([]RankedCandidate, error) {
	snap, ok := e.store.Get(tableName)
	if !ok {
		e.met.errors.Inc()
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, tableName)
	}
	ctx, cancel := e.withDefaultDeadline(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		e.countCtxErr(err)
		return nil, err
	}
	e.met.parses.Inc()

	// Candidate generation is the service's most expensive step; like
	// explain, it runs detached so ctx deadlines hold, takes a slot in
	// the engine-wide worker pool, is deduplicated so timeout+retry
	// loops on a slow question join one generation instead of stacking
	// new ones, and lands in a bounded LRU keyed by table version.
	// ParseAll (not Parse) so a topK above the parser's display
	// default is honored; the pools are read-only once published, safe
	// to share across waiters.
	key := "parse\x00" + snap.Version() + "\x00" + question
	var cands []*semparse.Candidate
	if v, ok := e.parseCache.get(key); ok {
		e.met.parseHits.Inc()
		cands = v.([]*semparse.Candidate)
	} else {
		e.met.parseMisses.Inc()
		call, leader := e.joinInflight(key)
		if leader {
			e.startPipeline(key, call,
				func() (any, error) {
					start := time.Now()
					cands := snap.Parser().ParseAll(question, snap.Table())
					e.met.parseLatency.RecordDuration(time.Since(start))
					return cands, nil
				},
				func(v any) { e.parseCache.put(key, v) })
		}
		select {
		case <-ctx.Done():
			e.countCtxErr(ctx.Err())
			return nil, ctx.Err()
		case <-call.done:
			if call.err != nil {
				e.met.errors.Inc()
				return nil, call.err
			}
			cands = call.val.([]*semparse.Candidate)
		}
	}
	if topK <= 0 {
		topK = snap.Parser().TopK
	}
	if topK > 0 && len(cands) > topK {
		cands = cands[:topK]
	}
	out := make([]RankedCandidate, len(cands))
	for i, c := range cands {
		rc := RankedCandidate{
			Rank:      i + 1,
			Query:     c.Query.String(),
			Utterance: utterance.Utter(c.Query),
			Score:     c.Score,
		}
		if c.Result != nil {
			rc.Result = c.Result.String()
		}
		out[i] = rc
	}
	return out, nil
}

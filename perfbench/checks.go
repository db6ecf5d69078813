package main

import (
	"fmt"
	"os"
	"sync"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

// sampleThreshold is the row count above which the server samples
// explanation grids (Section 5.3); it is the engine default.
const sampleThreshold = 40

// wireCell is one provenance cell on the wire.
type wireCell struct {
	Row int `json:"row"`
	Col int `json:"col"`
}

// explainReply is the part of a POST /v1/explain reply the checks read.
type explainReply struct {
	Table     string `json:"table"`
	Version   string `json:"version"`
	Query     string `json:"query"`
	Utterance string `json:"utterance"`
	Result    string `json:"result"`
	Grid      struct {
		Headers []string `json:"headers"`
		Rows    []int    `json:"rows"`
		Cells   [][]struct {
			Text string `json:"text"`
		} `json:"cells"`
		Sampled bool `json:"sampled"`
	} `json:"grid"`
	Provenance struct {
		Output    []wireCell `json:"output"`
		Execution []wireCell `json:"execution"`
		Columns   []wireCell `json:"columns"`
	} `json:"provenance"`
	Cached bool `json:"cached"`
}

// answerReply is a POST /v1/answer reply.
type answerReply struct {
	Table   string `json:"table"`
	Version string `json:"version"`
	Query   string `json:"query"`
	Result  string `json:"result"`
	Cached  bool   `json:"cached"`
}

// tableInfo is the registry info a mutation acknowledges.
type tableInfo struct {
	Name       string `json:"name"`
	Version    string `json:"version"`
	Generation uint64 `json:"generation"`
	Rows       int    `json:"rows"`
}

// cellLess orders cells row-major, the order the wire lists use.
func cellLess(a, b wireCell) bool { return a.Row < b.Row || a.Row == b.Row && a.Col < b.Col }

// subsetSorted reports whether sorted list a is contained in sorted b.
func subsetSorted(a, b []wireCell) bool {
	j := 0
	for _, c := range a {
		for j < len(b) && cellLess(b[j], c) {
			j++
		}
		if j == len(b) || b[j] != c {
			return false
		}
	}
	return true
}

func sortedCells(cs []wireCell) bool {
	for i := 1; i < len(cs); i++ {
		if !cellLess(cs[i-1], cs[i]) {
			return false
		}
	}
	return true
}

// checkExplain verifies one explanation against the client's copy of
// its table: identity, the provenance chain PO ⊆ PE ⊆ PC, and the grid
// shape — every row below the sampling threshold, otherwise a sample
// of at most one row per Section 5.3 stratum.
func checkExplain(ex *explainReply, t *table.Table, version string, q dcs.Expr) error {
	if ex.Table != t.Name() || version != "" && ex.Version != version {
		return fmt.Errorf("explain of %s served table %s version %s, want version %s", t.Name(), ex.Table, ex.Version, version)
	}
	if ex.Utterance == "" {
		return fmt.Errorf("explain of %q on %s: empty utterance", ex.Query, t.Name())
	}
	p := ex.Provenance
	if !sortedCells(p.Output) || !sortedCells(p.Execution) || !sortedCells(p.Columns) {
		return fmt.Errorf("explain of %q on %s: provenance cells not row-major sorted", ex.Query, t.Name())
	}
	if !subsetSorted(p.Output, p.Execution) || !subsetSorted(p.Execution, p.Columns) {
		return fmt.Errorf("explain of %q on %s: provenance violates PO ⊆ PE ⊆ PC", ex.Query, t.Name())
	}
	for _, c := range p.Columns {
		if c.Row < 0 || c.Row >= t.NumRows() || c.Col < 0 || c.Col >= t.NumCols() {
			return fmt.Errorf("explain of %q on %s: provenance cell %v outside the table", ex.Query, t.Name(), c)
		}
	}
	g := ex.Grid
	if len(g.Headers) != t.NumCols() || len(g.Cells) != len(g.Rows) {
		return fmt.Errorf("explain of %q on %s: grid has %d headers, %d rows of cells for %d rows", ex.Query, t.Name(), len(g.Headers), len(g.Cells), len(g.Rows))
	}
	if t.NumRows() > sampleThreshold {
		// One row for PO (one per operand of a difference), one for
		// PE∖PO and one for PC∖PE.
		strata := 3
		if hasSub(q) {
			strata = 4
		}
		if !g.Sampled || len(g.Rows) > strata {
			return fmt.Errorf("explain of %q on %s (%d rows): grid sampled=%v with %d rows, want sampled with at most %d", ex.Query, t.Name(), t.NumRows(), g.Sampled, len(g.Rows), strata)
		}
	} else if g.Sampled || len(g.Rows) != t.NumRows() {
		return fmt.Errorf("explain of %q on %s (%d rows): grid sampled=%v with %d rows, want all rows", ex.Query, t.Name(), t.NumRows(), g.Sampled, len(g.Rows))
	}
	for i, r := range g.Rows {
		if r < 0 || r >= t.NumRows() || len(g.Cells[i]) != t.NumCols() {
			return fmt.Errorf("explain of %q on %s: bad grid row %d", ex.Query, t.Name(), r)
		}
		for c, cell := range g.Cells[i] {
			if cell.Text != t.Raw(r, c) {
				return fmt.Errorf("explain of %q on %s: grid cell (%d,%d) is %q, table has %q", ex.Query, t.Name(), r, c, cell.Text, t.Raw(r, c))
			}
		}
	}
	return nil
}

func hasSub(q dcs.Expr) bool {
	if _, ok := q.(*dcs.Sub); ok {
		return true
	}
	for _, c := range q.Children() {
		if hasSub(c) {
			return true
		}
	}
	return false
}

// refCheck is a reply checked after the timed window. An answer
// carries its result in got; an explanation is kept whole in the spill
// file and gets the full checkExplain first. Either result must equal
// the one the benchmark computes itself.
type refCheck struct {
	op      int
	t       *table.Table
	version string
	query   string
	got     string
	reply   *spilled
}

// spill keeps explanation replies on disk until they are checked, so
// multi-megabyte replies cost neither client memory nor client CPU
// inside the timed window.
type spill struct {
	mu  sync.Mutex
	f   *os.File
	off int64
}

// spilled locates one reply in the spill file.
type spilled struct{ off, n int64 }

func newSpill(path string) (*spill, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spill{f: f}, nil
}

func (s *spill) put(b []byte) (*spilled, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.WriteAt(b, s.off); err != nil {
		return nil, err
	}
	at := &spilled{off: s.off, n: int64(len(b))}
	s.off += at.n
	return at, nil
}

func (s *spill) get(at *spilled) ([]byte, error) {
	b := make([]byte, at.n)
	_, err := s.f.ReadAt(b, at.off)
	return b, err
}

// reset empties the spill once its replies have been checked.
func (s *spill) reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.off = 0
	return s.f.Truncate(0)
}

func (s *spill) close() error { return s.f.Close() }

// references computes reference results with dcs.Execute on the
// client's own tables, memoized per table and query.
type references struct {
	mu   sync.Mutex
	memo map[*table.Table]map[string]string
}

func (r *references) result(t *table.Table, query string) (string, error) {
	r.mu.Lock()
	if s, ok := r.memo[t][query]; ok {
		r.mu.Unlock()
		return s, nil
	}
	r.mu.Unlock()
	q, err := dcs.Parse(query)
	if err != nil {
		return "", err
	}
	res, err := dcs.Execute(q, t)
	if err != nil {
		return "", err
	}
	s := res.String()
	r.mu.Lock()
	if r.memo == nil {
		r.memo = map[*table.Table]map[string]string{}
	}
	if r.memo[t] == nil {
		r.memo[t] = map[string]string{}
	}
	r.memo[t][query] = s
	r.mu.Unlock()
	return s, nil
}

// check runs one deferred check.
func (r *references) check(c refCheck, sp *spill) error {
	if c.reply != nil {
		body, err := sp.get(c.reply)
		if err != nil {
			return err
		}
		var ex explainReply
		if err := decodeInto("explain", body, &ex); err != nil {
			return err
		}
		q, err := dcs.Parse(c.query)
		if err != nil {
			return fmt.Errorf("explained query %q does not parse: %w", c.query, err)
		}
		if err := checkExplain(&ex, c.t, c.version, q); err != nil {
			return err
		}
		c.got = ex.Result
	}
	want, err := r.result(c.t, c.query)
	if err == nil && want != c.got {
		err = fmt.Errorf("%q on %s: server returned %q, reference %q", c.query, c.t.Name(), c.got, want)
	}
	return err
}

// verify runs the checks on workers goroutines and returns the ops
// that failed one, with the first failure.
func (r *references) verify(checks []refCheck, sp *spill, workers int) (map[int]bool, error) {
	var (
		mu     sync.Mutex
		failed = map[int]bool{}
		first  error
		wg     sync.WaitGroup
	)
	next := make(chan refCheck)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if err := r.check(c, sp); err != nil {
					mu.Lock()
					failed[c.op] = true
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, c := range checks {
		next <- c
	}
	close(next)
	wg.Wait()
	return failed, first
}

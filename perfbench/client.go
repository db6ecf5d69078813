package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Request kinds; the report gives latencies per kind.
const (
	kindParse    = "parse"
	kindExplain  = "explain"
	kindAnswer   = "answer"
	kindMutation = "mutation"
)

// newHTTPClient returns a client that holds at most conns connections
// to the server, so the closed loop never opens more than its callers.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// request is one timed HTTP exchange of an op.
type request struct {
	kind  string
	start time.Time
	ms    float64
	bytes int
	body  []byte
}

// opRun executes one op: it issues the op's requests, keeps their
// timings, and queues the result checks that are deferred until the
// timed window has closed.
type opRun struct {
	cl *http.Client
	// buf receives reply bodies; a body stays valid only until the
	// op's next request, which keeps multi-megabyte replies from
	// loading the client's garbage collector inside the timed window.
	buf    *bytes.Buffer
	base   string
	reqs   []request
	checks []refCheck
	spill  *spill
	user   float64 // cell-text bytes the op's mutations carried
	tr     *opTrace
}

// do sends one request and reads the whole reply. The latency covers
// the request and the full response body; anything but want is an error.
func (r *opRun) do(kind, method, path string, payload any, want int) ([]byte, error) {
	buf, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	q, err := send(r.cl, method, r.base+path, buf, want, r.buf)
	if err != nil {
		return nil, err
	}
	q.kind = kind
	r.reqs = append(r.reqs, q)
	return q.body, nil
}

// send performs one exchange and fails unless the status is want. The
// reply is read into into, which is reset first.
func send(cl *http.Client, method, url string, payload []byte, want int, into *bytes.Buffer) (request, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(payload))
	if err != nil {
		return request{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		return request{}, fmt.Errorf("%s %s: %w", method, url, err)
	}
	into.Reset()
	if resp.ContentLength > 0 {
		into.Grow(int(resp.ContentLength))
	}
	_, err = into.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	body := into.Bytes()
	if err != nil {
		return request{}, fmt.Errorf("%s %s: reading reply: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return request{}, fmt.Errorf("%s %s: status %d, want %d: %.300s", method, url, resp.StatusCode, want, body)
	}
	return request{start: start, ms: ms(d), bytes: len(body), body: body}, nil
}

func (r *opRun) post(kind, path string, payload any, out any) error {
	body, err := r.do(kind, http.MethodPost, path, payload, http.StatusOK)
	if err != nil {
		return err
	}
	return decodeInto(path, body, out)
}

func decodeInto(what string, body []byte, out any) error {
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("decoding %s reply: %w", what, err)
	}
	return nil
}

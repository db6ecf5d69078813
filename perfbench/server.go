package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverBin is where run.sh builds cmd/wtq-server, relative to the
// checkout root the benchmark runs from.
const serverBin = ".bench_build/bin/wtq-server"

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// server is one wtq-server child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	// logs collects the process's standard error for failure reports;
	// drained is closed once the copy reaches EOF.
	mu      sync.Mutex
	logs    bytes.Buffer
	drained chan struct{}
}

func (s *server) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logs.Len() < 1<<16 {
		s.logs.Write(p)
	}
	return len(p), nil
}

func (s *server) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logs.String()
}

// startServer launches wtq-server on an ephemeral loopback port and
// returns once it has logged the address it listens on.
func startServer(flags []string) (*server, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(serverBin, args...)
	// The server must not outlive the benchmark, even when the watchdog
	// ends it without the normal shutdown.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", serverBin, err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		br := bufio.NewReader(stderr)
		found := false
		for {
			line, err := br.ReadString('\n')
			_, _ = s.Write([]byte(line))
			if m := listenLine.FindStringSubmatch(line); m != nil && !found {
				found = true
				addr <- m[1]
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.drained:
		s.wait()
		return nil, fmt.Errorf("wtq-server exited before listening:\n%s", s.tail())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("wtq-server did not listen within 60s:\n%s", s.tail())
	}
}

func (s *server) wait() {
	<-s.drained
	_ = s.cmd.Wait()
}

// stop shuts the server down gracefully (SIGTERM, which flushes and
// checkpoints a durable store), killing it if it lingers.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// kill stops the server with SIGKILL: nothing is flushed, so only what
// the store acknowledged as durable survives.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	s.wait()
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// getJSON fetches path and decodes a 200 reply into out.
func getJSON(c *http.Client, base, path string, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = body
		return nil
	}
	return json.Unmarshal(body, out)
}

// waitHealthy polls /v1/healthz until the server reports ok.
func waitHealthy(c *http.Client, base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var h struct {
			Status string `json:"status"`
		}
		err := getJSON(c, base, "/v1/healthz", &h)
		if err == nil && h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz not ok within 60s: %v (status %q)", err, h.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricsScrape fetches and parses GET /metrics.
func metricsScrape(c *http.Client, base string) (scrape, error) {
	var body []byte
	if err := getJSON(c, base, "/metrics", &body); err != nil {
		return nil, err
	}
	return parseScrape(body)
}

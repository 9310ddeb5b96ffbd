package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one procmined child process built from the checkout under
// test. The benchmark talks to it only over HTTP.
type server struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	exited  chan struct{} // closed once the process has been waited for
	waitErr error         // cmd.Wait's result, set before exited closes
}

// readyTimeout bounds how long procmined may take to print its readiness
// line (restoring checkpoints included).
const readyTimeout = 60 * time.Second

// startServer launches procmined and waits for its readiness line, the
// contract its supervisors and smoke tests rely on. Its structured logs
// on stderr are discarded.
func startServer(ctx context.Context, bin string, args ...string) (*server, error) {
	cmd := exec.Command(filepath.Join(bin, "procmined"), append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting procmined: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Reading stdout to EOF keeps the child from blocking on a full
		// pipe; Wait may run only after the reads are done.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "procmined: listening on "); ok {
				if i := strings.IndexByte(rest, ' '); i > 0 {
					addr <- rest[:i]
				}
			}
		}
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("procmined exited before it was ready: %v", s.waitErr)
	case <-time.After(readyTimeout):
	case <-ctx.Done():
	}
	s.kill()
	return nil, fmt.Errorf("procmined was not ready within %v", readyTimeout)
}

// stop shuts procmined down gracefully and waits for it to exit, killing
// it if the drain takes too long.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return s.waitErr
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
		return s.waitErr
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("procmined did not drain within 30s; killed")
	}
}

// kill ends procmined at once, as a crash would, and waits for it. It is
// a no-op once the process has exited.
func (s *server) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Kill() // fails only if the process already exited
	<-s.exited
}

// peakRSS is procmined's VmHWM so far.
func (s *server) peakRSS() (float64, error) {
	return peakRSSMiB(strconv.Itoa(s.cmd.Process.Pid))
}

// newConn returns a client that holds at most one connection, so the
// number of clients is the number of connections the benchmark opens.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// do sends one request and returns the status and the whole body.
func do(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, r)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "text/plain")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// ingest posts one body and reports whether procmined acknowledged it
// whole: 200 with status "ok".
func (s *server) ingest(ctx context.Context, c *http.Client, data []byte) (bool, error) {
	code, b, err := do(ctx, c, http.MethodPost, s.base+"/ingest", data)
	if err != nil {
		return false, err
	}
	var resp struct {
		Status string `json:"status"`
	}
	if code != http.StatusOK || json.Unmarshal(b, &resp) != nil || resp.Status != "ok" {
		return false, nil
	}
	return true, nil
}

// model fetches the DOT model and reports whether it equals want.
func (s *server) model(ctx context.Context, c *http.Client, want string) (bool, error) {
	code, b, err := do(ctx, c, http.MethodGet, s.base+"/model?format=dot", nil)
	if err != nil {
		return false, err
	}
	return code == http.StatusOK && string(b) == want, nil
}

// stats is the part of /stats the benchmark reads.
type stats struct {
	Shards []struct {
		Executions int `json:"executions"`
	} `json:"shards"`
	Executions int `json:"executions"`
	Aggregate  struct {
		RecordsSkipped        int `json:"records_skipped"`
		ExecutionsQuarantined int `json:"executions_quarantined"`
	} `json:"aggregate"`
}

func (s *server) stats(ctx context.Context, c *http.Client) (*stats, error) {
	code, b, err := do(ctx, c, http.MethodGet, s.base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/stats: status %d", code)
	}
	var st stats
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}

// skew is the largest shard's execution count over the mean.
func (st *stats) skew() float64 {
	if len(st.Shards) == 0 || st.Executions == 0 {
		return 0
	}
	most := 0
	for _, sh := range st.Shards {
		most = max(most, sh.Executions)
	}
	return float64(most) * float64(len(st.Shards)) / float64(st.Executions)
}

// exposition is a parsed /metrics scrape: series (name plus sorted labels)
// to value.
type exposition map[string]float64

func (s *server) metrics(ctx context.Context, c *http.Client) (exposition, error) {
	code, b, err := do(ctx, c, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return parseExposition(b)
}

// parseExposition reads the Prometheus text format.
func parseExposition(b []byte) (exposition, error) {
	out := exposition{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed value in %q", line)
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], strings.TrimSuffix(name[i+1:], "}")
		}
		out[seriesKey(name, splitLabels(labels)...)] = v
	}
	return out, nil
}

// splitLabels splits `a="x",b="y"` into its pairs. Label values in
// procmined's exposition hold no commas.
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// seriesKey is the canonical key of a series: its name and its label
// pairs in sorted order.
func seriesKey(name string, labels ...string) string {
	sorted := append([]string(nil), labels...)
	sort.Strings(sorted)
	return name + "{" + strings.Join(sorted, ",") + "}"
}

// sum adds every series of a family whose labels include all of match.
func (e exposition) sum(name string, match ...string) float64 {
	var total float64
	for key, v := range e {
		rest, ok := strings.CutPrefix(key, name+"{")
		if !ok {
			continue
		}
		all := true
		for _, m := range match {
			if !strings.Contains(","+rest, ","+m+",") && !strings.Contains(","+rest, ","+m+"}") {
				all = false
				break
			}
		}
		if all {
			total += v
		}
	}
	return total
}

// routeMeanMs is the mean handler time, in ms, of the requests to route
// between two scrapes, from the latency histogram's sum and count.
func routeMeanMs(before, after exposition, route string) float64 {
	l := `route="` + route + `"`
	n := after.sum("procmined_http_request_seconds_count", l) - before.sum("procmined_http_request_seconds_count", l)
	if n == 0 {
		return 0
	}
	sec := after.sum("procmined_http_request_seconds_sum", l) - before.sum("procmined_http_request_seconds_sum", l)
	return sec / n * 1000
}

// rejected counts what procmined refused between two scrapes: batches its
// shards shed (429) and 5xx responses on any route.
func rejected(before, after exposition) float64 {
	return after.sum("procmined_ingest_rejected_total") - before.sum("procmined_ingest_rejected_total") +
		after.sum("procmined_http_request_seconds_count", `class="5xx"`) -
		before.sum("procmined_http_request_seconds_count", `class="5xx"`)
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"procmine/internal/core"
	"procmine/internal/wlog"
)

// binPath is the procmined binary built once in TestMain for the
// process-level tests.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "procmined-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "procmined")
	build := exec.Command("go", "build", "-o", binPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building procmined:", err)
		os.Exit(1)
	}
	code := m.Run()
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

// daemon is one running procmined process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	out  *bufio.Scanner
}

// startDaemon launches procmined on a free port and waits for readiness.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(binPath, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, out: bufio.NewScanner(stdout)}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for d.out.Scan() {
		line := d.out.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr := strings.Fields(line[i+len("listening on "):])[0]
			d.base = "http://" + addr
			return d
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatalf("procmined never reported a listen address (scan err: %v)", d.out.Err())
	return nil
}

// post sends a body and requires the given status.
func (d *daemon) post(t *testing.T, path, body string, want int) {
	t.Helper()
	resp, err := http.Post(d.base+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	data, _ := io.ReadAll(resp.Body)
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("POST %s = %d, want %d; body: %s", path, resp.StatusCode, want, data)
	}
}

// get fetches a path and returns the body.
func (d *daemon) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, data)
	}
	return string(data)
}

// fixtureLog builds the test trail over the Example 7 variants.
func fixtureLog(m int) *wlog.Log {
	variants := []string{"ABCF", "ACDF", "ADEF", "AECF"}
	seqs := make([]string, m)
	for i := range seqs {
		seqs[i] = variants[i%len(variants)]
	}
	return wlog.LogFromStrings(seqs...)
}

// textOf serializes a log in the text codec.
func textOf(t *testing.T, l *wlog.Log) string {
	t.Helper()
	var b strings.Builder
	if err := wlog.WriteText(&b, l.Events()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// batchDot batch-mines the whole log in-process with core.MineContext, as
// the oracle for the recovered service model.
func batchDot(t *testing.T, l *wlog.Log) string {
	t.Helper()
	g, err := core.MineContext(context.Background(), l, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g.Dot("procmined")
}

// TestKillRestartParity is the acceptance scenario: SIGKILL the daemon
// after a durable snapshot, restart it from the checkpoints, resend the
// unacknowledged batch, and require the mined model to be byte-identical to
// a single-process batch run over the whole log.
func TestKillRestartParity(t *testing.T) {
	dir := t.TempDir()
	whole := fixtureLog(20)
	a := &wlog.Log{Executions: whole.Executions[:12]}
	b := &wlog.Log{Executions: whole.Executions[12:]}

	d1 := startDaemon(t, "-shards", "3", "-snapshot-dir", dir)
	d1.post(t, "/ingest?format=text", textOf(t, a), http.StatusOK)
	// The snapshot is the durability cut: A is now acked.
	d1.post(t, "/admin/snapshot", "", http.StatusOK)
	// B arrives after the cut; the crash happens before the next snapshot,
	// so B is lost and the client must resend it.
	d1.post(t, "/ingest?format=text", textOf(t, b), http.StatusOK)
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := d1.cmd.Wait(); err == nil {
		t.Fatal("SIGKILLed process exited cleanly")
	}

	d2 := startDaemon(t, "-shards", "3", "-snapshot-dir", dir)
	if got, want := d2.get(t, "/model?format=dot"), batchDot(t, a); got != want {
		t.Fatalf("restored model is not batch(A):\ngot:\n%s\nwant:\n%s", got, want)
	}
	d2.post(t, "/ingest?format=text", textOf(t, b), http.StatusOK)
	if got, want := d2.get(t, "/model?format=dot"), batchDot(t, whole); got != want {
		t.Errorf("recovered model diverges from the single-process batch run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSigtermDrain checks the graceful path end to end: SIGTERM exits 0
// after flushing checkpoints — including a still-open execution, whose END
// arrives only after the restart.
func TestSigtermDrain(t *testing.T) {
	dir := t.TempDir()
	d1 := startDaemon(t, "-shards", "2", "-snapshot-dir", dir)
	d1.post(t, "/ingest?format=text", textOf(t, fixtureLog(4)), http.StatusOK)
	d1.post(t, "/ingest?format=text", "open1 A START 99000\n", http.StatusOK)

	if err := d1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d1.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v", err)
	}
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard-%04d.snap.json", i))
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("shutdown left no checkpoint for shard %d: %v", i, err)
		}
	}

	d2 := startDaemon(t, "-shards", "2", "-snapshot-dir", dir)
	d2.post(t, "/ingest?format=text", "open1 A END 99500\n", http.StatusOK)
	stats := d2.get(t, "/stats")
	if !strings.Contains(stats, `"executions": 5`) {
		t.Errorf("stats after drain/restart lack the handed-off execution: %s", stats)
	}
}

// TestSigtermAtReadiness signals the moment the readiness line is read, as
// a supervisor may: the handler must already be installed, so the process
// drains cleanly and checkpoints every shard.
func TestSigtermAtReadiness(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "-shards", "3", "-snapshot-dir", dir)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest []string
	for d.out.Scan() {
		rest = append(rest, d.out.Text())
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM at readiness: exit %v; stdout after readiness: %q", err, rest)
	}
	if !strings.Contains(strings.Join(rest, "\n"), "drained cleanly") {
		t.Errorf("no clean drain reported; stdout after readiness: %q", rest)
	}
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard-%04d.snap.json", i))
		if _, err := os.Stat(path); err != nil {
			t.Errorf("no checkpoint for shard %d: %v", i, err)
		}
	}
}

// TestOverloadAndRecovery checks the backpressure contract through the real
// HTTP stack: an overloaded shard sheds with 429 + Retry-After while other
// traffic keeps flowing.
func TestOverloadAndRecovery(t *testing.T) {
	d := startDaemon(t, "-shards", "1", "-max-open", "1")
	d.post(t, "/ingest?format=text", "p1 A START 1000\n", http.StatusOK)

	resp, err := http.Post(d.base+"/ingest?format=text", "text/plain", strings.NewReader("p2 A START 2000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded ingest = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 lacks Retry-After")
	}
	// Completing the open execution frees the slot.
	d.post(t, "/ingest?format=text", "p1 A END 3000\n", http.StatusOK)
	d.post(t, "/ingest?format=text", "p2 A START 4000\np2 A END 5000\n", http.StatusOK)
}

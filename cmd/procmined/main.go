// Command procmined is the always-on mining service: an HTTP server that
// ingests workflow event streams (text, CSV, JSON, or XES), partitions them
// by process-instance key across independent mining shards, and serves the
// mined process model at any time.
//
// Usage:
//
//	procmined -listen 127.0.0.1:9180 -shards 4 -snapshot-dir /var/lib/procmined
//
// Endpoints:
//
//	POST /ingest?format=text|csv|json|xes   ingest an event batch (gzip ok)
//	GET  /model?format=dot|json[&shard=N]   mine and render the model
//	GET  /stats                             per-shard and aggregate health
//	GET  /healthz                           liveness (503 while draining)
//	GET  /metrics                           Prometheus text exposition
//	POST /admin/snapshot                    force a durable checkpoint
//	POST /admin/drain                       close streams, report totals
//
// With -admin-addr set, a second operator-only listener serves
// /debug/pprof/*, /debug/obs (raw registry dump as JSON), and /metrics.
// Structured JSON logs go to stderr; stdout carries only the plain
// readiness and drain lines that supervisors parse.
//
// On SIGTERM or SIGINT the server drains gracefully: new work is refused
// with 503, in-flight requests finish, execution streams are closed under
// the configured recovery policy, and every shard is checkpointed before
// exit. On SIGKILL the last checkpoint is the recovery point: state acked
// by a snapshot is restored on restart, and clients resend batches sent
// after it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"procmine/internal/core"
	"procmine/internal/obs"
	"procmine/internal/serve"
	"procmine/internal/wlog"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "procmined:", err)
		os.Exit(1)
	}
}

// parseLogLevel maps the -log-level flag to a slog level.
func parseLogLevel(name string) (slog.Level, error) {
	switch name {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return slog.LevelInfo, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", name)
	}
}

// parsePolicy maps the -policy flag to a recovery policy.
func parsePolicy(name string) (wlog.Policy, error) {
	switch name {
	case "failfast":
		return wlog.FailFast, nil
	case "skip":
		return wlog.Skip, nil
	case "quarantine":
		return wlog.Quarantine, nil
	default:
		return wlog.FailFast, fmt.Errorf("unknown policy %q (want failfast, skip, or quarantine)", name)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("procmined", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:9180", "listen address (host:port; port 0 picks a free port)")
		adminAddr  = fs.String("admin-addr", "", "separate admin listen address for /debug/pprof, /debug/obs, and /metrics (empty = no admin listener)")
		logLevel   = fs.String("log-level", "info", "structured log level on stderr: debug, info, warn, error")
		shards     = fs.Int("shards", 4, "number of mining shards (process-instance keys hash across them)")
		policy     = fs.String("policy", "skip", "ingestion recovery policy: failfast, skip, quarantine")
		maxOpen    = fs.Int("max-open", 0, "per-shard open-execution admission budget; excess batches get 429 (0 = unlimited)")
		maxSteps   = fs.Int("max-steps", 0, "per-execution step watermark; longer executions are quarantined (0 = unlimited)")
		snapDir    = fs.String("snapshot-dir", "", "directory for crash-recovery checkpoints (empty = no persistence)")
		snapEvery  = fs.Int("snapshot-every", 0, "checkpoint a shard after this many completed executions (0 = only explicit/shutdown snapshots)")
		reqTimeout = fs.Duration("request-timeout", 30*time.Second, "per-request deadline for ingest and model mining (0 = none)")
		drainWait  = fs.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
		threshold  = fs.Int("threshold", 0, "noise threshold T for served models (Section 6)")
		epsilon    = fs.Float64("epsilon", 0, "adaptive per-pair noise rate for served models (overrides -threshold)")
		brkWindow  = fs.Int("breaker-window", 0, "circuit-breaker sample window in events; a shard exceeding -breaker-ratio bad events degrades to skip (0 = disabled)")
		brkRatio   = fs.Float64("breaker-ratio", 0.5, "bad-event fraction of the window that trips a shard's breaker")
		brkBackoff = fs.Duration("breaker-backoff", time.Second, "initial breaker open duration; doubles per consecutive re-trip")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		return err
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	// Install the SIGTERM/SIGINT handler before anything prints: a
	// supervisor may signal as soon as it reads the readiness line, and a
	// signal that arrives before the handler kills the process undrained,
	// with no checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Structured logs go to stderr as JSON; stdout is reserved for the
	// plain readiness and drain lines that supervisors parse.
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	reg := obs.NewRegistry()

	srv, err := serve.New(serve.Config{
		Shards: *shards,
		Mine:   core.Options{MinSupport: *threshold, AdaptiveEpsilon: *epsilon},
		Ingest: wlog.IngestOptions{
			Policy:               pol,
			MaxStepsPerExecution: *maxSteps,
		},
		MaxOpenPerShard: *maxOpen,
		SnapshotDir:     *snapDir,
		SnapshotEvery:   *snapEvery,
		RequestTimeout:  *reqTimeout,
		Breaker: serve.BreakerConfig{
			Window:    *brkWindow,
			TripRatio: *brkRatio,
			Backoff:   *brkBackoff,
		},
		Obs:    reg,
		Logger: logger,
	})
	if err != nil {
		return err
	}
	if n := srv.Restored(); n > 0 {
		_, _ = fmt.Fprintf(stdout, "procmined: restored %d shard checkpoints from %s\n", n, *snapDir)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// The resolved address line is the readiness contract: supervisors and
	// the smoke tests wait for it before sending traffic.
	_, _ = fmt.Fprintf(stdout, "procmined: listening on %s (%d shards, policy %s)\n", ln.Addr(), *shards, *policy)
	logger.Info("listening", "addr", ln.Addr().String(), "shards", *shards, "policy", *policy)

	// The admin listener exposes pprof, the raw registry dump, and a second
	// /metrics on an operator-only address, sharing the server's registry.
	var adminSrv *http.Server
	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return err
		}
		_, _ = fmt.Fprintf(stdout, "procmined: admin listening on %s\n", aln.Addr())
		logger.Info("admin listening", "addr", aln.Addr().String())
		adminSrv = &http.Server{Handler: obs.NewAdminMux(reg)}
		go func() {
			if err := adminSrv.Serve(aln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("admin listener failed", "error", err)
			}
		}()
	}

	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	_, _ = fmt.Fprintf(stdout, "procmined: draining (timeout %s)\n", *drainWait)
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	drainErr := srv.Shutdown(dctx)
	if err := hs.Shutdown(dctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if adminSrv != nil {
		if err := adminSrv.Shutdown(dctx); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	if serveErr := <-errc; !errors.Is(serveErr, http.ErrServerClosed) && drainErr == nil {
		drainErr = serveErr
	}
	if drainErr != nil {
		return fmt.Errorf("shutdown: %w", drainErr)
	}
	_, _ = fmt.Fprintln(stdout, "procmined: drained cleanly")
	return nil
}

// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload at a given seed and prints one JSON result line:
//
//	perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// -bin names the directory holding procmine and procmined built from the
// same checkout, and -work a scratch directory inside it; run.sh builds
// both and passes them. The workloads, their metrics and the oracles every
// operation is checked against are described in README.md.
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics, timed by spans around the
// calls the benchmark makes into each layer, and write the spans to
// <work>/spans-<workload>-<seed>.jsonl. The exit status is 1 when any output
// check fails and 3 when the run is invalid: the load generator fell behind
// its own schedule, a percentile lacked samples beyond it, or a traced run's
// layers did not account for the operation they make up.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced metrics. Every workload reports every one;
// README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"model_p50_ms", "ms"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the traced metrics. A layer a workload does not run on its
// path reports 0.
var perLayer = []metricDef{
	{"wlog.decode_ms", "ms"},
	{"wlog.assemble_ms", "ms"},
	{"wlog.columnar_ms", "ms"},
	{"core.label_ms", "ms"},
	{"core.scan_ms", "ms"},
	{"core.threshold_ms", "ms"},
	{"graph.scc_ms", "ms"},
	{"core.mark_ms", "ms"},
	{"core.reduce_ms", "ms"},
	{"core.scan_mb", "MiB"},
	{"core.scan_workers", "count"},
	{"wlog.set_dedup_ratio", "ratio"},
	{"graph.render_ms", "ms"},
	{"wlog.stream_decode_us_per_event", "us"},
	{"wlog.stream_push_us_per_event", "us"},
	{"core.add_us_per_exec", "us"},
	{"serve.shard_skew", "ratio"},
	{"serve.ingest_server_ms", "ms"},
	{"serve.model_server_ms", "ms"},
	{"nethttp.ingest_overhead_ms", "ms"},
	{"nethttp.model_overhead_ms", "ms"},
	{"core.snapshot_copy_ms", "ms"},
	{"core.restore_merge_ms", "ms"},
	{"core.imine_assemble_ms", "ms"},
	{"graph.imine_scc_ms", "ms"},
	{"core.imine_mark_ms", "ms"},
	{"core.imine_merge_ms", "ms"},
	{"core.signatures", "count"},
	{"core.order_pairs", "count"},
	{"obs.mine_trace_overhead_ms", "ms"},
	{"serve.snapshot_save_ms", "ms"},
	{"serve.snapshot_mb", "MiB"},
	{"serve.restore_digest_ms", "ms"},
	{"serve.restart_s", "s"},
	{"wlog.records_skipped", "count"},
	{"serve.rejected", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.cpu_util", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding procmine and procmined
	work     string // this run's private scratch directory, removed at exit
	spans    string // where a traced run writes its spans
}

// outcome is what a workload run measured.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	invalid   error // set when the measurement cannot stand
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// check counts one checked operation.
func (o *outcome) check(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// tally counts sent operations of which ok passed their check.
func (o *outcome) tally(sent, ok int) {
	o.attempted += sent
	o.failed += sent - ok
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"batch-table1": runBatch,
	"serve-ingest": runServeIngest,
	"serve-read":   runServeRead,
}

// runDeadline bounds a whole run, a stretched one included, to under
// three minutes.
const runDeadline = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload name: batch-table1, serve-ingest, serve-read")
		seed     = fs.Int64("seed", 1, "input seed")
		seconds  = fs.Int("seconds", 20, "measurement length in seconds")
		trace    = fs.String("trace", "0", "1 for the traced per-layer run, 0 for the end-to-end run")
		bin      = fs.String("bin", "", "directory holding procmine and procmined binaries")
		work     = fs.String("work", "", "scratch directory (created if missing)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}
	if *trace != "0" && *trace != "1" {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %q", *trace)
	}
	if *seconds < 1 || *bin == "" || *work == "" {
		return 2, errors.New("need -seconds >= 1, -bin and -work")
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == "1",
		bin:      *bin,
		work:     filepath.Join(*work, fmt.Sprintf("run-%s-%d-%d", *workload, *seed, os.Getpid())),
		spans:    filepath.Join(*work, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed)),
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return 2, err
	}
	defer os.RemoveAll(cfg.work)

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	out, err := runner(ctx, cfg)
	if err != nil {
		return 2, err
	}
	res, err := resultOf(cfg.trace, out)
	if err != nil {
		return 2, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	switch {
	case out.failed > 0:
		return 1, fmt.Errorf("%d of %d operations failed their output check", out.failed, out.attempted)
	case out.invalid != nil:
		return 3, fmt.Errorf("invalid run: %w", out.invalid)
	}
	return 0, nil
}

// resultOf selects the metric set for the run's mode. A missing
// end-to-end metric is a benchmark bug; a missing per-layer metric is a
// layer the workload does not run, reported as 0. A value under a name
// neither list declares is a benchmark bug too.
func resultOf(traced bool, out *outcome) (*result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &result{
		Correct:   out.failed == 0 && out.invalid == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	var extra []string
	for name := range out.values {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("workload measured undeclared metrics %v", extra)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// logf writes a progress or diagnostic line to stderr; stdout carries only
// the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

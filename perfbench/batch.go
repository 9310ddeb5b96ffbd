package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"procmine"
	"procmine/internal/core"
	"procmine/internal/wlog"
)

// batch-table1: the call sequence of `procmine -output dot LOG` over the
// paper's largest Table 1 cell, closed loop with one caller.

const (
	coldRuns  = 3   // cold CLI runs whose median is setup_s
	opMaxWait = 2.0 // a run may stretch to this many times -seconds for its samples
)

// batchOp is one op exactly as cmd/procmine runs it: read, validate, mine
// with automatic algorithm choice, render DOT.
func batchOp(ctx context.Context, s *batchSample, out *bytes.Buffer) error {
	l, _, err := procmine.ReadLogWith(bytes.NewReader(s.text), procmine.FormatText, procmine.IngestOptions{})
	if err != nil {
		return err
	}
	if err := l.Validate(); err != nil {
		return err
	}
	g, err := procmine.MineContext(ctx, l, procmine.Options{})
	if err != nil {
		return err
	}
	out.Reset()
	return g.WriteDot(out, dotOptions)
}

// checkedBatchOp runs batchOp and reports whether it produced the
// sample's oracle DOT.
func checkedBatchOp(ctx context.Context, s *batchSample, out *bytes.Buffer) bool {
	return batchOp(ctx, s, out) == nil && bytes.Equal(out.Bytes(), s.want)
}

// batchLayers lists the layer spans of a traced op, in pipeline order,
// with the Diagnostics stage each one comes from ("" for the spans the
// benchmark records itself).
var batchLayers = []struct{ metric, stage string }{
	{"wlog.decode_ms", ""},
	{"wlog.assemble_ms", ""},
	{"core.label_ms", "label"},
	{"wlog.columnar_ms", "columnar"},
	{"core.scan_ms", "scan"},
	{"core.threshold_ms", "threshold"},
	{"graph.scc_ms", "scc"},
	{"core.mark_ms", "mark"},
	{"core.reduce_ms", "reduce"},
	{"graph.render_ms", ""},
}

// tracedBatch holds the figures of one traced op's layers.
type tracedBatch struct {
	layers    map[string]float64 // ms per batchLayers metric
	scanBytes uint64
	workers   int
	dedup     float64
}

// tracedBatchOp is batchOp split at its layer boundaries: the two halves
// of ReadLogWith are called directly so decode and assembly time apart,
// and mining goes through MineWithDiagnosticsContext, whose Stages time
// the core and graph layers. It renders the op's DOT into out.
func tracedBatchOp(ctx context.Context, s *batchSample, out *bytes.Buffer, rec *recorder, op int64) (*tracedBatch, error) {
	tb := &tracedBatch{layers: map[string]float64{}}
	opts := wlog.IngestOptions{}
	rep := wlog.NewIngestReport(opts)
	var (
		events []wlog.Event
		l      *wlog.Log
		err    error
	)
	d := rec.time(op, "wlog.decode", "op", func() {
		events, _, err = wlog.ReadTextWith(bytes.NewReader(s.text), opts, rep)
	})
	if err != nil {
		return nil, err
	}
	tb.layers["wlog.decode_ms"] = ms(d)
	d = rec.time(op, "wlog.assemble", "op", func() {
		l, _, err = wlog.AssembleWith(events, opts, rep)
		if err == nil {
			err = l.Validate()
		}
	})
	if err != nil {
		return nil, err
	}
	tb.layers["wlog.assemble_ms"] = ms(d)
	mineStart := time.Now()
	g, diag, err := core.MineWithDiagnosticsContext(ctx, l, core.Options{})
	if err != nil {
		return nil, err
	}
	rec.add(op, "core.mine", "op", mineStart, time.Since(mineStart))
	for _, st := range diag.Stages {
		// Stages carry durations only, so their spans start with the mine.
		rec.add(op, "core."+st.Name, "core.mine", mineStart, time.Duration(st.Seconds*float64(time.Second)))
		switch {
		case strings.HasPrefix(st.Name, "scan/"):
			tb.workers++
		case st.Name == "scan":
			tb.scanBytes = st.Bytes
		}
		for _, bl := range batchLayers {
			if bl.stage == st.Name {
				tb.layers[bl.metric] += st.Seconds * 1000
			}
		}
	}
	tb.dedup = float64(l.Columnar().NumSets()) / float64(l.Len())
	d = rec.time(op, "graph.render", "op", func() {
		out.Reset()
		err = g.WriteDot(out, dotOptions)
	})
	tb.layers["graph.render_ms"] = ms(d)
	return tb, err
}

// coldCLI runs the real CLI once on an on-disk sample and checks its DOT.
func coldCLI(ctx context.Context, bin string, s *batchSample) (time.Duration, bool, error) {
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "procmine"), "-output", "dot", s.path)
	cmd.Stdout = &stdout
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, false, fmt.Errorf("procmine -output dot %s: %w", s.path, err)
	}
	return time.Since(start), bytes.Equal(stdout.Bytes(), s.want), nil
}

func runBatch(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	logs, err := makeBatchSamples(cfg.seed, cfg.work)
	if err != nil {
		return nil, err
	}

	// setup_s: a cold op is the CLI started on an on-disk log; the median
	// of coldRuns of them, each on another sample.
	var cold []float64
	for i := 0; i < coldRuns; i++ {
		d, ok, err := coldCLI(ctx, cfg.bin, &logs[i%len(logs)])
		if err != nil {
			return nil, err
		}
		out.check(ok)
		cold = append(cold, d.Seconds())
	}
	out.values["setup_s"] = median(cold)

	// One warm-up op lets the heap reach its working size before timing.
	var buf bytes.Buffer
	out.check(checkedBatchOp(ctx, &logs[0], &buf))
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var (
		plain, traced samples
		opTime        time.Duration
		events        int
		layerRuns     = map[string][]float64{}
		scanMB, dedup []float64
		attribution   []float64 // layer sum over wall time, per traced op
		workers       int
		start         = time.Now()
		deadline      = start.Add(time.Duration(cfg.seconds) * time.Second)
		hardStop      = start.Add(time.Duration(opMaxWait * float64(cfg.seconds) * float64(time.Second)))
	)
	// The traced run alternates untraced and traced ops and needs only
	// their medians; the untraced run needs its tail percentile.
	enough := func() bool { return enoughFor(len(plain), tailPct) }
	if cfg.trace {
		enough = func() bool { return enoughFor(len(plain), 50) && enoughFor(len(traced), 50) }
	}
	for i := 0; time.Now().Before(deadline) || (!enough() && time.Now().Before(hardStop)); i++ {
		s := &logs[i%len(logs)]
		opStart := time.Now()
		if cfg.trace && i%2 == 1 {
			tb, err := tracedBatchOp(ctx, s, &buf, rec, int64(i))
			d := time.Since(opStart)
			rec.add(int64(i), "op", "", opStart, d)
			out.check(err == nil && bytes.Equal(buf.Bytes(), s.want))
			if err != nil {
				continue
			}
			traced.add(d)
			var sum float64
			for name, v := range tb.layers {
				layerRuns[name] = append(layerRuns[name], v)
				sum += v
			}
			attribution = append(attribution, sum/ms(d))
			scanMB = append(scanMB, float64(tb.scanBytes)/(1<<20))
			dedup = append(dedup, tb.dedup)
			workers = tb.workers
			continue
		}
		ok := checkedBatchOp(ctx, s, &buf)
		d := time.Since(opStart)
		out.check(ok)
		if !ok {
			continue
		}
		plain.add(d)
		opTime += d
		events += s.events
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if !cfg.trace {
		p50, err := plain.percentile(50)
		if err != nil {
			out.invalid = err
		}
		tail, err := plain.percentile(tailPct)
		if err != nil {
			out.invalid = err
		}
		out.values["op_p50_ms"] = p50
		out.values["op_tail_ms"] = tail
		out.values["model_p50_ms"] = p50
		out.values["throughput_per_s"] = float64(events) / opTime.Seconds()
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		out.values["max_rss_mb"] = rss
		logf("batch-table1: %d ops, p50 %.1f ms, p%d %.1f ms", len(plain), p50, tailPct, tail)
		return out, nil
	}

	for _, bl := range batchLayers {
		out.values[bl.metric] = median(layerRuns[bl.metric])
	}
	out.values["core.scan_mb"] = median(scanMB)
	out.values["core.scan_workers"] = float64(workers)
	out.values["wlog.set_dedup_ratio"] = median(dedup)
	out.values["bench.trace_overhead_pct"] = overheadPct(traced, plain)
	attr := median(attribution)
	logf("batch-table1: %d traced ops; layer times sum to %.3f of the traced op's wall time", len(traced), attr)
	if attr < 0.9 || attr > 1.1 {
		out.invalid = fmt.Errorf("batch layers sum to %.3f of the op's wall time, outside [0.9, 1.1]", attr)
	}
	if err := rec.write(cfg.spans); err != nil {
		return nil, err
	}
	return out, nil
}

// overheadPct is how much slower, in percent of the untraced median, the
// traced ops' median ran.
func overheadPct(traced, plain samples) float64 {
	base := median(plain)
	if base == 0 {
		return 0
	}
	return (median(traced) - base) / base * 100
}

// resetPeakRSS collects garbage, returns freed memory to the OS and resets
// the process's VmHWM, so max_rss_mb covers the timed ops and not input
// generation.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

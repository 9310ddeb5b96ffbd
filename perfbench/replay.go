package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"procmine/internal/core"
	"procmine/internal/obs"
	"procmine/internal/wlog"
)

// The serve layers cannot be timed inside procmined without changing it,
// so the traced serve runs replay the pool in-process through the same
// public wlog, core and graph calls procmined makes: each body is decoded
// by wlog.StreamTextWith, split four ways by the same FNV-32a key hash as
// procmined's four default shards, pushed through one ExecutionStream per
// shard whose completed executions go to that shard's IncrementalMiner,
// and then /model's read path (snapshot copy, restore-merge, mine, render)
// runs on the four shard miners.

const (
	replayShards = 4  // procmined's default -shards
	modelReps    = 25 // /model replays whose per-layer medians are reported
	digestReps   = 3  // checkpoint digest replays
)

// ingestOptions are procmined's default ingest options (-policy skip).
var ingestOptions = wlog.IngestOptions{Policy: wlog.Skip}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func shardOf(pid string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(pid)) // writes to a hash never fail
	return int(h.Sum32() % replayShards)
}

// replayIngest feeds every pool body through the ingest path into four
// shard miners, fills vals with the ingest layers' figures and returns the
// miners.
func replayIngest(p *pool, rec *recorder, vals map[string]float64) ([]*core.IncrementalMiner, error) {
	miners := make([]*core.IncrementalMiner, replayShards)
	streams := make([]*wlog.ExecutionStream, replayShards)
	var addTime time.Duration
	var addErr error
	for i := range miners {
		m := core.NewIncrementalMiner()
		miners[i] = m
		streams[i] = wlog.NewExecutionStreamWith(ingestOptions, nil, func(e wlog.Execution) error {
			start := time.Now()
			err := m.Add(e)
			addTime += time.Since(start)
			if err != nil && addErr == nil {
				addErr = err
			}
			return err
		})
	}

	var decodeTime, pushTime time.Duration
	events := 0
	parts := make([][]wlog.Event, replayShards)
	for bi := range p.bodies {
		b := &p.bodies[bi]
		var evs []wlog.Event
		start := time.Now()
		_, err := wlog.StreamTextWith(bytes.NewReader(b.text), ingestOptions, wlog.NewIngestReport(ingestOptions), func(ev wlog.Event) error {
			evs = append(evs, ev)
			return nil
		})
		d := time.Since(start)
		rec.add(int64(bi), "wlog.stream_decode", "replay.ingest", start, d)
		if err != nil {
			return nil, err
		}
		decodeTime += d
		events += len(evs)
		for i := range parts {
			parts[i] = parts[i][:0]
		}
		for _, ev := range evs {
			i := shardOf(ev.ProcessID)
			parts[i] = append(parts[i], ev)
		}
		for i, part := range parts {
			addBefore := addTime
			start := time.Now()
			for _, ev := range part {
				if err := streams[i].Push(ev); err != nil {
					return nil, err
				}
			}
			if err := streams[i].EmitCompleted(); err != nil {
				return nil, err
			}
			d := time.Since(start) - (addTime - addBefore)
			rec.add(int64(bi), "wlog.stream_push", "replay.ingest", start, d)
			pushTime += d
		}
	}
	if addErr != nil {
		return nil, addErr
	}
	execs := 0
	for _, m := range miners {
		execs += m.Executions()
	}
	if execs != poolExecutions {
		return nil, fmt.Errorf("replay: shard miners hold %d executions, pool has %d", execs, poolExecutions)
	}
	vals["wlog.stream_decode_us_per_event"] = us(decodeTime) / float64(events)
	vals["wlog.stream_push_us_per_event"] = us(pushTime) / float64(events)
	vals["core.add_us_per_exec"] = us(addTime) / float64(execs)
	return miners, nil
}

// replayModel runs /model's read path on the shard miners modelReps
// times, fills vals with its layers' figures, and returns the mean sum of
// those layers per read, in ms, for the attribution check. Before each
// read it calls probe, which has procmined serve one /model meanwhile, so
// both sides of the check see the same machine.
func replayModel(ctx context.Context, p *pool, miners []*core.IncrementalMiner, rec *recorder, vals map[string]float64, probe func() error) (float64, error) {
	// Collecting the ingest replay's garbage first keeps it out of the read
	// path's figures, as it is out of an idle procmined's.
	runtime.GC()
	runs := map[string][]float64{}
	var sums []float64
	var plainMine, tracedMine []float64
	var merged *core.IncrementalMiner
	for r := 0; r < modelReps; r++ {
		if err := probe(); err != nil {
			return 0, err
		}
		op := int64(r)
		snaps := make([]*core.MinerSnapshot, replayShards)
		d := rec.time(op, "core.snapshot_copy", "replay.model", func() {
			for i, m := range miners {
				snaps[i] = m.Snapshot()
			}
		})
		runs["core.snapshot_copy_ms"] = append(runs["core.snapshot_copy_ms"], ms(d))
		sum := ms(d)
		var err error
		d = rec.time(op, "core.restore_merge", "replay.model", func() {
			merged = core.NewIncrementalMiner()
			for _, s := range snaps {
				if err = merged.RestoreSnapshot(s); err != nil {
					return
				}
			}
		})
		if err != nil {
			return 0, err
		}
		runs["core.restore_merge_ms"] = append(runs["core.restore_merge_ms"], ms(d))
		sum += ms(d)
		// The untraced mine for obs.mine_trace_overhead_ms runs before the
		// traced one on even reads and after it on odd ones.
		if r%2 == 0 {
			if err := timeMine(ctx, merged, &plainMine); err != nil {
				return 0, err
			}
		}
		tr := obs.NewTrace()
		start := time.Now()
		g, err := merged.MineTracedContext(ctx, core.Options{}, tr)
		if err != nil {
			return 0, err
		}
		tracedMine = append(tracedMine, ms(time.Since(start)))
		for _, st := range tr.Stages() {
			name := "core.imine_" + st.Name + "_ms"
			if st.Name == "scc" {
				name = "graph.imine_scc_ms"
			}
			rec.add(op, "imine."+st.Name, "replay.model", start, time.Duration(st.Seconds*float64(time.Second)))
			runs[name] = append(runs[name], st.Seconds*1000)
			sum += st.Seconds * 1000
		}
		var dot string
		d = rec.time(op, "graph.render", "replay.model", func() { dot = g.Dot("procmined") })
		runs["graph.render_ms"] = append(runs["graph.render_ms"], ms(d))
		sums = append(sums, sum+ms(d))
		if dot != p.want {
			return 0, fmt.Errorf("replay: merged model differs from the oracle")
		}
		if r%2 == 1 {
			if err := timeMine(ctx, merged, &plainMine); err != nil {
				return 0, err
			}
		}
	}
	for name, xs := range runs {
		vals[name] = median(xs)
	}
	vals["obs.mine_trace_overhead_ms"] = median(tracedMine) - median(plainMine)
	snap := merged.Snapshot()
	vals["core.signatures"] = float64(len(snap.Sigs))
	vals["core.order_pairs"] = float64(len(snap.Order))

	// procmined's restart verifies each checkpoint by re-mining its miner
	// state and hashing the DOT; this is that work for all four shards.
	var digests []float64
	for r := 0; r < digestReps; r++ {
		snaps := make([]*core.MinerSnapshot, replayShards)
		for i, m := range miners {
			snaps[i] = m.Snapshot()
		}
		var err error
		d := rec.time(int64(r), "serve.restore_digest", "replay.restart", func() {
			for _, s := range snaps {
				im := core.NewIncrementalMiner()
				if err = im.RestoreSnapshot(s); err != nil {
					return
				}
				g, merr := im.Mine(core.Options{})
				if merr != nil {
					err = merr
					return
				}
				_ = sha256.Sum256([]byte(g.Dot("snapshot")))
			}
		})
		if err != nil {
			return 0, err
		}
		digests = append(digests, ms(d))
	}
	vals["serve.restore_digest_ms"] = median(digests)
	return mean(sums), nil
}

// timeMine appends the time of one untraced mine of im, in ms, to times.
func timeMine(ctx context.Context, im *core.IncrementalMiner, times *[]float64) error {
	start := time.Now()
	if _, err := im.MineContext(ctx, core.Options{}); err != nil {
		return err
	}
	*times = append(*times, ms(time.Since(start)))
	return nil
}

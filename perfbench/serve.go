package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// serve-ingest and serve-read: procmined as a child process, driven over
// HTTP on at most runtime.NumCPU() connections.

const (
	setupRuns  = 3     // setups per run; setup_s is their median
	ingestRate = 60000 // serve-ingest's nominal rate, events/s: a third of one connection's capacity
	// pollInterval spaces serve-ingest's /model polls. A poll holds a CPU
	// for ~85 ms, so at one a second it overlaps under a tenth of /ingest
	// requests and op_tail's p90 measures ingest; at four a second that p90
	// spread 0.31 over ten seeds, set by collisions with polls.
	pollInterval   = time.Second
	catchUpShare   = 0.25 // closing share of serve-ingest's run spent catching up
	catchUpWindows = 10   // catch-up throughput is the median over this many windows
	readers        = 2    // serve-read's closed-loop readers
)

// conns is the most connections the generator holds at once.
func conns() int { return max(2, runtime.NumCPU()) }

// preload sends every pool body once, spread over conns() connections,
// and checks each acknowledgement.
func preload(ctx context.Context, s *server, p *pool, out *outcome) error {
	n := conns()
	oks := make([][]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newConn()
			defer c.CloseIdleConnections()
			for i := w; i < len(p.bodies); i += n {
				ok, err := s.ingest(ctx, c, p.bodies[i].text)
				if err != nil {
					errs[w] = err
					return
				}
				oks[w] = append(oks[w], ok)
			}
		}(w)
	}
	wg.Wait()
	for w := range oks {
		if errs[w] != nil {
			return fmt.Errorf("preload: %w", errs[w])
		}
		for _, ok := range oks[w] {
			out.check(ok)
		}
	}
	return nil
}

// repeatSetup runs setup setupRuns times, killing every server but the
// last, and returns that one with the median setup time in seconds. The
// discarded servers are killed rather than drained: procmined prints its
// readiness line before it installs its SIGTERM handler, so a SIGTERM
// sent right after a restart can end it before it drains.
func repeatSetup(ctx context.Context, setup func(k int) (*server, error)) (*server, float64, error) {
	var times []float64
	var srv *server
	for k := 0; k < setupRuns; k++ {
		start := time.Now()
		s, err := setup(k)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if k < setupRuns-1 {
			s.kill()
			continue
		}
		srv = s
	}
	return srv, median(times), ctx.Err()
}

// checkState verifies the served state against the pool: the execution
// count procmined reports and its model.
func checkState(ctx context.Context, s *server, c *http.Client, p *pool, wantExecs int, out *outcome) error {
	st, err := s.stats(ctx, c)
	if err != nil {
		return err
	}
	if st.Executions != wantExecs {
		logf("/stats reports %d executions, %d were acknowledged", st.Executions, wantExecs)
	}
	out.check(st.Executions == wantExecs)
	ok, err := s.model(ctx, c, p.want)
	if err != nil {
		return err
	}
	out.check(ok)
	return nil
}

// scrape reads /metrics and /stats together.
type scrape struct {
	exp exposition
	st  *stats
	cpu time.Duration
	at  time.Time
}

func takeScrape(ctx context.Context, s *server, c *http.Client) (*scrape, error) {
	exp, err := s.metrics(ctx, c)
	if err != nil {
		return nil, err
	}
	st, err := s.stats(ctx, c)
	if err != nil {
		return nil, err
	}
	return &scrape{exp: exp, st: st, cpu: cpuTime(), at: time.Now()}, nil
}

// serverLayers fills the per-layer figures read from procmined's own
// counters between two scrapes, and the generator's CPU share.
func serverLayers(vals map[string]float64, before, after *scrape) {
	vals["serve.ingest_server_ms"] = routeMeanMs(before.exp, after.exp, "/ingest")
	vals["serve.model_server_ms"] = routeMeanMs(before.exp, after.exp, "/model")
	vals["serve.shard_skew"] = after.st.skew()
	vals["wlog.records_skipped"] = float64(after.st.Aggregate.RecordsSkipped + after.st.Aggregate.ExecutionsQuarantined -
		before.st.Aggregate.RecordsSkipped - before.st.Aggregate.ExecutionsQuarantined)
	vals["serve.rejected"] = rejected(before.exp, after.exp)
	vals["loadgen.cpu_util"] = (after.cpu - before.cpu).Seconds() / after.at.Sub(before.at).Seconds()
}

// replay runs the in-process replay once the workload's traffic has
// stopped, then stops procmined. It returns the mean sum of the replayed
// /model layers per read and procmined's mean handler time for /model
// reads it served one at a time, each just before a replayed read, so both
// figures come from an otherwise idle machine; serve.model_server_ms is not
// comparable, because concurrent requests inflate it.
func replay(ctx context.Context, s *server, c *http.Client, p *pool, rec *recorder, out *outcome) (replayed, server float64, err error) {
	miners, err := replayIngest(p, rec, out.values)
	if err != nil {
		return 0, 0, err
	}
	before, err := s.metrics(ctx, c)
	if err != nil {
		return 0, 0, err
	}
	replayed, err = replayModel(ctx, p, miners, rec, out.values, func() error {
		ok, err := s.model(ctx, c, p.want)
		out.check(ok && err == nil)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	after, err := s.metrics(ctx, c)
	if err != nil {
		return 0, 0, err
	}
	server = routeMeanMs(before, after, "/model")
	logf("replayed /model layers sum to %.1f ms, %.3f of procmined's %.1f ms for an idle /model", replayed, replayed/server, server)
	return replayed, server, s.stop()
}

// ack is one acknowledged ingest: when it completed and how many events
// it carried.
type ack struct {
	at     time.Time
	events int
}

// windowRate splits [from, to) into n equal windows and returns the
// median of the events per second acknowledged in each.
func windowRate(acks []ack, from, to time.Time, n int) float64 {
	width := to.Sub(from) / time.Duration(n)
	events := make([]float64, n)
	for _, a := range acks {
		if i := int(a.at.Sub(from) / width); !a.at.Before(from) && i < n {
			events[i] += float64(a.events)
		}
	}
	for i := range events {
		events[i] /= width.Seconds()
	}
	return median(events)
}

// splitParity splits samples taken by request index into the even
// (untraced) and odd (traced) ones.
func splitParity(s samples) (even, odd samples) {
	for i, v := range s {
		if i%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	return even, odd
}

func runServeIngest(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	p, err := makePool(cfg.seed)
	if err != nil {
		return nil, err
	}
	srv, setupS, err := repeatSetup(ctx, func(int) (*server, error) {
		s, err := startServer(ctx, cfg.bin)
		if err != nil {
			return nil, err
		}
		if err := preload(ctx, s, p, out); err != nil {
			s.kill()
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	out.values["setup_s"] = setupS

	ingC, pollC := newConn(), newConn()
	defer ingC.CloseIdleConnections()
	defer pollC.CloseIdleConnections()
	if err := checkState(ctx, srv, pollC, p, poolExecutions, out); err != nil {
		return nil, err
	}
	var rec *recorder
	var before *scrape
	if cfg.trace {
		rec = newRecorder()
		if before, err = takeScrape(ctx, srv, pollC); err != nil {
			return nil, err
		}
	}

	run := time.Duration(cfg.seconds) * time.Second
	start := time.Now().Add(20 * time.Millisecond)
	nominalEnd := start.Add(time.Duration(float64(run) * (1 - catchUpShare)))
	end := start.Add(run)
	meanEvents := float64(p.events) / float64(len(p.bodies))
	interval := time.Duration(meanEvents / ingestRate * float64(time.Second))

	var (
		ackedExecs           int
		acks                 []ack
		nominal, catchUp     *loopStats
		catchStart, catchEnd time.Time
		polls                *loopStats
		wg                   sync.WaitGroup
	)
	sendIngest := func(ctx context.Context, i int) bool {
		b := &p.bodies[i%len(p.bodies)]
		sent := time.Now()
		ok, err := srv.ingest(ctx, ingC, b.text)
		if cfg.trace && i%2 == 1 {
			rec.add(int64(i), "nethttp.ingest", "", sent, time.Since(sent))
		}
		if ok && err == nil {
			ackedExecs += b.execs
			acks = append(acks, ack{at: time.Now(), events: b.events})
			return true
		}
		return false
	}
	sendPoll := func(ctx context.Context, i int) bool {
		sent := time.Now()
		ok, err := srv.model(ctx, pollC, p.want)
		rec.add(int64(i), "nethttp.model", "", sent, time.Since(sent))
		return ok && err == nil
	}
	cpuBefore, wallBefore := cpuTime(), time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		nominal = openLoop(ctx, start, interval, nominalEnd, sendIngest)
		catchStart = time.Now()
		catchUp = closedLoop(ctx, nominal.sent, end, sendIngest)
		catchEnd = time.Now()
	}()
	go func() {
		defer wg.Done()
		polls = openLoop(ctx, start, pollInterval, end, sendPoll)
	}()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	genCPU := (cpuTime() - cpuBefore).Seconds() / time.Since(wallBefore).Seconds()
	for _, st := range []*loopStats{nominal, catchUp, polls} {
		out.tally(st.sent, st.ok)
	}
	// Silent loss: every acknowledged execution must be in the state.
	if err := checkState(ctx, srv, pollC, p, poolExecutions+ackedExecs, out); err != nil {
		return nil, err
	}

	var nominalPolls samples
	for i, due := range polls.dues {
		if due.Before(nominalEnd) {
			nominalPolls = append(nominalPolls, polls.latency[i])
		}
	}
	late, err := nominal.late.percentile(99)
	if err != nil {
		out.invalid = err
	} else if late > ms(interval) {
		// The generator's own delay exceeded the spacing of its schedule.
		out.invalid = fmt.Errorf("generator fell behind its schedule: p99 lateness %.2f ms > the %.2f ms send interval", late, ms(interval))
	}
	logf("serve-ingest: %d ingests at %d events/s nominal, %d in catch-up, %d polls; generator p99 late %.2f ms, backlog max %d, cpu %.2f",
		nominal.sent, ingestRate, catchUp.sent, polls.sent, late, nominal.backlogMax, genCPU)

	if !cfg.trace {
		rss, err := srv.peakRSS()
		if err != nil {
			return nil, err
		}
		p50, err1 := nominal.latency.percentile(50)
		tail, err2 := nominal.latency.percentile(tailPct)
		model, err3 := nominalPolls.percentile(50)
		for _, err := range []error{err1, err2, err3} {
			if err != nil {
				out.invalid = err
			}
		}
		out.values["op_p50_ms"] = p50
		out.values["op_tail_ms"] = tail
		out.values["model_p50_ms"] = model
		out.values["throughput_per_s"] = windowRate(acks, catchStart, catchEnd, catchUpWindows)
		out.values["max_rss_mb"] = rss
		return out, srv.stop()
	}

	after, err := takeScrape(ctx, srv, pollC)
	if err != nil {
		return nil, err
	}
	serverLayers(out.values, before, after)
	out.values["loadgen.late_p99_ms"] = late
	out.values["loadgen.backlog_max"] = float64(nominal.backlogMax)
	ingestService := append(append(samples(nil), nominal.service...), catchUp.service...)
	out.values["nethttp.ingest_overhead_ms"] = mean(ingestService) - out.values["serve.ingest_server_ms"]
	out.values["nethttp.model_overhead_ms"] = mean(polls.service) - out.values["serve.model_server_ms"]
	plain, traced := splitParity(nominal.latency)
	out.values["bench.trace_overhead_pct"] = overheadPct(traced, plain)
	// The attribution check is made on serve-read, whose traffic is /model
	// alone; after serve-ingest's writes procmined's heap differs from the
	// replay's, which shows here as a gap the check does not cover.
	if _, _, err := replay(ctx, srv, pollC, p, rec, out); err != nil {
		return nil, err
	}
	return out, rec.write(cfg.spans)
}

func runServeRead(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	p, err := makePool(cfg.seed)
	if err != nil {
		return nil, err
	}
	var saves, restarts []float64
	var snapMiB float64
	srv, setupS, err := repeatSetup(ctx, func(k int) (*server, error) {
		dir := filepath.Join(cfg.work, "checkpoints-"+strconv.Itoa(k))
		s, err := startServer(ctx, cfg.bin, "-snapshot-dir", dir)
		if err != nil {
			return nil, err
		}
		c := newConn()
		defer c.CloseIdleConnections()
		if err := preload(ctx, s, p, out); err != nil {
			s.kill()
			return nil, err
		}
		start := time.Now()
		code, _, err := do(ctx, c, http.MethodPost, s.base+"/admin/snapshot", nil)
		saves = append(saves, ms(time.Since(start)))
		if err != nil || code != http.StatusOK {
			s.kill()
			return nil, fmt.Errorf("/admin/snapshot: status %d: %v", code, err)
		}
		// The checkpoint is the durable cut; a crash after it loses
		// nothing, so procmined is killed rather than drained.
		s.kill()
		if snapMiB, err = dirMiB(dir); err != nil {
			return nil, err
		}
		start = time.Now()
		s, err = startServer(ctx, cfg.bin, "-snapshot-dir", dir)
		if err != nil {
			return nil, err
		}
		restarts = append(restarts, time.Since(start).Seconds())
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	out.values["setup_s"] = setupS

	clients := make([]*http.Client, readers)
	for i := range clients {
		clients[i] = newConn()
		defer clients[i].CloseIdleConnections()
	}
	if err := checkState(ctx, srv, clients[0], p, poolExecutions, out); err != nil {
		return nil, err
	}
	var rec *recorder
	var before *scrape
	if cfg.trace {
		rec = newRecorder()
		if before, err = takeScrape(ctx, srv, clients[0]); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds) * time.Second)
	loops := make([]*loopStats, readers)
	var wg sync.WaitGroup
	for r := range loops {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := clients[r]
			loops[r] = closedLoop(ctx, 0, end, func(ctx context.Context, i int) bool {
				sent := time.Now()
				ok, err := srv.model(ctx, c, p.want)
				if cfg.trace && i%2 == 1 {
					rec.add(int64(r)<<32|int64(i), "nethttp.model", "", sent, time.Since(sent))
				}
				return ok && err == nil
			})
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var lat, service, plain, traced samples
	reads := 0
	for _, st := range loops {
		out.tally(st.sent, st.ok)
		reads += st.ok
		lat = append(lat, st.latency...)
		service = append(service, st.service...)
		even, odd := splitParity(st.latency)
		plain, traced = append(plain, even...), append(traced, odd...)
	}
	logf("serve-read: %d reads in %.1f s", reads, elapsed.Seconds())

	if !cfg.trace {
		rss, err := srv.peakRSS()
		if err != nil {
			return nil, err
		}
		p50, err1 := lat.percentile(50)
		tail, err2 := lat.percentile(tailPct)
		for _, err := range []error{err1, err2} {
			if err != nil {
				out.invalid = err
			}
		}
		out.values["op_p50_ms"] = p50
		out.values["op_tail_ms"] = tail
		out.values["model_p50_ms"] = p50
		out.values["throughput_per_s"] = float64(reads) / elapsed.Seconds()
		out.values["max_rss_mb"] = rss
		return out, srv.stop()
	}

	after, err := takeScrape(ctx, srv, clients[0])
	if err != nil {
		return nil, err
	}
	serverLayers(out.values, before, after)
	out.values["nethttp.model_overhead_ms"] = mean(service) - out.values["serve.model_server_ms"]
	out.values["serve.snapshot_save_ms"] = median(saves)
	out.values["serve.snapshot_mb"] = snapMiB
	out.values["serve.restart_s"] = median(restarts)
	out.values["bench.trace_overhead_pct"] = overheadPct(traced, plain)
	replayed, server, err := replay(ctx, srv, clients[0], p, rec, out)
	if err != nil {
		return nil, err
	}
	if ratio := replayed / server; ratio < 0.9 || ratio > 1.1 {
		out.invalid = fmt.Errorf("replayed /model layers sum to %.3f of procmined's idle /model time, outside [0.9, 1.1]", ratio)
	}
	return out, rec.write(cfg.spans)
}

// dirMiB is the total size of the regular files in dir.
func dirMiB(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return float64(total) / (1 << 20), nil
}

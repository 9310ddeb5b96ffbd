package main

import (
	"context"
	"syscall"
	"time"
)

// Open-loop load generation. Request i is due at start + i*interval
// whether or not earlier requests have finished, and its latency is timed
// from that due time, so a stall also charges every request queued behind
// it. One schedule runs on one connection: a request that is due while
// the previous one is still out waits for it, and that wait is the
// program's doing. Any further delay between the connection coming free
// and the send is the generator's own lateness, which decides whether the
// run is valid.

// sendFunc sends request i and reports whether it succeeded.
type sendFunc func(ctx context.Context, i int) bool

// loopStats is what one schedule observed.
type loopStats struct {
	latency    samples // done - due, ms
	service    samples // done - sent, ms
	late       samples // sent - max(due, previous done), ms
	backlogMax int     // requests due but not yet sent, at the worst send
	sent, ok   int
	dues       []time.Time // open loop: due time of each request, in order
}

// openLoop sends requests on one connection at the given interval from
// start until no further request is due before until.
func openLoop(ctx context.Context, start time.Time, interval time.Duration, until time.Time, send sendFunc) *loopStats {
	st := &loopStats{}
	prevDone := start
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) || ctx.Err() != nil {
			return st
		}
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return st
			}
		}
		sent := time.Now()
		free := due
		if prevDone.After(free) {
			free = prevDone
		}
		if backlog := int(sent.Sub(start)/interval) - i; backlog > st.backlogMax {
			st.backlogMax = backlog
		}
		ok := send(ctx, i)
		done := time.Now()
		st.sent++
		if ok {
			st.ok++
		}
		st.dues = append(st.dues, due)
		st.latency.add(done.Sub(due))
		st.service.add(done.Sub(sent))
		st.late.add(sent.Sub(free))
		prevDone = done
	}
}

// closedLoop sends requests back to back on one connection until until,
// starting with request index first.
func closedLoop(ctx context.Context, first int, until time.Time, send sendFunc) *loopStats {
	st := &loopStats{}
	for i := first; time.Now().Before(until) && ctx.Err() == nil; i++ {
		sent := time.Now()
		ok := send(ctx, i)
		done := time.Now()
		st.sent++
		if ok {
			st.ok++
		}
		st.latency.add(done.Sub(sent))
		st.service.add(done.Sub(sent))
	}
	return st
}

// cpuTime is the CPU time, user plus system, the benchmark process has
// used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

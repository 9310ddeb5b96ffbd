package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"procmine/internal/core"
	"procmine/internal/noise"
	"procmine/internal/wlog"
)

// corruptTrail serializes a log, injects event-level structural damage
// (dropped ENDs, duplicated events) and codec-level garbage lines, and
// returns the corrupted text.
func corruptTrail(t *testing.T, l *wlog.Log, seed int64) string {
	t.Helper()
	c := noise.NewCorruptor(rand.New(rand.NewSource(seed)))
	events := l.Events()
	dropped, _ := c.DropEnds(events, 0.05)
	duped, _ := c.DuplicateEvents(dropped, 0.04)
	var b strings.Builder
	if err := wlog.WriteText(&b, duped); err != nil {
		t.Fatal(err)
	}
	text, _ := c.InjectGarbage(b.String(), 0.05)
	return text
}

// filePipelineTotals runs the corrupted trail through the file-based
// reference pipeline — StreamTextWith feeding an ExecutionStream sharing
// one report, then Close — and projects the report.
func filePipelineTotals(t *testing.T, text string, opts wlog.IngestOptions) ReportTotals {
	t.Helper()
	rep := wlog.NewIngestReport(opts)
	stream := wlog.NewExecutionStreamWith(opts, rep, func(wlog.Execution) error { return nil })
	_, err := wlog.StreamTextWith(strings.NewReader(text), opts, rep, stream.Push)
	if err != nil {
		t.Fatalf("file pipeline: %v", err)
	}
	if err := stream.Close(); err != nil {
		t.Fatalf("file pipeline Close: %v", err)
	}
	return totalsOf(rep)
}

// batchPipeline runs the corrupted trail through the batch reader's text
// path — ReadTextWith, then AssembleWith, sharing one report — and returns
// the assembled log and the projected report.
func batchPipeline(t *testing.T, text string, opts wlog.IngestOptions) (*wlog.Log, ReportTotals) {
	t.Helper()
	rep := wlog.NewIngestReport(opts)
	events, _, err := wlog.ReadTextWith(strings.NewReader(text), opts, rep)
	if err != nil {
		t.Fatalf("batch decode: %v", err)
	}
	l, _, err := wlog.AssembleWith(events, opts, rep)
	if err != nil {
		t.Fatalf("batch assemble: %v", err)
	}
	return l, totalsOf(rep)
}

// TestChaosIngestParity pins the accounting contract of the HTTP path: a
// corrupted trail pushed through /ingest and /admin/drain yields an
// aggregate report (decode intake + per-shard streams) identical to the
// single report the file-based pipeline produces over the same bytes —
// under both lenient policies, across shard counts. The batch reader's text
// path must agree on the report and mine the model /model serves.
func TestChaosIngestParity(t *testing.T) {
	l := serveLog(40)
	for _, policy := range []wlog.Policy{wlog.Skip, wlog.Quarantine} {
		for _, shards := range []int{1, 3} {
			text := corruptTrail(t, l, 42)
			opts := wlog.IngestOptions{Policy: policy}
			want := filePipelineTotals(t, text, opts)
			batchLog, batchTotals := batchPipeline(t, text, opts)
			if !reflect.DeepEqual(batchTotals, want) {
				t.Errorf("policy=%v: batch report diverges from file pipeline\ngot:  %+v\nwant: %+v",
					policy, batchTotals, want)
			}

			s, err := New(Config{Shards: shards, Ingest: opts})
			if err != nil {
				t.Fatal(err)
			}
			resp := ingestText(t, s, text, http.StatusOK)
			if resp.Intake.RecordsRead != want.RecordsRead {
				t.Errorf("policy=%v shards=%d: intake read %d records, file pipeline %d",
					policy, shards, resp.Intake.RecordsRead, want.RecordsRead)
			}

			rec := do(t, s, http.MethodPost, "/admin/drain", "", "")
			if rec.Code != http.StatusOK {
				t.Fatalf("policy=%v shards=%d: drain = %d: %s", policy, shards, rec.Code, rec.Body.String())
			}
			var dr DrainResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dr.Report, want) {
				t.Errorf("policy=%v shards=%d: aggregate report diverges from file pipeline\ngot:  %+v\nwant: %+v",
					policy, shards, dr.Report, want)
			}
			if got, want := modelDot(t, s), batchDot(t, batchLog, core.Options{}); got != want {
				t.Errorf("policy=%v shards=%d: served model diverges from batch mine\ngot:\n%s\nwant:\n%s",
					policy, shards, got, want)
			}
		}
	}
}

// advanceClock is a manually driven time source implementing Clock.
type advanceClock struct{ now time.Time }

func (c *advanceClock) Now() time.Time          { return c.now }
func (c *advanceClock) advance(d time.Duration) { c.now = c.now.Add(d) }

// badLine is a structurally bad record: an END without a START.
func badLine(pid string, ns int64) string {
	return fmt.Sprintf("%s Z END %d\n", pid, ns)
}

// breakerState reads one shard's breaker state from /stats.
func breakerState(t *testing.T, s *Server, shard int) BreakerStatus {
	t.Helper()
	rec := do(t, s, http.MethodGet, "/stats", "", "")
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.Shards[shard].Breaker
}

// TestBreakerTripAndReset walks the full degradation ladder on a FailFast
// shard: repeated structural errors fail requests and trip the breaker; the
// tripped shard degrades to Skip (absorbing bad records, staying up); after
// the backoff the breaker half-opens and a clean probation restores
// FailFast; a dirty probation re-trips with a doubled backoff.
func TestBreakerTripAndReset(t *testing.T) {
	clk := &advanceClock{now: time.Unix(100, 0)}
	s, err := New(Config{
		Shards:  1,
		Ingest:  wlog.IngestOptions{Policy: wlog.FailFast},
		Breaker: BreakerConfig{Window: 8, TripRatio: 0.5, MinSamples: 2, Backoff: time.Second},
		Clock:   clk,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two all-bad batches under FailFast: each fails the request; the
	// second crosses MinSamples and trips the breaker.
	for i := int64(0); i < 2; i++ {
		resp := ingestText(t, s, badLine(fmt.Sprintf("p%d", i), 1000+i), http.StatusBadRequest)
		if resp.Shards[0].Applied {
			t.Fatal("FailFast applied a structurally bad batch")
		}
	}
	if st := breakerState(t, s, 0); st.State != breakerOpen || st.Trips != 1 {
		t.Fatalf("after 2 bad batches breaker = %+v, want open after 1 trip", st)
	}

	// Degraded: the same bad record is now absorbed under Skip, and good
	// work keeps mining.
	resp := ingestText(t, s, badLine("p2", 3000), http.StatusOK)
	if !resp.Shards[0].Degraded || !resp.Shards[0].Applied || resp.Shards[0].Skipped != 1 {
		t.Fatalf("degraded shard result %+v, want degraded+applied with 1 skip", resp.Shards[0])
	}
	good := "g1 A START 4000\ng1 A END 5000\n"
	if resp = ingestText(t, s, good, http.StatusOK); !resp.Shards[0].Applied {
		t.Fatalf("degraded shard rejected good work: %+v", resp.Shards[0])
	}

	// Past the backoff the breaker half-opens; two clean batches close it.
	clk.advance(1100 * time.Millisecond)
	ingestText(t, s, "g2 A START 6000\ng2 A END 7000\n", http.StatusOK)
	if st := breakerState(t, s, 0); st.State != breakerClosed {
		t.Fatalf("after clean probation breaker = %+v, want closed", st)
	}

	// FailFast is back: a bad batch fails the request again and trips the
	// breaker — at the initial backoff, since the clean probation forgave
	// the escalation.
	ingestText(t, s, badLine("p3", 8000)+badLine("p4", 9000), http.StatusBadRequest)
	st := breakerState(t, s, 0)
	if st.State != breakerOpen || st.Trips != 2 {
		t.Fatalf("after dirty batch breaker = %+v, want re-tripped", st)
	}
	if st.RetryMS > 1000 {
		t.Fatalf("trip after clean probation backs off %dms, want the initial 1s", st.RetryMS)
	}

	// A dirty probation, by contrast, escalates: half-open, then bad again
	// doubles the backoff.
	clk.advance(1100 * time.Millisecond)
	ingestText(t, s, badLine("p5", 10000)+badLine("p6", 11000), http.StatusBadRequest)
	st = breakerState(t, s, 0)
	if st.State != breakerOpen || st.Trips != 3 {
		t.Fatalf("after dirty probation breaker = %+v, want tripped a third time", st)
	}
	if st.RetryMS <= 1000 {
		t.Fatalf("dirty-probation re-trip backs off %dms, want doubled past 1s", st.RetryMS)
	}
}

// TestBreakerDisabledByDefault checks that the zero config never degrades.
func TestBreakerDisabledByDefault(t *testing.T) {
	s, err := New(Config{Shards: 1, Ingest: wlog.IngestOptions{Policy: wlog.Skip}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		resp := ingestText(t, s, badLine(fmt.Sprintf("p%d", i), 1000+i), http.StatusOK)
		if resp.Shards[0].Degraded {
			t.Fatal("disabled breaker degraded a shard")
		}
	}
	if st := breakerState(t, s, 0); st.State != "disabled" {
		t.Fatalf("breaker state %+v, want disabled", st)
	}
}

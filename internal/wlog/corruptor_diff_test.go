package wlog_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"procmine"
	"procmine/internal/graph"
	"procmine/internal/noise"
	"procmine/internal/synth"
	"procmine/internal/wlog"
)

// diffTrail returns the events of m executions of a small cyclic process,
// each END carrying an output vector, with execution k shifted to start k
// nanoseconds after the first so that the trail interleaves them.
func diffTrail(t *testing.T, m int) []wlog.Event {
	t.Helper()
	cyc := graph.NewFromEdges(
		graph.Edge{From: synth.StartActivity, To: "B"},
		graph.Edge{From: synth.StartActivity, To: "D"},
		graph.Edge{From: "B", To: "C"},
		graph.Edge{From: "C", To: "B"},
		graph.Edge{From: "C", To: synth.EndActivity},
		graph.Edge{From: "D", To: synth.EndActivity},
	)
	cs, err := synth.NewCyclicSimulator(cyc, 3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	l := cs.GenerateLog("x", m)
	base := l.Executions[0].Steps[0].Start
	for k := range l.Executions {
		steps := l.Executions[k].Steps
		shift := steps[0].Start.Sub(base) - time.Duration(k)
		for i := range steps {
			steps[i].Start = steps[i].Start.Add(-shift)
			steps[i].End = steps[i].End.Add(-shift)
			steps[i].Output = wlog.Output{k % 3, i}
		}
	}
	return l.Events()
}

// TestCorruptorDifferential feeds every structural fault noise.Corruptor
// injects, alone and all together, under each recovery policy, through
// procmine.ReadLogWith and through the oracle pipeline (OracleReadTextWith
// then OracleAssembleWith, sharing one report) on the same bytes. The
// logs, the reports and the error texts must be equal. Each trail is read
// once in time order and once shuffled, so buckets arrive out of order and
// with ties.
func TestCorruptorDifferential(t *testing.T) {
	clean := diffTrail(t, 60)
	encode := func(events []wlog.Event) string {
		var b strings.Builder
		if err := wlog.WriteText(&b, events); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	faults := []struct {
		name    string
		corrupt func(c *noise.Corruptor, events []wlog.Event) (string, *noise.StructuralFaults)
	}{
		{"DropEnds", func(c *noise.Corruptor, evs []wlog.Event) (string, *noise.StructuralFaults) {
			out, f := c.DropEnds(evs, 0.1)
			return encode(out), f
		}},
		{"DuplicateEvents", func(c *noise.Corruptor, evs []wlog.Event) (string, *noise.StructuralFaults) {
			out, f := c.DuplicateEvents(evs, 0.1)
			return encode(out), f
		}},
		{"TruncateTrail", func(c *noise.Corruptor, evs []wlog.Event) (string, *noise.StructuralFaults) {
			out, f := c.TruncateTrail(evs, 0.3)
			return encode(out), f
		}},
		{"InjectGarbage", func(c *noise.Corruptor, evs []wlog.Event) (string, *noise.StructuralFaults) {
			return c.InjectGarbage(encode(evs), 0.1)
		}},
		{"all", func(c *noise.Corruptor, evs []wlog.Event) (string, *noise.StructuralFaults) {
			dropped, f1 := c.DropEnds(evs, 0.05)
			duped, f2 := c.DuplicateEvents(dropped, 0.05)
			cut, f3 := c.TruncateTrail(duped, 0.1)
			text, f4 := c.InjectGarbage(encode(cut), 0.05)
			return text, &noise.StructuralFaults{
				DroppedEnds:      f1.DroppedEnds,
				DuplicatedStarts: f2.DuplicatedStarts,
				DuplicatedEnds:   f2.DuplicatedEnds,
				TruncatedEvents:  f3.TruncatedEvents,
				GarbageLines:     f4.GarbageLines,
			}
		}},
	}
	policies := []wlog.IngestOptions{
		{Policy: wlog.FailFast},
		{Policy: wlog.Skip},
		{Policy: wlog.Quarantine},
		{Policy: wlog.Skip, MaxErrors: 5, MaxSampleErrors: 3},
		{Policy: wlog.Quarantine, MaxStepsPerExecution: 6},
	}
	for _, order := range []string{"time", "shuffled"} {
		for fi, fault := range faults {
			events := append([]wlog.Event(nil), clean...)
			rng := rand.New(rand.NewSource(int64(100 + fi)))
			if order == "shuffled" {
				rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
			}
			text, injected := fault.corrupt(noise.NewCorruptor(rng), events)
			if injected.Total() == 0 {
				t.Fatalf("%s/%s injected no fault", order, fault.name)
			}
			for _, opts := range policies {
				name := fmt.Sprintf("%s/%s/%+v", order, fault.name, opts)
				got, gotRep, gotErr := procmine.ReadLogWith(strings.NewReader(text), procmine.FormatText, opts)

				wantRep := wlog.NewIngestReport(opts)
				var want *wlog.Log
				decoded, wantRep, wantErr := wlog.OracleReadTextWith(strings.NewReader(text), opts, wantRep)
				if wantErr == nil {
					want, wantRep, wantErr = wlog.OracleAssembleWith(decoded, opts, wantRep)
				}

				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: error %v, oracle %v", name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: log differs from the oracle's", name)
				}
				if !reflect.DeepEqual(gotRep, wantRep) {
					t.Fatalf("%s: report %s, oracle %s", name, gotRep.Summary(), wantRep.Summary())
				}
				// Guard against comparing two empty results: with no error
				// budget a lenient read keeps executions and reports faults.
				if opts.MaxErrors == 0 && opts.Policy != wlog.FailFast && (gotErr != nil || got.Len() == 0 || gotRep.Clean()) {
					t.Fatalf("%s: lenient read returned %v with report %s", name, gotErr, gotRep.Summary())
				}
			}
		}
	}
}

package wlog

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzReadText checks the text decoder against OracleReadTextWith, and
// the assembler against OracleAssembleWith on what both decoded, under
// every recovery policy, an error budget and a step watermark: events,
// logs, IngestReports and error texts must all be equal. It also checks
// that successfully decoded events re-encode and re-decode to the same
// events (round-trip stability).
func FuzzReadText(f *testing.F) {
	f.Add("p A START 100\np A END 200 5\n")
	f.Add("# comment\n\np1 Upload START 1\np1 Upload END 2 7 8 9\n")
	f.Add("x y z w\n")
	f.Add("p A START notanumber\n")
	f.Add("p A END 100 -3\n")
	f.Add("p A START +100\np A END +200 +5 -0\n")
	f.Add("p A START 9223372036854775807\np A END 9223372036854775808 1\n")
	f.Add("p A START 0000000000000000000001\np A END 2 99999999999999999999\n")
	f.Add("p\vA\fSTART 1\r\np A END\t2\r\n\r\n")
	f.Add("p A\u00a0B START 1\np\u00a0A END 2\n\u00a0\n")
	f.Add("#p A START 1\n  # indented comment\n\u2003#spaced comment\np #A START 1\np #A END 2\n")
	f.Add("q B START 5\np A START 1\nq B END 3\np A END 2\nq B END 6\n")
	f.Fuzz(func(t *testing.T, input string) {
		for _, opts := range []IngestOptions{
			{Policy: FailFast},
			{Policy: Skip},
			{Policy: Quarantine},
			{Policy: Skip, MaxErrors: 2, MaxSampleErrors: 1},
			{Policy: Quarantine, MaxStepsPerExecution: 2},
		} {
			got, gotRep, gotErr := ReadTextWith(strings.NewReader(input), opts, nil)
			want, wantRep, wantErr := OracleReadTextWith(strings.NewReader(input), opts, nil)
			sameOutcome(t, "ReadTextWith", opts, got, want, gotRep, wantRep, gotErr, wantErr)
			if gotErr != nil {
				continue
			}
			gotLog, gotRep, gotErr := AssembleWith(got, opts, gotRep)
			wantLog, wantRep, wantErr := OracleAssembleWith(want, opts, wantRep)
			sameOutcome(t, "AssembleWith", opts, gotLog, wantLog, gotRep, wantRep, gotErr, wantErr)
		}

		events, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, events); err != nil {
			// Decoded names are never empty, hold no whitespace (it splits
			// fields), and no process ID starts with '#' (a comment).
			t.Fatalf("decoded events failed to re-encode: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-encoded text failed to decode: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d != %d", len(again), len(events))
		}
		for i := range events {
			if events[i].String() != again[i].String() {
				t.Fatalf("event %d changed: %q != %q", i, events[i].String(), again[i].String())
			}
		}
	})
}

// sameOutcome fails the test unless a production call and its oracle
// returned equal results, equal reports and the same error text.
func sameOutcome(t *testing.T, what string, opts IngestOptions, got, want any, gotRep, wantRep *IngestReport, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s %+v: error %v, oracle %v", what, opts, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %+v: result\n%+v\noracle\n%+v", what, opts, got, want)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Fatalf("%s %+v: report\n%+v\noracle\n%+v", what, opts, gotRep, wantRep)
	}
}

// FuzzWriteText checks that WriteText writes only what ReadText gives
// back: whenever it accepts a START and an END of one activity, reading
// its output returns the same two events.
func FuzzWriteText(f *testing.F) {
	f.Add("p1", "A", int64(1000), 3)
	f.Add("#p", "A", int64(1), 0)
	f.Add("p#1", "#A", int64(-5), -1)
	f.Add("p", "a\vb", int64(0), 7)
	f.Add("p\u00a0q", "A", int64(2), 1)
	f.Add("p\u0085", "\x85", int64(math.MaxInt64), math.MinInt)
	f.Add("", "A", int64(2), 1)
	f.Add("p", "", int64(2), 1)
	f.Fuzz(func(t *testing.T, pid, act string, ns int64, out int) {
		at := time.Unix(0, ns).UTC()
		events := []Event{
			{ProcessID: pid, Activity: act, Type: Start, Time: at},
			{ProcessID: pid, Activity: act, Type: End, Time: at, Output: Output{out, -out}},
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, events); err != nil {
			return
		}
		got, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("WriteText accepted %q/%q, ReadText refuses its output: %v", pid, act, err)
		}
		if !reflect.DeepEqual(got, events) {
			t.Fatalf("WriteText accepted %q/%q, ReadText returns\n%+v\nwant\n%+v", pid, act, got, events)
		}
	})
}

// watermarks returns the options for one fuzzed policy and watermark mode
// byte: bit 0 sets MaxOpenExecutions to 2, bit 1 MaxStepsPerExecution to 3.
func watermarks(policy Policy, mode uint8) IngestOptions {
	opts := IngestOptions{Policy: policy}
	if mode&1 != 0 {
		opts.MaxOpenExecutions = 2
	}
	if mode&2 != 0 {
		opts.MaxStepsPerExecution = 3
	}
	return opts
}

// checkExecutions fails the test unless execs are well formed under opts:
// unique IDs, no empty execution, steps sorted by Start, no End before its
// Start, and no more steps than MaxStepsPerExecution.
func checkExecutions(t *testing.T, opts IngestOptions, execs []Execution) {
	t.Helper()
	seen := map[string]bool{}
	for _, e := range execs {
		if seen[e.ID] {
			t.Fatalf("policy %v produced execution %q twice", opts.Policy, e.ID)
		}
		seen[e.ID] = true
		if len(e.Steps) == 0 {
			t.Fatalf("policy %v produced empty execution %q", opts.Policy, e.ID)
		}
		for i, st := range e.Steps {
			if st.End.Before(st.Start) {
				t.Fatalf("policy %v produced step %s ending before it starts", opts.Policy, st.Activity)
			}
			if i > 0 && st.Start.Before(e.Steps[i-1].Start) {
				t.Fatalf("policy %v produced execution %q with steps out of start order", opts.Policy, e.ID)
			}
		}
		if opts.MaxStepsPerExecution > 0 && len(e.Steps) > opts.MaxStepsPerExecution {
			t.Fatalf("policy %v produced %d steps, watermark %d",
				opts.Policy, len(e.Steps), opts.MaxStepsPerExecution)
		}
	}
}

// FuzzExecutionStreamPush pushes arbitrary (often structurally broken) event
// sequences through an ExecutionStream under every recovery policy and with
// tight resource watermarks. Nothing may panic; with an unlimited error
// budget the lenient policies may never surface an error and Close leaves
// nothing open; and everything emitted must be a well-formed execution.
func FuzzExecutionStreamPush(f *testing.F) {
	f.Add("p A START 1\np A END 2\n", uint8(0))
	f.Add("p A END 1\np A START 2\n", uint8(1))
	f.Add("p A START 1\nq B START 2\nr C START 3\ns D START 4\n", uint8(2))
	f.Add("p A START 1\np A START 2\np A START 3\np A END 4\n", uint8(1))
	f.Add("p A END 1\n", uint8(0))
	f.Fuzz(func(t *testing.T, input string, mode uint8) {
		events, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, policy := range []Policy{FailFast, Skip, Quarantine} {
			opts := watermarks(policy, mode)
			var emitted []Execution
			s := NewExecutionStreamWith(opts, nil, func(e Execution) error {
				emitted = append(emitted, e)
				return nil
			})
			var streamErr error
			for _, e := range events {
				if err := s.Push(e); err != nil {
					streamErr = err
					break
				}
			}
			if streamErr == nil {
				streamErr = s.Close()
			}
			if opts.Policy != FailFast {
				// Lenient policies with MaxErrors unlimited absorb every
				// structural fault instead of propagating it.
				if streamErr != nil {
					t.Fatalf("policy %v returned %v", policy, streamErr)
				}
				if n := s.OpenExecutions(); n != 0 {
					t.Fatalf("policy %v left %d executions open after Close", policy, n)
				}
			}
			checkExecutions(t, opts, emitted)
		}
	})
}

// FuzzAssemble assembles arbitrary decoded event streams under every
// recovery policy and watermark mode. Nothing may panic; with an unlimited
// error budget the lenient policies never error; and every assembled log
// holds well-formed executions.
func FuzzAssemble(f *testing.F) {
	f.Add("p A START 1\np A END 2\n", uint8(0))
	f.Add("p A START 1\np B START 2\np A END 3\np B END 4\n", uint8(2))
	f.Add("p A END 1\n", uint8(0))
	f.Add("p A START 1\np A END 2\np B START 3\np B END 4\np C START 5\np C END 6\np D START 7\np D END 8\n", uint8(2))
	f.Fuzz(func(t *testing.T, input string, mode uint8) {
		events, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, policy := range []Policy{FailFast, Skip, Quarantine} {
			opts := watermarks(policy, mode)
			l, _, err := AssembleWith(events, opts, nil)
			if err != nil {
				if opts.Policy != FailFast {
					t.Fatalf("policy %v returned %v", policy, err)
				}
				continue
			}
			checkExecutions(t, opts, l.Executions)
			for _, e := range l.Executions {
				_ = e.String()
				_ = e.ActivitySet()
			}
			_ = l.ComputeStats()
		}
	})
}

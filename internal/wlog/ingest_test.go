package wlog

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// ev builds an event at nanosecond ns.
func ev(pid, act string, typ EventType, ns int64) Event {
	return Event{ProcessID: pid, Activity: act, Type: typ, Time: time.Unix(0, ns).UTC()}
}

func TestStreamTextWithSkipsGarbage(t *testing.T) {
	in := strings.Join([]string{
		"p1 A START 1",
		"garbage line that cannot parse",
		"p1 A END 2",
		"p1 B MAYBE 3", // bad event type
		"p1 B START 3",
		"p1 B END 4",
	}, "\n")
	var events []Event
	rep, err := StreamTextWith(strings.NewReader(in), IngestOptions{Policy: Skip}, nil, func(e Event) error {
		events = append(events, e)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamTextWith: %v", err)
	}
	if len(events) != 4 {
		t.Errorf("got %d events, want 4", len(events))
	}
	if rep.RecordsRead != 6 || rep.EventsDecoded != 4 || rep.RecordsSkipped != 2 {
		t.Errorf("report = %+v, want 6 read / 4 decoded / 2 skipped", rep)
	}
	if rep.Errors[ClassSyntax] != 2 {
		t.Errorf("syntax errors = %d, want 2", rep.Errors[ClassSyntax])
	}
	if len(rep.Samples) != 2 || rep.Samples[0].Record != 2 || rep.Samples[1].Record != 4 {
		t.Errorf("samples = %+v, want records 2 and 4", rep.Samples)
	}
}

func TestStreamTextWithFailFastUnchanged(t *testing.T) {
	in := "p1 A START 1\ngarbage\n"
	_, err := StreamTextWith(strings.NewReader(in), IngestOptions{}, nil, func(Event) error { return nil })
	if err == nil {
		t.Fatal("FailFast accepted garbage line")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not carry the line number", err)
	}
}

func TestStreamTextWithMaxErrors(t *testing.T) {
	in := "x\ny\nz\n"
	_, err := StreamTextWith(strings.NewReader(in), IngestOptions{Policy: Skip, MaxErrors: 2}, nil,
		func(Event) error { return nil })
	if !errors.Is(err, ErrTooManyErrors) {
		t.Fatalf("err = %v, want ErrTooManyErrors", err)
	}
}

func TestStreamCSVWithRecordNumbers(t *testing.T) {
	in := "process,activity,type,time_unix_nanos,output\n" +
		"p1,A,START,1,\n" +
		"p1,A,END,notanumber,\n" +
		"p1,B,START,3,\n"
	// FailFast: error names the data record.
	err := StreamCSV(strings.NewReader(in), func(Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("FailFast error %v does not carry record number", err)
	}
	// Skip: the bad record is counted with its position.
	n := 0
	rep, err := StreamCSVWith(strings.NewReader(in), IngestOptions{Policy: Skip}, nil, func(Event) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("StreamCSVWith: %v", err)
	}
	if n != 2 || rep.RecordsSkipped != 1 {
		t.Errorf("decoded %d / skipped %d, want 2 / 1", n, rep.RecordsSkipped)
	}
	if len(rep.Samples) != 1 || rep.Samples[0].Record != 2 {
		t.Errorf("sample = %+v, want record 2", rep.Samples)
	}
}

func TestReadJSONWithRecordNumbers(t *testing.T) {
	in := `[
		{"process":"p1","activity":"A","type":"START","time_unix_nanos":1},
		{"process":"p1","activity":"A","type":"BOGUS","time_unix_nanos":2}
	]`
	if _, err := ReadJSON(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("FailFast JSON error %v does not carry record number", err)
	}
	events, rep, err := ReadJSONWith(strings.NewReader(in), IngestOptions{Policy: Skip}, nil)
	if err != nil {
		t.Fatalf("ReadJSONWith: %v", err)
	}
	if len(events) != 1 || rep.RecordsSkipped != 1 {
		t.Errorf("decoded %d / skipped %d, want 1 / 1", len(events), rep.RecordsSkipped)
	}
}

func TestAssembleWithSkipDropsBadStructure(t *testing.T) {
	events := []Event{
		ev("p1", "A", Start, 1), ev("p1", "A", End, 2),
		ev("p1", "B", End, 3), // END without START
		ev("p1", "C", Start, 4), ev("p1", "C", End, 5),
		ev("p2", "A", Start, 1), // never ends
		ev("p2", "B", Start, 3), ev("p2", "B", End, 4),
	}
	l, rep, err := AssembleWith(events, IngestOptions{Policy: Skip}, nil)
	if err != nil {
		t.Fatalf("AssembleWith: %v", err)
	}
	if len(l.Executions) != 2 {
		t.Fatalf("got %d executions, want 2", len(l.Executions))
	}
	if got := l.Executions[0].String(); got != "AC" {
		t.Errorf("p1 = %q, want AC", got)
	}
	if got := l.Executions[1].String(); got != "B" {
		t.Errorf("p2 = %q, want B (unterminated A dropped)", got)
	}
	if rep.Errors[ClassStructure] != 2 {
		t.Errorf("structure errors = %d, want 2", rep.Errors[ClassStructure])
	}
	if rep.StepsDropped != 1 {
		t.Errorf("steps dropped = %d, want 1", rep.StepsDropped)
	}
}

func TestAssembleWithQuarantineSetsAsideWholeExecutions(t *testing.T) {
	events := []Event{
		ev("p1", "A", Start, 1), ev("p1", "A", End, 2),
		ev("p2", "A", Start, 1), ev("p2", "B", End, 2), // structurally bad
		ev("p3", "A", Start, 1), ev("p3", "A", End, 2),
	}
	l, rep, err := AssembleWith(events, IngestOptions{Policy: Quarantine}, nil)
	if err != nil {
		t.Fatalf("AssembleWith: %v", err)
	}
	if len(l.Executions) != 2 {
		t.Fatalf("got %d executions, want 2", len(l.Executions))
	}
	for _, e := range l.Executions {
		if e.ID == "p2" {
			t.Error("quarantined execution p2 leaked into the log")
		}
	}
	if rep.ExecutionsQuarantined != 1 || !reflect.DeepEqual(rep.QuarantinedIDs, []string{"p2"}) {
		t.Errorf("quarantine report = %+v, want exactly p2", rep)
	}
	// The dangling END sets p2 aside; its unterminated START leaves with it
	// rather than counting as a second fault.
	if rep.Errors[ClassStructure] != 1 {
		t.Errorf("structure errors = %d, want 1", rep.Errors[ClassStructure])
	}
	if rep.RecordsSkipped != 1 {
		t.Errorf("records skipped = %d, want 1 (the dangling END)", rep.RecordsSkipped)
	}
}

func TestAssembleWithFailFastMatchesAssemble(t *testing.T) {
	events := []Event{ev("p1", "A", Start, 1), ev("p1", "B", End, 2)}
	_, _, err := AssembleWith(events, IngestOptions{}, nil)
	if err == nil {
		t.Fatal("FailFast AssembleWith accepted END without START")
	}
	if _, err2 := Assemble(events); err2 == nil || err.Error() != err2.Error() {
		t.Errorf("FailFast mismatch: %v vs %v", err, err2)
	}
}

// tiedSteps returns the STARTs of activities a1, b1, ..., a10, b10 of
// execution pid, where a<t> and b<t> start at time t, listed from t=10
// down to t=1: out of time order, with ties inside each t.
func tiedSteps(pid string) []Event {
	var out []Event
	for t := int64(10); t >= 1; t-- {
		out = append(out, ev(pid, fmt.Sprint("a", t), Start, t), ev(pid, fmt.Sprint("b", t), Start, t))
	}
	return out
}

// wantTiedOrder is the step order tiedSteps must settle into: by start
// time, and ties in the order they were listed.
func wantTiedOrder() string {
	var b strings.Builder
	for t := 1; t <= 10; t++ {
		fmt.Fprintf(&b, "a%d,b%d,", t, t)
	}
	return strings.TrimSuffix(b.String(), ",")
}

// TestAssembleWithSortsBucketsStably lists an execution's events out of
// time order, each END at its START's time and listed after it:
// AssembleWith must sort the bucket stably, or an END would come before
// its START, and must agree with the oracle.
func TestAssembleWithSortsBucketsStably(t *testing.T) {
	var events []Event
	for _, st := range tiedSteps("p1") {
		end := st
		end.Type = End
		events = append(events, st, end, ev("p0", st.Activity, Start, 100-st.Time.UnixNano()))
	}
	for _, st := range tiedSteps("p0") {
		events = append(events, ev("p0", st.Activity, End, 100+st.Time.UnixNano()))
	}
	got, _, err := AssembleWith(events, IngestOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := OracleAssembleWith(events, IngestOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log %v, oracle %v", got.Executions, want.Executions)
	}
	if s := got.Executions[1].String(); s != wantTiedOrder() {
		t.Fatalf("p1 = %s, want %s", s, wantTiedOrder())
	}
}

// TestExecutionStreamSettleOrdersSteps pushes STARTs out of time order, as
// a live trail may: the emitted execution lists its steps by start time,
// ties in push order.
func TestExecutionStreamSettleOrdersSteps(t *testing.T) {
	var got []Execution
	s := NewExecutionStream(func(e Execution) error {
		got = append(got, e)
		return nil
	})
	starts := tiedSteps("p")
	for _, st := range starts {
		if err := s.Push(st); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range starts {
		st.Type, st.Time = End, st.Time.Add(time.Hour)
		if err := s.Push(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].String() != wantTiedOrder() {
		t.Fatalf("emitted %v, want one execution %s", got, wantTiedOrder())
	}
}

func TestExecutionStreamCloseReportsAllStuckSorted(t *testing.T) {
	s := NewExecutionStream(func(Execution) error { return nil })
	for _, id := range []string{"zeta", "alpha", "mid"} {
		if err := s.Push(ev(id, "A", Start, 1)); err != nil {
			t.Fatal(err)
		}
	}
	err := s.Close()
	if err == nil {
		t.Fatal("Close with unterminated executions succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "3 executions") {
		t.Errorf("error %q does not count all stuck executions", msg)
	}
	ia, im, iz := strings.Index(msg, `"alpha"`), strings.Index(msg, `"mid"`), strings.Index(msg, `"zeta"`)
	if ia < 0 || im < 0 || iz < 0 || !(ia < im && im < iz) {
		t.Errorf("error %q does not list all stuck executions sorted by ID", msg)
	}
}

func TestExecutionStreamSkipPolicy(t *testing.T) {
	var emitted []Execution
	s := NewExecutionStreamWith(IngestOptions{Policy: Skip}, nil, func(e Execution) error {
		emitted = append(emitted, e)
		return nil
	})
	push := func(e Event) {
		t.Helper()
		if err := s.Push(e); err != nil {
			t.Fatalf("Push(%v): %v", e, err)
		}
	}
	push(ev("p1", "A", Start, 1))
	push(ev("p1", "A", End, 2))
	push(ev("p1", "B", End, 3)) // END without START: skipped
	push(ev("p1", "C", Start, 4))
	push(ev("p1", "C", End, 5))
	push(ev("p2", "A", Start, 1)) // never terminated: step dropped at Close
	push(ev("p2", "B", Start, 2))
	push(ev("p2", "B", End, 3))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(emitted) != 2 {
		t.Fatalf("emitted %d executions, want 2", len(emitted))
	}
	rep := s.Report()
	if rep.Errors[ClassStructure] != 2 {
		t.Errorf("structure errors = %d, want 2 (dangling END + unterminated START)", rep.Errors[ClassStructure])
	}
	if rep.StepsDropped != 1 {
		t.Errorf("steps dropped = %d, want 1", rep.StepsDropped)
	}
}

func TestExecutionStreamQuarantinePolicy(t *testing.T) {
	var emitted []Execution
	s := NewExecutionStreamWith(IngestOptions{Policy: Quarantine}, nil, func(e Execution) error {
		emitted = append(emitted, e)
		return nil
	})
	events := []Event{
		ev("good", "A", Start, 1), ev("good", "A", End, 2),
		ev("bad", "A", Start, 1), ev("bad", "B", End, 2), // quarantines "bad"
		ev("bad", "C", Start, 3), // straggler for a quarantined execution
	}
	for _, e := range events {
		if err := s.Push(e); err != nil {
			t.Fatalf("Push(%v): %v", e, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(emitted) != 1 || emitted[0].ID != "good" {
		t.Fatalf("emitted %v, want just good", emitted)
	}
	rep := s.Report()
	if rep.ExecutionsQuarantined != 1 || rep.QuarantinedIDs[0] != "bad" {
		t.Errorf("quarantine report = %+v, want bad", rep)
	}
	// The dangling END and the straggler START were both swallowed.
	if rep.RecordsSkipped != 2 {
		t.Errorf("records skipped = %d, want 2", rep.RecordsSkipped)
	}
}

func TestExecutionStreamMaxStepsWatermark(t *testing.T) {
	// FailFast: hard error.
	s := NewExecutionStreamWith(IngestOptions{MaxStepsPerExecution: 2}, nil, func(Execution) error { return nil })
	_ = s.Push(ev("p1", "A", Start, 1))
	_ = s.Push(ev("p1", "B", Start, 2))
	if err := s.Push(ev("p1", "C", Start, 3)); !errors.Is(err, ErrExecutionTooLong) {
		t.Fatalf("err = %v, want ErrExecutionTooLong", err)
	}
	// Quarantine: evicted whole, later events swallowed, stream stays small.
	s2 := NewExecutionStreamWith(IngestOptions{Policy: Quarantine, MaxStepsPerExecution: 2}, nil,
		func(Execution) error { return nil })
	for i := int64(1); i <= 100; i++ {
		if err := s2.Push(ev("runaway", "A", Start, i)); err != nil {
			t.Fatalf("Push %d: %v", i, err)
		}
	}
	if got := s2.OpenExecutions(); got != 0 {
		t.Errorf("open executions = %d, want 0 after eviction", got)
	}
	rep := s2.Report()
	if rep.Errors[ClassLimit] != 1 || !rep.isQuarantined("runaway") {
		t.Errorf("limit report = %+v, want runaway quarantined once", rep)
	}
}

func TestExecutionStreamMaxOpenWatermark(t *testing.T) {
	// FailFast: hard error when a new execution would exceed the cap.
	s := NewExecutionStreamWith(IngestOptions{MaxOpenExecutions: 2}, nil, func(Execution) error { return nil })
	_ = s.Push(ev("p1", "A", Start, 1))
	_ = s.Push(ev("p2", "A", Start, 2))
	if err := s.Push(ev("p3", "A", Start, 3)); !errors.Is(err, ErrTooManyOpenExecutions) {
		t.Fatalf("err = %v, want ErrTooManyOpenExecutions", err)
	}
	// Skip: the stalest execution (p1: oldest last event) is evicted.
	s2 := NewExecutionStreamWith(IngestOptions{Policy: Skip, MaxOpenExecutions: 2}, nil,
		func(Execution) error { return nil })
	_ = s2.Push(ev("p1", "A", Start, 1))
	_ = s2.Push(ev("p2", "A", Start, 2))
	_ = s2.Push(ev("p1", "B", Start, 3)) // p2 is now stalest
	if err := s2.Push(ev("p3", "A", Start, 4)); err != nil {
		t.Fatalf("Push p3: %v", err)
	}
	if s2.OpenExecutions() != 2 {
		t.Errorf("open executions = %d, want 2", s2.OpenExecutions())
	}
	rep := s2.Report()
	if !rep.isQuarantined("p2") || rep.isQuarantined("p1") {
		t.Errorf("evicted %v, want exactly p2 (the stalest)", rep.QuarantinedIDs)
	}
	if rep.Errors[ClassLimit] != 1 {
		t.Errorf("limit errors = %d, want 1", rep.Errors[ClassLimit])
	}
	// A stray END opens nothing, so it cannot evict the live execution.
	var emitted []Execution
	s3 := NewExecutionStreamWith(IngestOptions{Policy: Quarantine, MaxOpenExecutions: 1}, nil,
		func(e Execution) error { emitted = append(emitted, e); return nil })
	for _, e := range []Event{ev("p1", "A", Start, 1), ev("ghost", "B", End, 2), ev("p1", "A", End, 3)} {
		if err := s3.Push(e); err != nil {
			t.Fatalf("Push(%v): %v", e, err)
		}
	}
	if err := s3.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(emitted) != 1 || emitted[0].ID != "p1" {
		t.Errorf("emitted %v, want just p1", emitted)
	}
	if got := s3.Report().QuarantinedIDs; !reflect.DeepEqual(got, []string{"ghost"}) {
		t.Errorf("quarantined %v, want [ghost]", got)
	}
}

func TestIngestReportSummaryAndWriteReport(t *testing.T) {
	rep := NewIngestReport(IngestOptions{Policy: Skip, MaxSampleErrors: 1})
	rep.RecordsRead = 10
	rep.EventsDecoded = 8
	rep.record(IngestError{Class: ClassSyntax, Record: 3, Err: errors.New("bad line")})
	rep.record(IngestError{Class: ClassStructure, Execution: "p9", Err: ErrEndWithoutStart})
	rep.RecordsSkipped = 2
	rep.quarantine("p9")
	sum := rep.Summary()
	for _, want := range []string{"10 records", "8 events", "2 skipped", "1 executions quarantined", "structure 1", "syntax 1"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary %q missing %q", sum, want)
		}
	}
	var b strings.Builder
	if err := rep.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "record 3") || !strings.Contains(out, "1 more errors") || !strings.Contains(out, "p9") {
		t.Errorf("WriteReport output unexpected:\n%s", out)
	}
}

func TestReadXESWithLenient(t *testing.T) {
	xes := `<?xml version="1.0"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="t1"/>
    <event><string key="concept:name" value="A"/><date key="time:timestamp" value="2024-01-01T00:00:00Z"/></event>
    <event><string key="concept:name" value="B"/><date key="time:timestamp" value="NOT-A-TIME"/></event>
    <event><string key="concept:name" value="C"/><date key="time:timestamp" value="2024-01-01T00:00:02Z"/></event>
  </trace>
  <trace>
    <string key="concept:name" value="t2"/>
    <event><string key="concept:name" value="A"/><date key="time:timestamp" value="2024-01-01T00:00:00Z"/></event>
  </trace>
</log>`
	// FailFast keeps the old behavior, now with a record number.
	if _, err := ReadXES(strings.NewReader(xes)); err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("FailFast XES error %v, want record 2", err)
	}
	// Skip drops the bad event; t1 keeps A and C.
	l, rep, err := ReadXESWith(strings.NewReader(xes), IngestOptions{Policy: Skip}, nil)
	if err != nil {
		t.Fatalf("ReadXESWith(Skip): %v", err)
	}
	if len(l.Executions) != 2 {
		t.Fatalf("got %d executions, want 2", len(l.Executions))
	}
	if rep.Errors[ClassSyntax] != 1 {
		t.Errorf("syntax errors = %d, want 1", rep.Errors[ClassSyntax])
	}
	// Quarantine sets the whole damaged trace aside.
	l2, rep2, err := ReadXESWith(strings.NewReader(xes), IngestOptions{Policy: Quarantine}, nil)
	if err != nil {
		t.Fatalf("ReadXESWith(Quarantine): %v", err)
	}
	if len(l2.Executions) != 1 || l2.Executions[0].ID != "t2" {
		t.Fatalf("executions = %v, want just t2", l2.Executions)
	}
	if rep2.ExecutionsQuarantined != 1 || rep2.QuarantinedIDs[0] != "t1" {
		t.Errorf("quarantine = %+v, want t1", rep2.QuarantinedIDs)
	}
}

func TestEmptyLogsThroughEveryCodec(t *testing.T) {
	// Empty inputs must not panic; formats with mandatory framing error out,
	// frameless formats produce an empty event slice.
	if evs, err := ReadText(strings.NewReader("")); err != nil || len(evs) != 0 {
		t.Errorf("ReadText(empty) = %v, %v; want empty, nil", evs, err)
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("ReadCSV(empty) succeeded; want missing-header error")
	}
	if evs, err := ReadCSV(strings.NewReader("process,activity,type,time_unix_nanos,output\n")); err != nil || len(evs) != 0 {
		t.Errorf("ReadCSV(header only) = %v, %v; want empty, nil", evs, err)
	}
	if _, err := ReadJSON(strings.NewReader("")); err == nil {
		t.Error("ReadJSON(empty) succeeded; want decode error")
	}
	if evs, err := ReadJSON(strings.NewReader("[]")); err != nil || len(evs) != 0 {
		t.Errorf("ReadJSON([]) = %v, %v; want empty, nil", evs, err)
	}
	if _, err := ReadXES(strings.NewReader("")); err == nil {
		t.Error("ReadXES(empty) succeeded; want decode error")
	}
	if l, err := ReadXES(strings.NewReader(`<log xes.version="1.0"></log>`)); err != nil || len(l.Executions) != 0 {
		t.Errorf("ReadXES(empty log) = %v, %v; want empty, nil", l, err)
	}
}

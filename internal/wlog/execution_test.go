package wlog

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFromStringActivities(t *testing.T) {
	e := FromString("x1", "ABCE")
	if got, want := e.Activities(), []string{"A", "B", "C", "E"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Activities = %v, want %v", got, want)
	}
	if e.String() != "ABCE" {
		t.Fatalf("String = %q, want ABCE", e.String())
	}
	if e.First() != "A" || e.Last() != "E" {
		t.Fatalf("First/Last = %s/%s, want A/E", e.First(), e.Last())
	}
}

func TestFromSequenceNonOverlapping(t *testing.T) {
	e := FromSequence("x", "start", "work", "end")
	for i := 0; i < len(e.Steps); i++ {
		s := e.Steps[i]
		if !s.Start.Before(s.End) {
			t.Errorf("step %d has non-positive duration", i)
		}
		for j := i + 1; j < len(e.Steps); j++ {
			if s.Overlaps(e.Steps[j]) {
				t.Errorf("steps %d and %d overlap", i, j)
			}
			if !s.Before(e.Steps[j]) {
				t.Errorf("step %d not strictly before step %d", i, j)
			}
		}
	}
	if e.String() != "start,work,end" {
		t.Fatalf("String = %q, want comma-joined", e.String())
	}
}

func TestEmptyExecutionAccessors(t *testing.T) {
	var e Execution
	if e.First() != "" || e.Last() != "" {
		t.Error("First/Last of empty execution not empty")
	}
	if len(e.Activities()) != 0 {
		t.Error("Activities of empty execution not empty")
	}
}

func TestStepOverlaps(t *testing.T) {
	t0 := time.Unix(0, 0)
	mk := func(s, e int) Step {
		return Step{Start: t0.Add(time.Duration(s)), End: t0.Add(time.Duration(e))}
	}
	cases := []struct {
		a, b Step
		want bool
	}{
		{mk(0, 10), mk(5, 15), true},   // partial overlap
		{mk(0, 10), mk(10, 20), false}, // touching endpoints do not overlap
		{mk(0, 10), mk(20, 30), false}, // disjoint
		{mk(0, 30), mk(10, 20), true},  // containment
		{mk(5, 15), mk(0, 10), true},   // symmetric
	}
	for i, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("case %d: Overlaps = %v, want %v", i, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("case %d: Overlaps not symmetric", i)
		}
	}
}

func TestActivitySetDeduplicates(t *testing.T) {
	e := FromString("x", "ABCBCE")
	if got, want := e.ActivitySet(), []string{"A", "B", "C", "E"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ActivitySet = %v, want %v", got, want)
	}
}

func TestLogFromStrings(t *testing.T) {
	l := LogFromStrings("ABCE", "ACDE")
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if got, want := l.Activities(), []string{"A", "B", "C", "D", "E"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Activities = %v, want %v", got, want)
	}
	if l.Executions[0].ID == l.Executions[1].ID {
		t.Fatal("executions share an ID")
	}
}

func TestExecutionEventsRoundTripThroughAssemble(t *testing.T) {
	l := LogFromStrings("ABCE", "ACDBE", "ACDE")
	events := l.Events()
	got, err := Assemble(events)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("round trip changed execution count: %d != %d", got.Len(), l.Len())
	}
	for i := range l.Executions {
		want := l.Executions[i].String()
		found := false
		for _, e := range got.Executions {
			if e.ID == l.Executions[i].ID {
				found = true
				if e.String() != want {
					t.Errorf("execution %s = %q, want %q", e.ID, e.String(), want)
				}
			}
		}
		if !found {
			t.Errorf("execution %s missing after round trip", l.Executions[i].ID)
		}
	}
}

func TestAssembleRepeatedActivity(t *testing.T) {
	// Cyclic execution ABCBCE: activity B and C appear twice; FIFO pairing
	// must produce six steps in order.
	e := FromString("c1", "ABCBCE")
	got, err := Assemble(e.Events())
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if got.Executions[0].String() != "ABCBCE" {
		t.Fatalf("reassembled = %q, want ABCBCE", got.Executions[0].String())
	}
}

func TestAssembleEndWithoutStart(t *testing.T) {
	evs := []Event{{ProcessID: "p", Activity: "A", Type: End, Time: time.Unix(1, 0)}}
	if _, err := Assemble(evs); err == nil {
		t.Fatal("Assemble accepted END without START")
	}
}

func TestAssembleStartWithoutEnd(t *testing.T) {
	evs := []Event{{ProcessID: "p", Activity: "A", Type: Start, Time: time.Unix(1, 0)}}
	if _, err := Assemble(evs); err == nil {
		t.Fatal("Assemble accepted START without END")
	}

	// Three unterminated activities in one execution: the error is the same
	// on every call and names the execution and all three, sorted.
	evs = []Event{
		{ProcessID: "p", Activity: "C", Type: Start, Time: time.Unix(1, 0)},
		{ProcessID: "p", Activity: "A", Type: Start, Time: time.Unix(2, 0)},
		{ProcessID: "p", Activity: "B", Type: Start, Time: time.Unix(3, 0)},
	}
	_, first := Assemble(evs)
	if first == nil {
		t.Fatal("Assemble accepted three unterminated STARTs")
	}
	msg := first.Error()
	ip, ia, ib, ic := strings.Index(msg, `"p"`), strings.Index(msg, `"A"`), strings.Index(msg, `"B"`), strings.Index(msg, `"C"`)
	if ip < 0 || ia < 0 || ib < 0 || ic < 0 || !(ip < ia && ia < ib && ib < ic) {
		t.Errorf("error %q does not name execution p and activities A, B, C in order", msg)
	}
	for i := 0; i < 50; i++ {
		if _, err := Assemble(evs); err == nil || err.Error() != msg {
			t.Fatalf("call %d: error %v, want %q", i, err, msg)
		}
	}
}

func TestAssembleInterleavedProcesses(t *testing.T) {
	// Events from two executions interleaved in time must separate cleanly.
	a := FromString("a", "AB")
	b := FromString("b", "BA")
	var evs []Event
	ea, eb := a.Events(), b.Events()
	for i := range ea {
		evs = append(evs, ea[i], eb[i])
	}
	l, err := Assemble(evs)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	byID := map[string]string{}
	for _, e := range l.Executions {
		byID[e.ID] = e.String()
	}
	if byID["a"] != "AB" || byID["b"] != "BA" {
		t.Fatalf("executions = %v, want a:AB b:BA", byID)
	}
}

func TestAssembleOverlappingSteps(t *testing.T) {
	// Two activities overlapping in time within one execution (truly
	// concurrent): A [0,10], B [5,15].
	t0 := time.Unix(0, 0).UTC()
	evs := []Event{
		{ProcessID: "p", Activity: "A", Type: Start, Time: t0},
		{ProcessID: "p", Activity: "B", Type: Start, Time: t0.Add(5)},
		{ProcessID: "p", Activity: "A", Type: End, Time: t0.Add(10), Output: Output{1}},
		{ProcessID: "p", Activity: "B", Type: End, Time: t0.Add(15), Output: Output{2}},
	}
	l, err := Assemble(evs)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	steps := l.Executions[0].Steps
	if len(steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(steps))
	}
	if !steps[0].Overlaps(steps[1]) {
		t.Fatal("overlapping steps lost their overlap")
	}
	if !steps[0].Output.Equal(Output{1}) || !steps[1].Output.Equal(Output{2}) {
		t.Fatalf("outputs misassigned: %v, %v", steps[0].Output, steps[1].Output)
	}
}

func TestOutputCloneAndEqual(t *testing.T) {
	var nilOut Output
	if nilOut.Clone() != nil {
		t.Error("Clone of nil Output not nil")
	}
	o := Output{1, 2, 3}
	c := o.Clone()
	c[0] = 99
	if o[0] == 99 {
		t.Error("Clone shares backing array")
	}
	if !o.Equal(Output{1, 2, 3}) {
		t.Error("Equal = false for identical vectors")
	}
	if o.Equal(Output{1, 2}) || o.Equal(Output{1, 2, 4}) {
		t.Error("Equal = true for different vectors")
	}
}

func TestEventString(t *testing.T) {
	ev := Event{ProcessID: "p1", Activity: "A", Type: End, Time: time.Unix(0, 42).UTC(), Output: Output{7, 8}}
	if got, want := ev.String(), "p1 A END 42 7 8"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestEventTypeParse(t *testing.T) {
	for _, c := range []struct {
		s  string
		et EventType
	}{{"START", Start}, {"END", End}} {
		got, err := ParseEventType(c.s)
		if err != nil || got != c.et {
			t.Errorf("ParseEventType(%q) = %v, %v", c.s, got, err)
		}
		if c.et.String() != c.s {
			t.Errorf("String() = %q, want %q", c.et.String(), c.s)
		}
	}
	if _, err := ParseEventType("start"); err == nil {
		t.Error("ParseEventType accepted lowercase")
	}
	if s := EventType(9).String(); s != "EventType(9)" {
		t.Errorf("unknown EventType String = %q", s)
	}
}

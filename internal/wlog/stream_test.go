package wlog

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestStreamTextMatchesReadText(t *testing.T) {
	l := LogFromStrings("ABCE", "ACDE")
	var buf bytes.Buffer
	if err := WriteText(&buf, l.Events()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	want, err := ReadText(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	err = StreamText(bytes.NewReader(data), func(ev Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("event %d: %q != %q", i, got[i].String(), want[i].String())
		}
	}
}

func TestStreamTextCallbackError(t *testing.T) {
	in := "p A START 1\np A END 2\n"
	sentinel := errors.New("stop")
	calls := 0
	err := StreamText(strings.NewReader(in), func(Event) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("callback called %d times after error, want 1", calls)
	}
}

func TestStreamTextBadLine(t *testing.T) {
	if err := StreamText(strings.NewReader("p A NOPE 1\n"), func(Event) error { return nil }); err == nil {
		t.Fatal("bad line accepted")
	}
}

// TestTextNameTableCapped streams more distinct process IDs than the
// decoder's name table holds, then names early IDs again after the table
// has been emptied: the table never grows past maxTextNames, and every
// event decodes exactly as the oracle decodes it.
func TestTextNameTableCapped(t *testing.T) {
	n := maxTextNames + maxTextNames/2
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "p%d A%d START %d\n", i, i%7, i)
	}
	for i := 0; i < n; i += 997 {
		fmt.Fprintf(&b, "p%d A%d END %d %d\n", i, i%7, n+i, i)
	}
	text := b.String()

	d := textDecoder{names: map[string]string{}}
	for _, line := range strings.Split(text, "\n") {
		if !d.split([]byte(line)) {
			continue
		}
		if _, err := d.event(); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if len(d.names) > maxTextNames {
			t.Fatalf("name table holds %d names, cap %d", len(d.names), maxTextNames)
		}
	}

	got, err := ReadText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := OracleReadTextWith(strings.NewReader(text), IngestOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n+(n+996)/997 || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %d events unlike the oracle's %d", len(got), len(want))
	}
}

func TestExecutionStreamInterleaved(t *testing.T) {
	a := FromString("a", "ABC")
	b := FromString("b", "XY")
	var events []Event
	ea, eb := a.Events(), b.Events()
	// Interleave the two executions' events.
	for i := 0; i < len(ea) || i < len(eb); i++ {
		if i < len(ea) {
			events = append(events, ea[i])
		}
		if i < len(eb) {
			events = append(events, eb[i])
		}
	}
	var emitted []Execution
	s := NewExecutionStream(func(e Execution) error {
		emitted = append(emitted, e)
		return nil
	})
	for _, ev := range events {
		if err := s.Push(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 2 {
		t.Fatalf("emitted %d executions, want 2", len(emitted))
	}
	byID := map[string]string{}
	for _, e := range emitted {
		byID[e.ID] = e.String()
	}
	if byID["a"] != "ABC" || byID["b"] != "XY" {
		t.Fatalf("emitted = %v", byID)
	}
}

func TestExecutionStreamEmitCompletedBoundsMemory(t *testing.T) {
	var emitted []string
	s := NewExecutionStream(func(e Execution) error {
		emitted = append(emitted, e.ID)
		return nil
	})
	// Complete execution p1, leave p2 open, emit, then finish p2.
	for _, ev := range FromString("p1", "AB").Events() {
		if err := s.Push(ev); err != nil {
			t.Fatal(err)
		}
	}
	p2 := FromString("p2", "AB").Events()
	if err := s.Push(p2[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.EmitCompleted(); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 1 || emitted[0] != "p1" {
		t.Fatalf("after EmitCompleted: %v, want [p1]", emitted)
	}
	for _, ev := range p2[1:] {
		if err := s.Push(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 2 {
		t.Fatalf("after Close: %v, want 2 executions", emitted)
	}
}

func TestExecutionStreamErrors(t *testing.T) {
	s := NewExecutionStream(func(Execution) error { return nil })
	if err := s.Push(Event{ProcessID: "p", Activity: "A", Type: End}); err == nil {
		t.Fatal("END without START accepted")
	}
	s2 := NewExecutionStream(func(Execution) error { return nil })
	if err := s2.Push(Event{ProcessID: "p", Activity: "A", Type: Start}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err == nil {
		t.Fatal("Close with unterminated activity succeeded")
	}
}

func TestExecutionStreamEmitError(t *testing.T) {
	sentinel := errors.New("emit failed")
	s := NewExecutionStream(func(Execution) error { return sentinel })
	for _, ev := range FromString("p", "AB").Events() {
		if err := s.Push(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

// TestStreamToIncrementalMiner wires the streaming pieces end to end: text
// stream -> execution stream -> incremental mining semantics (here just
// collecting executions; the miner itself lives in core).
func TestStreamToIncrementalMiner(t *testing.T) {
	l := LogFromStrings("ABCF", "ACDF", "ADEF", "AECF")
	var buf bytes.Buffer
	if err := WriteText(&buf, l.Events()); err != nil {
		t.Fatal(err)
	}
	var collected []Execution
	es := NewExecutionStream(func(e Execution) error {
		collected = append(collected, e)
		return nil
	})
	if err := StreamText(&buf, es.Push); err != nil {
		t.Fatal(err)
	}
	if err := es.Close(); err != nil {
		t.Fatal(err)
	}
	if len(collected) != 4 {
		t.Fatalf("collected %d executions, want 4", len(collected))
	}
}

func TestStreamCSVMatchesReadCSV(t *testing.T) {
	l := LogFromStrings("ABCE", "ACDE")
	l.Executions[0].Steps[0].Output = Output{1, 2}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, l.Events()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	want, err := ReadCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	if err := StreamCSV(bytes.NewReader(data), func(ev Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("event %d differs", i)
		}
	}
	// Errors surface.
	if err := StreamCSV(strings.NewReader("wrong,header\n"), func(Event) error { return nil }); err == nil {
		t.Fatal("bad header accepted")
	}
	sentinel := errors.New("stop")
	err = StreamCSV(bytes.NewReader(data), func(Event) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

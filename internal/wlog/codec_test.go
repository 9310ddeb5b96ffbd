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

func sampleEvents() []Event {
	t0 := time.Unix(0, 1000).UTC()
	return []Event{
		{ProcessID: "p1", Activity: "A", Type: Start, Time: t0},
		{ProcessID: "p1", Activity: "A", Type: End, Time: t0.Add(time.Microsecond), Output: Output{3, 1}},
		{ProcessID: "p1", Activity: "B", Type: Start, Time: t0.Add(2 * time.Microsecond)},
		{ProcessID: "p1", Activity: "B", Type: End, Time: t0.Add(3 * time.Microsecond), Output: Output{0}},
		{ProcessID: "p2", Activity: "A", Type: Start, Time: t0.Add(4 * time.Microsecond)},
		{ProcessID: "p2", Activity: "A", Type: End, Time: t0.Add(5 * time.Microsecond)},
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	events := sampleEvents()
	if err := WriteText(&buf, events); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\ngot  %v\nwant %v", got, events)
	}
}

// TestEventStringMatchesSprintf pins Event.String, and so WriteText and
// filter.go's dedupe key, to the fmt form it replaced.
func TestEventStringMatchesSprintf(t *testing.T) {
	events := append(sampleEvents(),
		Event{ProcessID: "case-é", Activity: "A#2", Type: EventType(7), Time: time.Unix(-5, -3)},
		Event{ProcessID: "p", Activity: "Z", Type: End, Time: time.Unix(1<<33, 999999999), Output: Output{-1, 0, math.MaxInt, math.MinInt}},
		Event{},
	)
	for _, e := range events {
		want := fmt.Sprintf("%s %s %s %d", e.ProcessID, e.Activity, e.Type, e.Time.UnixNano())
		for _, v := range e.Output {
			want += fmt.Sprintf(" %d", v)
		}
		if got := e.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "# audit trail\n\np1 A START 100\np1 A END 200 5\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d events, want 2", len(got))
	}
	if !got[1].Output.Equal(Output{5}) {
		t.Fatalf("output = %v, want [5]", got[1].Output)
	}
}

func TestTextErrors(t *testing.T) {
	cases := []string{
		"p1 A START",          // too few fields
		"p1 A MIDDLE 100",     // bad type
		"p1 A START notanint", // bad time
		"p1 A END 100 x",      // bad output
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText(%q) accepted invalid input", in)
		}
	}
}

// TestTextRejectsWhitespaceNames pins WriteText's name rule: it refuses
// exactly the names whose line ReadText could not give back, and says why.
func TestTextRejectsWhitespaceNames(t *testing.T) {
	cases := []struct{ pid, act, reason string }{
		{"has space", "A", "whitespace"},
		{"p", "a b", "whitespace"},
		{"p\tq", "A", "whitespace"},
		{"p", "a\nb", "whitespace"},
		{"p\rq", "A", "whitespace"},
		{"p", "a\vb", "whitespace"},
		{"p\fq", "A", "whitespace"},
		{"p", "a\u0085b", "whitespace"},
		{"p\u00a0q", "A", "whitespace"},
		{"p", "a\u2003b", "whitespace"},
		{"", "A", "empty"},
		{"p", "", "empty"},
		{"#p", "A", "comment"},
		{"#", "A", "comment"},
	}
	for _, c := range cases {
		ev := Event{ProcessID: c.pid, Activity: c.act, Type: Start, Time: time.Unix(0, 1).UTC()}
		err := WriteText(&bytes.Buffer{}, []Event{ev})
		if err == nil || !strings.Contains(err.Error(), c.reason) {
			t.Errorf("WriteText(%q, %q) = %v, want an error naming %q", c.pid, c.act, err, c.reason)
		}
		// The rule is not arbitrary: the line as written reads back as
		// something else, or not at all.
		got, err := ReadText(strings.NewReader(ev.String() + "\n"))
		if err == nil && reflect.DeepEqual(got, []Event{ev}) {
			t.Errorf("%q reads back unchanged, yet WriteText refuses it", ev.String())
		}
	}
	// '#' inside a process name, and anywhere in an activity, is legal.
	ok := []Event{
		{ProcessID: "p#1", Activity: "#A", Type: Start, Time: time.Unix(0, 1).UTC()},
		{ProcessID: "p#1", Activity: "#A", Type: End, Time: time.Unix(0, 2).UTC(), Output: Output{4}},
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, ok); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if got, err := ReadText(&buf); err != nil || !reflect.DeepEqual(got, ok) {
		t.Fatalf("round trip = %v, %v; want %v", got, err, ok)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	events := sampleEvents()
	if err := WriteCSV(&buf, events); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\ngot  %v\nwant %v", got, events)
	}
}

func TestCSVHandlesNamesWithSpaces(t *testing.T) {
	t0 := time.Unix(0, 7).UTC()
	events := []Event{
		{ProcessID: "Upload and Notify 1", Activity: "Check Request", Type: Start, Time: t0},
		{ProcessID: "Upload and Notify 1", Activity: "Check Request", Type: End, Time: t0.Add(1), Output: Output{1, 2, 3}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\ngot  %v\nwant %v", got, events)
	}
}

func TestCSVHeaderValidation(t *testing.T) {
	in := "a,b,c,d,e\np,A,START,1,\n"
	if _, err := ReadCSV(strings.NewReader(in)); err == nil {
		t.Fatal("ReadCSV accepted wrong header")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("ReadCSV accepted empty input")
	}
}

func TestCSVBadRows(t *testing.T) {
	head := strings.Join(csvHeader(), ",") + "\n"
	cases := []string{
		head + "p,A,WRONG,1,\n",
		head + "p,A,START,xx,\n",
		head + "p,A,END,1,a;b\n",
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV accepted invalid row in %q", in)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	events := sampleEvents()
	if err := WriteJSON(&buf, events); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\ngot  %v\nwant %v", got, events)
	}
}

func TestJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("ReadJSON accepted malformed JSON")
	}
	if _, err := ReadJSON(strings.NewReader(`[{"process":"p","activity":"A","type":"NOPE","time_unix_nanos":1}]`)); err == nil {
		t.Fatal("ReadJSON accepted bad event type")
	}
}

func TestCodecsAgree(t *testing.T) {
	// The same log written through all three codecs must decode identically.
	events := sampleEvents()
	var text, csvb, jsonb bytes.Buffer
	if err := WriteText(&text, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csvb, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jsonb, events); err != nil {
		t.Fatal(err)
	}
	a, err := ReadText(&text)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadCSV(&csvb)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ReadJSON(&jsonb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(b, c) {
		t.Fatal("codecs disagree after round trip")
	}
}

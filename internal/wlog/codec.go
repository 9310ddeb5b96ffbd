package wlog

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// The text codec writes one event per line:
//
//	<process> <activity> START|END <unix-nanos> [<out0> <out1> ...]
//
// Fields are separated by whitespace; process and activity names therefore
// must not contain any (names with spaces should use the CSV or JSON codec).

// WriteText writes events in the text-log format. It refuses any name
// ReadText could not give back: an empty process or activity name, a name
// holding a rune unicode.IsSpace accepts (ReadText splits fields there),
// and a process name starting with '#', which makes its line a comment.
func WriteText(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	var line []byte // one line's bytes, reused across events
	for _, ev := range events {
		if err := textNameError("process", ev.ProcessID); err != nil {
			return err
		}
		if err := textNameError("activity", ev.Activity); err != nil {
			return err
		}
		line = append(ev.appendText(line[:0]), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// textNameError says why name, a process or activity name as kind says,
// cannot be a text-codec field; it returns nil when it can.
func textNameError(kind, name string) error {
	var reason string
	switch {
	case name == "":
		reason = "it is empty"
	case strings.IndexFunc(name, unicode.IsSpace) >= 0:
		reason = "it contains whitespace"
	case kind == "process" && name[0] == '#':
		reason = "a line starting with '#' is a comment"
	default:
		return nil
	}
	return fmt.Errorf("wlog: text codec cannot encode %s name %q: %s", kind, name, reason)
}

// ReadText parses the text-log format. Blank lines and comment lines, whose
// first field starts with '#', are skipped. For very large trails prefer
// StreamText, which does not materialize the slice.
func ReadText(r io.Reader) ([]Event, error) {
	events, _, err := ReadTextWith(r, IngestOptions{}, nil)
	return events, err
}

// ReadTextWith parses the text-log format under a recovery policy:
// unparseable lines are counted in the report and skipped instead of
// aborting the read (FailFast behaves exactly like ReadText).
func ReadTextWith(r io.Reader, opts IngestOptions, rep *IngestReport) ([]Event, *IngestReport, error) {
	var g eventGatherer
	rep, err := StreamTextWith(r, opts, rep, g.add)
	if err != nil {
		return nil, rep, err
	}
	return g.events(), rep, nil
}

// gatherChunk caps the chunks an eventGatherer fills.
const gatherChunk = 4096

// eventGatherer collects streamed events in chunks that grow to
// gatherChunk events and are then never regrown, so a long read does not
// copy its events again at every growth; events copies them once into an
// exact-length result.
type eventGatherer struct {
	chunks [][]Event
	n      int
}

// add appends one event; it never fails.
func (g *eventGatherer) add(ev Event) error {
	last := len(g.chunks) - 1
	if last < 0 || len(g.chunks[last]) == cap(g.chunks[last]) {
		g.chunks = append(g.chunks, make([]Event, 0, min(max(g.n, 16), gatherChunk)))
		last++
	}
	g.chunks[last] = append(g.chunks[last], ev)
	g.n++
	return nil
}

// events returns the gathered events in order, nil when there are none.
func (g *eventGatherer) events() []Event {
	if g.n == 0 {
		return nil
	}
	out := make([]Event, 0, g.n)
	for _, c := range g.chunks {
		out = append(out, c...)
	}
	return out
}

// csvHeader is the fixed column set of the CSV codec.
func csvHeader() []string {
	return []string{"process", "activity", "type", "time_unix_nanos", "output"}
}

// WriteCSV writes events as CSV with a header row. The output vector is
// encoded as semicolon-joined integers in the final column.
func WriteCSV(w io.Writer, events []Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader()); err != nil {
		return err
	}
	for _, ev := range events {
		out := make([]string, len(ev.Output))
		for i, v := range ev.Output {
			out[i] = strconv.Itoa(v)
		}
		rec := []string{
			ev.ProcessID,
			ev.Activity,
			ev.Type.String(),
			strconv.FormatInt(ev.Time.UnixNano(), 10),
			strings.Join(out, ";"),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the CSV codec's output (header row required). Errors carry
// the 1-based data record number.
func ReadCSV(r io.Reader) ([]Event, error) {
	events, _, err := ReadCSVWith(r, IngestOptions{}, nil)
	return events, err
}

// ReadCSVWith parses the CSV codec under a recovery policy: bad rows are
// counted in the report and skipped instead of aborting the read. A
// malformed header is always fatal.
func ReadCSVWith(r io.Reader, opts IngestOptions, rep *IngestReport) ([]Event, *IngestReport, error) {
	var events []Event
	rep, err := StreamCSVWith(r, opts, rep, func(ev Event) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	return events, rep, nil
}

// decodeCSVRecord decodes one data row of the CSV codec.
func decodeCSVRecord(rec []string) (Event, error) {
	typ, err := ParseEventType(rec[2])
	if err != nil {
		return Event{}, err
	}
	ns, err := strconv.ParseInt(rec[3], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("wlog: bad CSV timestamp %q: %w", rec[3], err)
	}
	ev := Event{
		ProcessID: rec[0],
		Activity:  rec[1],
		Type:      typ,
		Time:      time.Unix(0, ns).UTC(),
	}
	if rec[4] != "" {
		for _, f := range strings.Split(rec[4], ";") {
			v, err := strconv.Atoi(f)
			if err != nil {
				return Event{}, fmt.Errorf("wlog: bad CSV output value %q: %w", f, err)
			}
			ev.Output = append(ev.Output, v)
		}
	}
	return ev, nil
}

// jsonEvent is the wire form of an event for the JSON codec.
type jsonEvent struct {
	Process  string `json:"process"`
	Activity string `json:"activity"`
	Type     string `json:"type"`
	TimeNS   int64  `json:"time_unix_nanos"`
	Output   []int  `json:"output,omitempty"`
}

// WriteJSON writes events as a JSON array.
func WriteJSON(w io.Writer, events []Event) error {
	arr := make([]jsonEvent, len(events))
	for i, ev := range events {
		arr[i] = jsonEvent{
			Process:  ev.ProcessID,
			Activity: ev.Activity,
			Type:     ev.Type.String(),
			TimeNS:   ev.Time.UnixNano(),
			Output:   ev.Output,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(arr)
}

// ReadJSON parses the JSON codec's output. Per-record errors carry the
// 1-based array index of the bad record.
func ReadJSON(r io.Reader) ([]Event, error) {
	events, _, err := ReadJSONWith(r, IngestOptions{}, nil)
	return events, err
}

// ReadJSONWith parses the JSON codec under a recovery policy: records with
// an invalid event type are counted in the report and skipped. A document
// that does not parse as a JSON array at all is always fatal — there is no
// record boundary to resynchronize on.
func ReadJSONWith(r io.Reader, opts IngestOptions, rep *IngestReport) ([]Event, *IngestReport, error) {
	rep = ensureReport(rep, opts)
	var arr []jsonEvent
	if err := json.NewDecoder(r).Decode(&arr); err != nil {
		return nil, rep, fmt.Errorf("wlog: decoding JSON: %w", err)
	}
	events := make([]Event, 0, len(arr))
	for i, je := range arr {
		rep.RecordsRead++
		typ, err := ParseEventType(je.Type)
		if err != nil {
			if !opts.lenient() {
				return nil, rep, fmt.Errorf("wlog: JSON record %d: %w", i+1, err)
			}
			if err := handleBadRecord(opts, rep, IngestError{Class: ClassSyntax, Record: i + 1, Err: err}); err != nil {
				return nil, rep, err
			}
			continue
		}
		rep.EventsDecoded++
		events = append(events, Event{
			ProcessID: je.Process,
			Activity:  je.Activity,
			Type:      typ,
			Time:      time.Unix(0, je.TimeNS).UTC(),
			Output:    je.Output,
		})
	}
	return events, rep, nil
}

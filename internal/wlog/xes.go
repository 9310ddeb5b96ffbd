package wlog

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// XES codec. XES (eXtensible Event Stream, IEEE 1849-2016) is the standard
// interchange format of the process-mining community that grew out of this
// paper's line of work. Supporting it lets procmine exchange logs with ProM,
// PM4Py and friends.
//
// Mapping: one <trace> per execution (concept:name = execution ID); each
// activity instance becomes two <event> elements with
// lifecycle:transition "start" and "complete"; the complete event carries
// the output vector as integer attributes out:0, out:1, ...

// xesAttr is a typed key/value attribute in any XES scope.
type xesAttr struct {
	XMLName xml.Name
	Key     string `xml:"key,attr"`
	Value   string `xml:"value,attr"`
}

type xesEvent struct {
	XMLName xml.Name  `xml:"event"`
	Attrs   []xesAttr `xml:",any"`
}

type xesTrace struct {
	XMLName xml.Name   `xml:"trace"`
	Attrs   []xesAttr  `xml:"string"`
	Events  []xesEvent `xml:"event"`
}

type xesLog struct {
	XMLName xml.Name   `xml:"log"`
	Version string     `xml:"xes.version,attr"`
	Traces  []xesTrace `xml:"trace"`
}

// WriteXES encodes the log as an XES document.
func WriteXES(w io.Writer, l *Log) error {
	doc := xesLog{Version: "1.0"}
	for _, exec := range l.Executions {
		tr := xesTrace{
			Attrs: []xesAttr{{
				XMLName: xml.Name{Local: "string"},
				Key:     "concept:name",
				Value:   exec.ID,
			}},
		}
		for _, ev := range exec.Events() {
			attrs := []xesAttr{
				{XMLName: xml.Name{Local: "string"}, Key: "concept:name", Value: ev.Activity},
				{XMLName: xml.Name{Local: "string"}, Key: "lifecycle:transition", Value: xesTransition(ev.Type)},
				{XMLName: xml.Name{Local: "date"}, Key: "time:timestamp", Value: ev.Time.UTC().Format(time.RFC3339Nano)},
			}
			for i, v := range ev.Output {
				attrs = append(attrs, xesAttr{
					XMLName: xml.Name{Local: "int"},
					Key:     "out:" + strconv.Itoa(i),
					Value:   strconv.Itoa(v),
				})
			}
			tr.Events = append(tr.Events, xesEvent{Attrs: attrs})
		}
		doc.Traces = append(doc.Traces, tr)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("wlog: encoding XES: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

func xesTransition(t EventType) string {
	if t == Start {
		return "start"
	}
	return "complete"
}

// ReadXES decodes an XES document into a log. Traces without a concept:name
// get synthetic IDs trace1, trace2, ...; events missing a lifecycle
// transition are treated as instantaneous (a complete implicitly preceded by
// a start at the same instant minus one nanosecond), which matches how many
// XES exporters record atomic activities. Per-event errors carry the trace
// ID, the event's position within the trace, and the global record number.
func ReadXES(r io.Reader) (*Log, error) {
	l, _, err := ReadXESWith(r, IngestOptions{}, nil)
	return l, err
}

// ReadXESWith decodes an XES document under a recovery policy: events with
// bad timestamps, bad output attributes, or missing mandatory attributes are
// counted in the report and skipped, and the assembly of traces into
// executions runs through AssembleWith, so structurally damaged traces are
// skipped or quarantined per the policy. A document that does not parse as
// XML at all is always fatal.
func ReadXESWith(r io.Reader, opts IngestOptions, rep *IngestReport) (*Log, *IngestReport, error) {
	rep = ensureReport(rep, opts)
	var doc xesLog
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, rep, fmt.Errorf("wlog: decoding XES: %w", err)
	}
	var events []Event
	recno := 0 // global event ordinal across traces
	for ti, tr := range doc.Traces {
		id := ""
		for _, a := range tr.Attrs {
			if a.Key == "concept:name" {
				id = a.Value
			}
		}
		if id == "" {
			id = "trace" + strconv.Itoa(ti+1)
		}
		for ei, ev := range tr.Events {
			recno++
			rep.RecordsRead++
			var (
				activity   string
				transition string
				ts         time.Time
				output     Output
				outIdx     []int
				outVal     = map[int]int{}
				decodeErr  error
			)
			for _, a := range ev.Attrs {
				switch {
				case a.Key == "concept:name":
					activity = a.Value
				case a.Key == "lifecycle:transition":
					transition = strings.ToLower(a.Value)
				case a.Key == "time:timestamp":
					t, err := time.Parse(time.RFC3339Nano, a.Value)
					if err != nil {
						decodeErr = fmt.Errorf("trace %q event %d: bad timestamp %q: %w", id, ei, a.Value, err)
					}
					ts = t
				case strings.HasPrefix(a.Key, "out:"):
					i, err := strconv.Atoi(strings.TrimPrefix(a.Key, "out:"))
					if err != nil {
						decodeErr = fmt.Errorf("trace %q event %d: bad output key %q", id, ei, a.Key)
						continue
					}
					v, err := strconv.Atoi(a.Value)
					if err != nil {
						decodeErr = fmt.Errorf("trace %q event %d: bad output value %q", id, ei, a.Value)
						continue
					}
					outIdx = append(outIdx, i)
					outVal[i] = v
				}
				if decodeErr != nil {
					break
				}
			}
			if decodeErr == nil && activity == "" {
				decodeErr = fmt.Errorf("trace %q event %d: missing concept:name", id, ei)
			}
			if decodeErr == nil && ts.IsZero() {
				decodeErr = fmt.Errorf("trace %q event %d: missing time:timestamp", id, ei)
			}
			if decodeErr != nil {
				if !opts.lenient() {
					return nil, rep, fmt.Errorf("wlog: record %d: %w", recno, decodeErr)
				}
				e := IngestError{Class: ClassSyntax, Record: recno, Execution: id, Err: decodeErr}
				if err := handleBadRecord(opts, rep, e); err != nil {
					return nil, rep, err
				}
				if opts.Policy == Quarantine {
					// A garbled event taints its whole trace.
					rep.quarantine(id)
				}
				continue
			}
			rep.EventsDecoded++
			if len(outIdx) > 0 {
				sort.Ints(outIdx)
				width := outIdx[len(outIdx)-1] + 1
				output = make(Output, width)
				for i, v := range outVal {
					output[i] = v
				}
			}
			switch transition {
			case "start":
				events = append(events, Event{ProcessID: id, Activity: activity, Type: Start, Time: ts})
			case "complete":
				events = append(events, Event{ProcessID: id, Activity: activity, Type: End, Time: ts, Output: output})
			case "":
				// Atomic event: synthesize the start a nanosecond earlier.
				events = append(events,
					Event{ProcessID: id, Activity: activity, Type: Start, Time: ts.Add(-time.Nanosecond)},
					Event{ProcessID: id, Activity: activity, Type: End, Time: ts, Output: output})
			default:
				// Other lifecycle transitions (schedule, suspend, ...) do
				// not affect the control-flow intervals; skip them.
			}
		}
	}
	// Events of a trace quarantined above are swallowed, and counted as
	// skipped, when the stream sees them.
	return AssembleWith(events, opts, rep)
}

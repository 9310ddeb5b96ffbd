// Package wlog implements the workflow-log substrate: the event-record model
// of Definition 2 in Agrawal, Gunopulos & Leymann (EDBT 1998), grouping of
// events into process executions, and text/CSV/JSON codecs compatible with a
// Flowmark-style audit trail.
//
// A log is a list of event records (P, A, E, T, O): P names the process
// execution, A the activity, E is START or END, T is the event time, and O is
// the activity's output vector (present on END events). Executions are
// reconstructed by grouping records by P and pairing START/END events per
// activity instance in time order.
package wlog

import (
	"fmt"
	"strconv"
	"time"
)

// EventType distinguishes activity start and termination records.
type EventType int

const (
	// Start marks the beginning of an activity instance.
	Start EventType = iota
	// End marks the termination of an activity instance; End events carry
	// the activity's output vector.
	End
)

// String returns "START" or "END" as written in the log.
func (t EventType) String() string {
	switch t {
	case Start:
		return "START"
	case End:
		return "END"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// ParseEventType parses "START" or "END".
func ParseEventType(s string) (EventType, error) {
	switch s {
	case "START":
		return Start, nil
	case "END":
		return End, nil
	default:
		return 0, fmt.Errorf("wlog: invalid event type %q", s)
	}
}

// Output is an activity's output vector o(A) ∈ N^k. A nil Output on a START
// event corresponds to the paper's "null vector".
type Output []int

// Clone returns an independent copy of the vector.
func (o Output) Clone() Output {
	if o == nil {
		return nil
	}
	c := make(Output, len(o))
	copy(c, o)
	return c
}

// Equal reports whether two output vectors are identical.
func (o Output) Equal(other Output) bool {
	if len(o) != len(other) {
		return false
	}
	for i := range o {
		if o[i] != other[i] {
			return false
		}
	}
	return true
}

// Event is one record (P, A, E, T, O) of the workflow log.
type Event struct {
	// ProcessID names the process execution this record belongs to.
	ProcessID string
	// Activity is the activity name.
	Activity string
	// Type is START or END.
	Type EventType
	// Time is when the event occurred.
	Time time.Time
	// Output is o(Activity) for END events and nil for START events.
	Output Output
}

// String renders the event in the canonical text-log form.
func (e Event) String() string {
	return string(e.appendText(make([]byte, 0, len(e.ProcessID)+len(e.Activity)+32+8*len(e.Output))))
}

// appendText appends the event's text-log line, without its newline, to b.
func (e Event) appendText(b []byte) []byte {
	b = append(b, e.ProcessID...)
	b = append(b, ' ')
	b = append(b, e.Activity...)
	b = append(b, ' ')
	b = append(b, e.Type.String()...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.Time.UnixNano(), 10)
	for _, v := range e.Output {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

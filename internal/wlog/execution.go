package wlog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Step is one activity instance within an execution: the paired START/END
// events plus the output recorded at END.
type Step struct {
	// Activity is the activity name.
	Activity string
	// Start and End bound the activity instance in time.
	Start, End time.Time
	// Output is the activity's output vector, recorded on the END event.
	Output Output
}

// Overlaps reports whether the two steps overlap in time. Per Section 2 of
// the paper, overlapping activities are necessarily independent, so a
// "terminates before" relation never holds between them.
func (s Step) Overlaps(other Step) bool {
	return s.Start.Before(other.End) && other.Start.Before(s.End)
}

// Before reports whether s terminates strictly before other starts — the
// relation from which followings (Definition 3) are computed.
func (s Step) Before(other Step) bool {
	return s.End.Before(other.Start)
}

// Execution is one recorded execution of a process: its identifier plus the
// activity instances in start-time order.
type Execution struct {
	// ID is the process-execution name P from the event records.
	ID string
	// Steps are the activity instances sorted by start time.
	Steps []Step
}

// Activities returns the activity names in start-time order (with
// repetitions, for cyclic processes). Under the paper's instantaneous-
// activities simplification this is the execution "string", e.g. "ABCE".
func (e Execution) Activities() []string {
	out := make([]string, len(e.Steps))
	for i, s := range e.Steps {
		out[i] = s.Activity
	}
	return out
}

// ActivitySet returns the distinct activity names in the execution, sorted.
func (e Execution) ActivitySet() []string {
	set := map[string]bool{}
	for _, s := range e.Steps {
		set[s.Activity] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// String joins the activity names with no separator when all names are a
// single character (matching the paper's "ABCE" notation) and with ","
// otherwise.
func (e Execution) String() string {
	names := e.Activities()
	single := true
	for _, n := range names {
		if len(n) != 1 {
			single = false
			break
		}
	}
	if single {
		return strings.Join(names, "")
	}
	return strings.Join(names, ",")
}

// First returns the first activity name, or "" for an empty execution.
func (e Execution) First() string {
	if len(e.Steps) == 0 {
		return ""
	}
	return e.Steps[0].Activity
}

// Last returns the last-starting activity name, or "" for an empty execution.
func (e Execution) Last() string {
	if len(e.Steps) == 0 {
		return ""
	}
	return e.Steps[len(e.Steps)-1].Activity
}

// Events expands the execution back into its START/END event records,
// sorted by time.
func (e Execution) Events() []Event {
	out := make([]Event, 0, 2*len(e.Steps))
	for _, s := range e.Steps {
		out = append(out, Event{ProcessID: e.ID, Activity: s.Activity, Type: Start, Time: s.Start})
		out = append(out, Event{ProcessID: e.ID, Activity: s.Activity, Type: End, Time: s.End, Output: s.Output.Clone()})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// Log is a set of executions of the same process.
//
// Log contains a lazily built cache of its columnar view (see Columnar), so
// it must not be copied by value after first use; pass *Log, as every
// method already does.
type Log struct {
	// Executions in no particular order; each has a unique ID.
	Executions []Execution

	// colMu guards col, the cached columnar view.
	colMu sync.Mutex
	col   *Columnar
}

// Columnar returns the columnar view of the log, building it on first use
// and caching it for every later mining call. The cache is invalidated by
// shape: appending or removing executions (or steps) triggers a rebuild on
// the next call. Mutating steps in place without changing counts is not
// detected; rebuild with BuildColumnar explicitly after such edits.
func (l *Log) Columnar() *Columnar {
	steps := 0
	for i := range l.Executions {
		steps += len(l.Executions[i].Steps)
	}
	l.colMu.Lock()
	defer l.colMu.Unlock()
	if l.col != nil && l.col.NumExecutions() == len(l.Executions) && l.col.NumSteps() == steps {
		return l.col
	}
	l.col = BuildColumnar(l)
	return l.col
}

// Len returns the number of executions (the paper's m).
func (l *Log) Len() int { return len(l.Executions) }

// Activities returns the distinct activity names across all executions,
// sorted (the paper's V, instantiated while scanning the log).
func (l *Log) Activities() []string {
	set := map[string]bool{}
	for _, e := range l.Executions {
		for _, s := range e.Steps {
			set[s.Activity] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Events flattens the whole log into event records sorted by time then
// process ID, as an audit trail would record them.
func (l *Log) Events() []Event {
	var out []Event
	for _, e := range l.Executions {
		out = append(out, e.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].ProcessID < out[j].ProcessID
	})
	return out
}

// baseTime anchors synthetic timestamps produced by the sequence helpers.
func baseTime() time.Time {
	return time.Date(1998, time.January, 22, 0, 0, 0, 0, time.UTC)
}

// FromSequence builds an instantaneous-activity execution from an ordered
// list of activity names: step i starts at base+2i and ends at base+2i+1
// (units of one millisecond), so no two steps overlap and order is total.
func FromSequence(id string, activities ...string) Execution {
	base := baseTime()
	steps := make([]Step, len(activities))
	for i, a := range activities {
		steps[i] = Step{
			Activity: a,
			Start:    base.Add(time.Duration(2*i) * time.Millisecond),
			End:      base.Add(time.Duration(2*i+1) * time.Millisecond),
		}
	}
	return Execution{ID: id, Steps: steps}
}

// FromString builds an execution from single-character activity names, so
// FromString("x1", "ABCE") reproduces the paper's example notation.
func FromString(id, s string) Execution {
	names := make([]string, 0, len(s))
	for _, r := range s {
		names = append(names, string(r))
	}
	return FromSequence(id, names...)
}

// LogFromStrings builds a log from the paper's string notation; execution
// IDs are x1, x2, ...
func LogFromStrings(seqs ...string) *Log {
	l := &Log{}
	for i, s := range seqs {
		l.Executions = append(l.Executions, FromString(fmt.Sprintf("x%d", i+1), s))
	}
	return l
}

// Assemble groups raw event records into executions: it is AssembleWith
// under FailFast, so it returns an error when an END has no matching START
// or a START never terminates.
func Assemble(events []Event) (*Log, error) {
	l, _, err := AssembleWith(events, IngestOptions{}, nil)
	return l, err
}

package wlog

import (
	"errors"
	"fmt"
)

// Validation errors returned (wrapped) by Validate.
var (
	// ErrEmptyExecution flags an execution with no steps.
	ErrEmptyExecution = errors.New("wlog: empty execution")
	// ErrNegativeDuration flags a step whose END precedes its START.
	ErrNegativeDuration = errors.New("wlog: step ends before it starts")
	// ErrDuplicateID flags two executions sharing an ID.
	ErrDuplicateID = errors.New("wlog: duplicate execution ID")
	// ErrUnordered flags steps not sorted by start time.
	ErrUnordered = errors.New("wlog: steps not in start-time order")
)

// Validate checks structural invariants of the log: non-empty executions,
// unique execution IDs, non-negative step durations, and steps in start-time
// order. It returns the first violation found, wrapped with context.
func (l *Log) Validate() error {
	seen := make(map[string]bool, len(l.Executions))
	for _, e := range l.Executions {
		if seen[e.ID] {
			return fmt.Errorf("%w: %q", ErrDuplicateID, e.ID)
		}
		seen[e.ID] = true
		if len(e.Steps) == 0 {
			return fmt.Errorf("%w: %q", ErrEmptyExecution, e.ID)
		}
		for i, s := range e.Steps {
			if s.End.Before(s.Start) {
				return fmt.Errorf("%w: execution %q step %d (%s)", ErrNegativeDuration, e.ID, i, s.Activity)
			}
			if i > 0 && s.Start.Before(e.Steps[i-1].Start) {
				return fmt.Errorf("%w: execution %q step %d (%s)", ErrUnordered, e.ID, i, s.Activity)
			}
		}
	}
	return nil
}

// Stats summarizes a log for reporting (Table 3 reports executions and log
// sizes; the experiment harness uses these numbers).
type Stats struct {
	// Executions is the number of recorded executions (the paper's m).
	Executions int
	// Activities is the number of distinct activities (the paper's n).
	Activities int
	// Events is the total number of START/END records.
	Events int
	// MinLen, MaxLen, MeanLen describe execution lengths in steps.
	MinLen, MaxLen int
	MeanLen        float64
}

// ComputeStats scans the log once and returns its summary statistics.
func (l *Log) ComputeStats() Stats {
	st := Stats{Executions: len(l.Executions)}
	set := map[string]bool{}
	total := 0
	for i, e := range l.Executions {
		n := len(e.Steps)
		total += n
		st.Events += 2 * n
		if i == 0 || n < st.MinLen {
			st.MinLen = n
		}
		if n > st.MaxLen {
			st.MaxLen = n
		}
		for _, s := range e.Steps {
			set[s.Activity] = true
		}
	}
	st.Activities = len(set)
	if st.Executions > 0 {
		st.MeanLen = float64(total) / float64(st.Executions)
	}
	return st
}

package wlog

import (
	"fmt"
	"time"
)

// Stream handoff: the serving layer checkpoints an ExecutionStream's
// in-flight (open) executions alongside the miner state, so a restart can
// resume partially observed executions instead of dropping their events.
// The open set is exported in a deterministic, JSON-serializable form and
// restored into a fresh stream; relative staleness (the eviction order of
// the MaxOpenExecutions watermark) survives the round trip.

// OpenStep is one step of an in-flight execution: EndNS is zero while the
// step's END event has not arrived.
type OpenStep struct {
	Activity string `json:"activity"`
	StartNS  int64  `json:"start_unix_nanos"`
	EndNS    int64  `json:"end_unix_nanos,omitempty"`
	Output   []int  `json:"output,omitempty"`
}

// OpenExecution is the serializable state of one open execution of an
// ExecutionStream. LastSeq preserves the stream's staleness order across a
// snapshot/restore cycle.
type OpenExecution struct {
	ID      string     `json:"id"`
	Steps   []OpenStep `json:"steps"`
	LastSeq int        `json:"last_seq"`
}

// IsOpen reports whether the stream currently holds an open execution with
// the given ID. The serving layer uses it for admission control: an event
// for a new execution needs an open slot, an event for an already-open one
// does not.
func (s *ExecutionStream) IsOpen(id string) bool {
	_, ok := s.open[id]
	return ok
}

// SetPolicy switches the stream's recovery policy in place. The serving
// layer's circuit breakers use it to degrade a misbehaving shard to Skip
// without discarding the stream's open executions, and to restore the
// configured policy when the breaker resets.
func (s *ExecutionStream) SetPolicy(p Policy) { s.opts.Policy = p }

// Policy returns the stream's current recovery policy.
func (s *ExecutionStream) Policy() Policy { return s.opts.Policy }

// SnapshotOpen exports the stream's open executions, sorted by ID. The
// result shares no memory with the stream.
func (s *ExecutionStream) SnapshotOpen() []OpenExecution {
	ids := s.openIDs(nil)
	out := make([]OpenExecution, 0, len(ids))
	for _, id := range ids {
		se := s.open[id]
		oe := OpenExecution{ID: id, LastSeq: se.lastSeq, Steps: make([]OpenStep, len(se.steps))}
		for i, st := range se.steps {
			os := OpenStep{Activity: st.Activity, StartNS: st.Start.UnixNano()}
			if !st.End.IsZero() {
				os.EndNS = st.End.UnixNano()
			}
			if st.Output != nil {
				os.Output = append([]int(nil), st.Output...)
			}
			oe.Steps[i] = os
		}
		out = append(out, oe)
	}
	return out
}

// RestoreOpen re-opens executions exported by SnapshotOpen. It fails if an
// execution is already open under the same ID (a snapshot must be restored
// into a stream that does not already hold its executions). The stream's
// Push sequence counter advances past every restored LastSeq so staleness
// comparisons with future events stay consistent.
func (s *ExecutionStream) RestoreOpen(opens []OpenExecution) error {
	for _, oe := range opens {
		if _, ok := s.open[oe.ID]; ok {
			return fmt.Errorf("wlog: stream: restore: execution %q is already open", oe.ID)
		}
		se := &streamExec{lastSeq: oe.LastSeq}
		for _, os := range oe.Steps {
			st := Step{Activity: os.Activity, Start: time.Unix(0, os.StartNS).UTC()}
			if os.EndNS != 0 {
				st.End = time.Unix(0, os.EndNS).UTC()
				st.Output = append([]int(nil), os.Output...)
			}
			se.steps = append(se.steps, st)
		}
		se.advance()
		s.open[oe.ID] = se
		if oe.LastSeq > s.seq {
			s.seq = oe.LastSeq
		}
	}
	return nil
}

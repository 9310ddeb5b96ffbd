package wlog

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// This file implements fault-tolerant ingestion. The paper assumes the
// Flowmark audit trail is well-formed and handles only semantic noise
// (Section 6); real trails also carry *structural* damage — garbage lines,
// unmatched ENDs, truncated tails. Recovery policies let the decoders and
// the assembler absorb such damage record by record, producing an
// IngestReport instead of dying on the first bad record.

// Policy selects how ingestion reacts to a bad record.
type Policy int

const (
	// FailFast aborts on the first bad record — the paper's well-formed-log
	// assumption, and the default (zero value), so existing behavior is
	// unchanged.
	FailFast Policy = iota
	// Skip drops the offending record (or, for structural damage discovered
	// at assembly, the offending step) and keeps everything else. The
	// surviving executions may be partial, which Algorithm 2 tolerates.
	Skip
	// Quarantine sets aside *whole* executions touched by a bad event, so
	// every execution that reaches the miner is internally conformal.
	Quarantine
)

// String names the policy as accepted by the CLI.
func (p Policy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case Skip:
		return "skip"
	case Quarantine:
		return "quarantine"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ErrorClass buckets ingestion errors for the report.
type ErrorClass string

const (
	// ClassSyntax marks records that could not be decoded at all: garbage
	// lines, bad timestamps, unknown event types.
	ClassSyntax ErrorClass = "syntax"
	// ClassStructure marks well-formed records that violate the execution
	// structure: END without a matching START, STARTs that never terminate.
	ClassStructure ErrorClass = "structure"
	// ClassLimit marks executions evicted by a resource watermark
	// (MaxOpenExecutions, MaxStepsPerExecution) or an error budget.
	ClassLimit ErrorClass = "limit"
)

// IngestOptions configures fault-tolerant ingestion. The zero value is
// FailFast with no limits — byte-for-byte the pre-existing behavior.
type IngestOptions struct {
	// Policy selects the recovery policy.
	Policy Policy

	// MaxErrors aborts ingestion (with ErrTooManyErrors) once more than
	// this many records have been skipped or quarantined, so a lenient
	// policy cannot silently eat an entirely-garbage input. 0 = unlimited.
	MaxErrors int

	// MaxSampleErrors bounds the per-error samples kept in the report
	// (counts are always exact). 0 means DefaultMaxSampleErrors.
	MaxSampleErrors int

	// MaxOpenExecutions bounds how many incomplete executions an
	// ExecutionStream keeps in memory; a START for a new execution beyond
	// the watermark evicts the stalest open execution to quarantine
	// (FailFast: returns ErrTooManyOpenExecutions instead). 0 = unlimited.
	// AssembleWith holds one execution open at a time, so it never binds
	// there.
	MaxOpenExecutions int

	// MaxStepsPerExecution bounds the steps of a single execution; an
	// execution growing past the watermark is quarantined whole (FailFast:
	// ErrExecutionTooLong). 0 = unlimited.
	MaxStepsPerExecution int
}

// DefaultMaxSampleErrors is the sample-error cap used when
// IngestOptions.MaxSampleErrors is zero.
const DefaultMaxSampleErrors = 10

// lenient reports whether the policy tolerates bad records.
func (o IngestOptions) lenient() bool { return o.Policy == Skip || o.Policy == Quarantine }

// Typed ingestion errors; all are returned wrapped with context.
var (
	// ErrTooManyErrors aborts lenient ingestion when IngestOptions.MaxErrors
	// is exceeded.
	ErrTooManyErrors = errors.New("wlog: too many bad records")
	// ErrTooManyOpenExecutions is returned under FailFast when an
	// ExecutionStream hits the MaxOpenExecutions watermark.
	ErrTooManyOpenExecutions = errors.New("wlog: too many open executions")
	// ErrExecutionTooLong is returned under FailFast when one execution
	// exceeds MaxStepsPerExecution steps.
	ErrExecutionTooLong = errors.New("wlog: execution exceeds step limit")
	// ErrEndWithoutStart marks an END event with no open START to pair with.
	ErrEndWithoutStart = errors.New("wlog: END without START")
	// ErrUnterminatedStart marks a START whose END never arrived.
	ErrUnterminatedStart = errors.New("wlog: START never terminated")
)

// IngestError is one recorded ingestion failure.
type IngestError struct {
	// Class buckets the error.
	Class ErrorClass
	// Record is the 1-based line (text codec) or record (CSV/JSON/XES data
	// record) number, 0 when unknown (e.g. assembly-time errors).
	Record int
	// Execution is the affected execution ID, "" when unknown.
	Execution string
	// Err is the underlying error.
	Err error
}

// Error formats the failure with its position and execution context.
func (e IngestError) Error() string {
	var b strings.Builder
	if e.Record > 0 {
		fmt.Fprintf(&b, "record %d: ", e.Record)
	}
	if e.Execution != "" {
		fmt.Fprintf(&b, "execution %q: ", e.Execution)
	}
	b.WriteString(e.Err.Error())
	return b.String()
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e IngestError) Unwrap() error { return e.Err }

// IngestReport accumulates what fault-tolerant ingestion saw: exact counts
// per error class, the set of quarantined executions, and the first few
// sample errors with positions. One report can span the whole pipeline
// (decode + assembly), so ReadLogWith threads a single report through both.
type IngestReport struct {
	// RecordsRead counts input records seen, good or bad (text: non-blank
	// non-comment lines; CSV: data rows; JSON/XES: event elements).
	RecordsRead int
	// EventsDecoded counts records successfully decoded into events.
	EventsDecoded int
	// RecordsSkipped counts records dropped under Skip/Quarantine (bad
	// records, plus events discarded because their execution is quarantined).
	RecordsSkipped int
	// StepsDropped counts assembled steps discarded under Skip (unterminated
	// STARTs).
	StepsDropped int
	// ExecutionsQuarantined counts executions set aside whole.
	ExecutionsQuarantined int
	// QuarantinedIDs lists the quarantined execution IDs, sorted.
	QuarantinedIDs []string
	// Errors holds exact error counts by class.
	Errors map[ErrorClass]int
	// Samples holds the first MaxSampleErrors errors with positions.
	Samples []IngestError

	maxSamples  int
	quarantined map[string]bool
}

// NewIngestReport returns an empty report honoring the options' sample cap.
func NewIngestReport(opts IngestOptions) *IngestReport {
	max := opts.MaxSampleErrors
	if max <= 0 {
		max = DefaultMaxSampleErrors
	}
	return &IngestReport{
		Errors:      map[ErrorClass]int{},
		maxSamples:  max,
		quarantined: map[string]bool{},
	}
}

// ensureReport lets internal pipelines run without a caller-provided report.
func ensureReport(rep *IngestReport, opts IngestOptions) *IngestReport {
	if rep == nil {
		return NewIngestReport(opts)
	}
	if rep.Errors == nil {
		rep.Errors = map[ErrorClass]int{}
	}
	if rep.quarantined == nil {
		rep.quarantined = map[string]bool{}
	}
	if rep.maxSamples <= 0 {
		if rep.maxSamples = opts.MaxSampleErrors; rep.maxSamples <= 0 {
			rep.maxSamples = DefaultMaxSampleErrors
		}
	}
	return rep
}

// TotalErrors returns the number of recorded errors across all classes.
func (r *IngestReport) TotalErrors() int {
	n := 0
	for _, c := range r.Errors {
		n += c
	}
	return n
}

// record counts one error and keeps it as a sample if below the cap.
func (r *IngestReport) record(e IngestError) {
	r.Errors[e.Class]++
	if len(r.Samples) < r.maxSamples {
		r.Samples = append(r.Samples, e)
	}
}

// checkBudget returns ErrTooManyErrors, with the counts, once the report
// holds more errors than opts.MaxErrors allows.
func (r *IngestReport) checkBudget(opts IngestOptions) error {
	if opts.MaxErrors > 0 && r.TotalErrors() > opts.MaxErrors {
		return fmt.Errorf("%w: %d errors exceed MaxErrors=%d", ErrTooManyErrors, r.TotalErrors(), opts.MaxErrors)
	}
	return nil
}

// quarantine marks an execution as set aside (idempotent).
func (r *IngestReport) quarantine(id string) {
	if r.quarantined[id] {
		return
	}
	r.quarantined[id] = true
	r.ExecutionsQuarantined++
	r.QuarantinedIDs = append(r.QuarantinedIDs, id)
	sort.Strings(r.QuarantinedIDs)
}

// isQuarantined reports whether the execution was already set aside.
func (r *IngestReport) isQuarantined(id string) bool { return r.quarantined[id] }

// Clean reports whether ingestion saw no errors at all.
func (r *IngestReport) Clean() bool { return r.TotalErrors() == 0 }

// Summary renders a one-line digest, e.g.
// "1000 records: 980 events, 12 skipped, 2 executions quarantined (errors: structure 8, syntax 4)".
func (r *IngestReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d records: %d events", r.RecordsRead, r.EventsDecoded)
	if r.RecordsSkipped > 0 {
		fmt.Fprintf(&b, ", %d skipped", r.RecordsSkipped)
	}
	if r.StepsDropped > 0 {
		fmt.Fprintf(&b, ", %d steps dropped", r.StepsDropped)
	}
	if r.ExecutionsQuarantined > 0 {
		fmt.Fprintf(&b, ", %d executions quarantined", r.ExecutionsQuarantined)
	}
	if !r.Clean() {
		classes := make([]string, 0, len(r.Errors))
		for c := range r.Errors {
			classes = append(classes, string(c))
		}
		sort.Strings(classes)
		parts := make([]string, len(classes))
		for i, c := range classes {
			parts[i] = fmt.Sprintf("%s %d", c, r.Errors[ErrorClass(c)])
		}
		fmt.Fprintf(&b, " (errors: %s)", strings.Join(parts, ", "))
	}
	return b.String()
}

// WriteReport renders the full report including sample errors and the
// quarantined execution IDs.
func (r *IngestReport) WriteReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "ingest: %s\n", r.Summary()); err != nil {
		return err
	}
	for _, s := range r.Samples {
		if _, err := fmt.Fprintf(w, "ingest:   [%s] %s\n", s.Class, s.Error()); err != nil {
			return err
		}
	}
	if n := r.TotalErrors() - len(r.Samples); n > 0 {
		if _, err := fmt.Fprintf(w, "ingest:   ... and %d more errors\n", n); err != nil {
			return err
		}
	}
	if len(r.QuarantinedIDs) > 0 {
		if _, err := fmt.Fprintf(w, "ingest: quarantined: %s\n", strings.Join(r.QuarantinedIDs, ", ")); err != nil {
			return err
		}
	}
	return nil
}

// handleBadRecord applies the policy to a decode-time error: FailFast
// returns it, lenient policies record and absorb it (or abort when the error
// budget is exhausted). The returned error, if any, ends the scan.
func handleBadRecord(opts IngestOptions, rep *IngestReport, e IngestError) error {
	if !opts.lenient() {
		return fmt.Errorf("wlog: %s: %w", e.Class, e)
	}
	rep.record(e)
	rep.RecordsSkipped++
	return rep.checkBudget(opts)
}

// AssembleWith groups raw event records into executions under a recovery
// policy, accumulating into rep (which may be nil). Records are bucketed by
// ProcessID in sorted order and each bucket, stable-sorted by time, is pushed
// through one ExecutionStream sharing opts and rep; the execution settles as
// soon as its bucket ends, so the log lists executions in ID order with
// their steps in start-time order, and only one execution is open at a time
// (MaxOpenExecutions cannot bind). Faults follow the stream's rules: under
// FailFast the first one is returned; under Skip an END without a START is
// dropped and a START that never ends loses just that step; under
// Quarantine the first fault sets the execution aside whole, and its later
// records count as skipped. An execution longer than MaxStepsPerExecution is
// quarantined (FailFast: ErrExecutionTooLong). Executions left with no steps
// are not emitted.
func AssembleWith(events []Event, opts IngestOptions, rep *IngestReport) (*Log, *IngestReport, error) {
	log := &Log{}
	s := NewExecutionStreamWith(opts, rep, func(e Execution) error {
		log.Executions = append(log.Executions, e)
		return nil
	})
	ids, order, start := bucketByProcess(events)
	byTime := func(a, b int) int { return events[a].Time.Compare(events[b].Time) }
	for k, id := range ids {
		bucket := order[start[k]:start[k+1]]
		if !slices.IsSortedFunc(bucket, byTime) {
			slices.SortStableFunc(bucket, byTime)
		}
		s.stepsHint = (len(bucket) + 1) / 2
		for _, i := range bucket {
			if err := s.Push(events[i]); err != nil {
				return nil, s.rep, err
			}
		}
		if err := s.settle(id); err != nil {
			return nil, s.rep, err
		}
	}
	return log, s.rep, nil
}

// bucketByProcess counting-sorts the indices of events by process ID. It
// returns the distinct IDs in sorted order and the indices of the events
// of ids[k] as order[start[k]:start[k+1]], in input order, so no event is
// copied. Each event costs one map lookup, which finds its ID's index in
// order of first appearance; once the IDs are sorted, that index maps to
// the ID's rank.
func bucketByProcess(events []Event) (ids []string, order, start []int) {
	first := map[string]int{}      // ID -> its index in order of first appearance
	of := make([]int, len(events)) // events[i]'s ID by that index, then by rank
	for i := range events {
		id := events[i].ProcessID
		k, ok := first[id]
		if !ok {
			k = len(ids)
			first[id] = k
			ids = append(ids, id)
		}
		of[i] = k
	}
	slices.Sort(ids)
	rank := make([]int, len(ids)) // first-appearance index -> rank in ids
	for r, id := range ids {
		rank[first[id]] = r
	}
	start = make([]int, len(ids)+1)
	for i, k := range of {
		of[i] = rank[k]
		start[of[i]+1]++
	}
	for k := range ids {
		start[k+1] += start[k]
	}
	next := slices.Clone(start[:len(ids)])
	order = make([]int, len(events))
	for i, k := range of {
		order[next[k]] = i
		next[k]++
	}
	return ids, order, start
}

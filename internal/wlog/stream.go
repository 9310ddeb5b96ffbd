package wlog

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// StreamText reads the text-log format one event at a time, calling fn for
// each record without materializing the whole log — the entry point for
// feeding very large or live audit trails into an IncrementalMiner.
// Returning a non-nil error from fn stops the scan and propagates the error.
func StreamText(r io.Reader, fn func(Event) error) error {
	_, err := StreamTextWith(r, IngestOptions{}, nil, fn)
	return err
}

// StreamTextWith is StreamText under a recovery policy: unparseable lines
// are dropped (and counted in rep, which may be nil) instead of aborting the
// scan. Under FailFast it behaves exactly like StreamText. A non-nil error
// from fn always stops the scan regardless of policy.
func StreamTextWith(r io.Reader, opts IngestOptions, rep *IngestReport, fn func(Event) error) (*IngestReport, error) {
	rep = ensureReport(rep, opts)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	d := textDecoder{names: map[string]string{}}
	lineno := 0
	for sc.Scan() {
		lineno++
		if !d.split(sc.Bytes()) {
			continue
		}
		rep.RecordsRead++
		ev, err := d.event()
		if err != nil {
			if !opts.lenient() {
				return rep, fmt.Errorf("wlog: line %d: %w", lineno, err)
			}
			if err := handleBadRecord(opts, rep, IngestError{Class: ClassSyntax, Record: lineno, Err: err}); err != nil {
				return rep, err
			}
			continue
		}
		rep.EventsDecoded++
		if err := fn(ev); err != nil {
			return rep, err
		}
	}
	if err := sc.Err(); err != nil {
		return rep, fmt.Errorf("wlog: scanning: %w", err)
	}
	return rep, nil
}

// maxTextNames caps a textDecoder's name table; a full table is emptied
// before the next name goes in, so a long trail cannot grow it.
const maxTextNames = 1 << 16

// textDecoder decodes text-codec lines in place, from the scanner's bytes.
// Each line is cut into fields and parsed without building a string per
// line or per number; process IDs and activities are shared through names,
// one string per distinct name, so the events of a trail do not each
// carry their own copies.
type textDecoder struct {
	line   []byte
	fields []span            // the current line's fields
	names  map[string]string // name table, at most maxTextNames entries
}

// span is one field of the current line, line[lo:hi]. Offsets rather than
// slices keep pointers, and so GC write barriers, out of the per-field
// bookkeeping.
type span struct{ lo, hi int }

// field returns the k-th field of the current line.
func (d *textDecoder) field(k int) []byte { return d.line[d.fields[k].lo:d.fields[k].hi] }

// split cuts line into fields exactly where strings.Fields would: at ASCII
// whitespace, and at every non-ASCII rune unicode.IsSpace accepts (invalid
// UTF-8 decodes as utf8.RuneError, which is not a space). It reports false
// for a blank line and for a comment, whose first field starts with '#'.
func (d *textDecoder) split(line []byte) bool {
	d.line, d.fields = line, d.fields[:0]
	lo := -1 // start of the field being read, -1 between fields
	for i := 0; i < len(line); {
		if printable(line[i]) {
			// By far the commonest case: a run of a field's ASCII bytes.
			if lo < 0 {
				lo = i
			}
			for i++; i < len(line) && printable(line[i]); i++ {
			}
			continue
		}
		c, size, space := line[i], 1, false
		if c < utf8.RuneSelf {
			space = asciiSpaces>>c&1 != 0
		} else {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && lo >= 0:
			d.fields = append(d.fields, span{lo, i})
			lo = -1
		case !space && lo < 0:
			lo = i
		}
		i += size
	}
	if lo >= 0 {
		d.fields = append(d.fields, span{lo, len(line)})
	}
	return len(d.fields) > 0 && line[d.fields[0].lo] != '#'
}

// printable reports whether c is ASCII and neither a space nor a control
// byte, so it always belongs to a field.
func printable(c byte) bool { return c-'!' < utf8.RuneSelf-'!' }

// asciiSpaces has bit c set for each byte c below '!' that strings.Fields
// splits at.
const asciiSpaces uint64 = 1<<'\t' | 1<<'\n' | 1<<'\v' | 1<<'\f' | 1<<'\r' | 1<<' '

// event decodes the fields of the current line:
//
//	<process> <activity> START|END <unix-nanos> [<out0> <out1> ...]
//
// Checks run in field order, and every error reads as strconv's and
// ParseEventType's own, because on any input the fast paths do not accept
// those functions judge it.
func (d *textDecoder) event() (Event, error) {
	if len(d.fields) < 4 {
		return Event{}, fmt.Errorf("need at least 4 fields, got %d", len(d.fields))
	}
	var typ EventType
	switch f := d.field(2); {
	case string(f) == "START":
		typ = Start
	case string(f) == "END":
		typ = End
	default:
		var err error
		if typ, err = ParseEventType(string(f)); err != nil {
			return Event{}, err
		}
	}
	f := d.field(3)
	ns, ok := parseDigits(f)
	if !ok {
		v, err := strconv.ParseInt(string(f), 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("bad timestamp %q: %w", f, err)
		}
		ns = v
	}
	var out Output
	if len(d.fields) > 4 {
		out = make(Output, len(d.fields)-4)
		for i := range out {
			f := d.field(4 + i)
			// Where int is 32 bits, Atoi judges what overflows it.
			v, ok := parseDigits(f)
			if ok && int64(int(v)) == v {
				out[i] = int(v)
				continue
			}
			x, err := strconv.Atoi(string(f))
			if err != nil {
				return Event{}, fmt.Errorf("bad output value %q: %w", f, err)
			}
			out[i] = x
		}
	}
	return Event{
		ProcessID: d.name(d.field(0)),
		Activity:  d.name(d.field(1)),
		Type:      typ,
		Time:      time.Unix(0, ns).UTC(),
		Output:    out,
	}, nil
}

// name returns the shared string for b, adding it to the name table.
func (d *textDecoder) name(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	if len(d.names) == maxTextNames {
		clear(d.names)
	}
	s := string(b)
	d.names[s] = s
	return s
}

// parseDigits parses b when it is 1 to 19 ASCII digits with a value that
// fits an int64, the only form WriteText produces for a non-negative
// number. It reports false for anything else (a sign, more digits, any
// other byte), which the caller hands to strconv.
func parseDigits(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	if n > math.MaxInt64 {
		return 0, false
	}
	return int64(n), true
}

// ExecutionStream groups a stream of events into executions: each END is
// paired with the earliest open START of the same activity in the same
// execution (FIFO pairing, exact for non-overlapping instances of one
// activity and a standard convention otherwise). It is the only grouping of
// events into executions; AssembleWith feeds it one execution at a time.
// Events may interleave across executions. Because "no more events for this
// execution" is undecidable mid-stream, completion is signalled explicitly:
// EmitCompleted emits the executions whose steps have all ended, and Close
// settles the rest.
//
// Streams built with NewExecutionStreamWith additionally enforce the
// IngestOptions recovery policy and resource watermarks: structurally bad
// events are skipped or quarantine their execution, an execution exceeding
// MaxStepsPerExecution is evicted to quarantine, and when the number of open
// executions would exceed MaxOpenExecutions the stalest one (the open
// execution that has gone longest without an event) is evicted, so an
// endless live trail cannot grow the stream without bound. Only an accepted
// START opens an execution.
type ExecutionStream struct {
	open map[string]*streamExec
	emit func(Execution) error
	opts IngestOptions
	rep  *IngestReport
	seq  int // Push counter; streamExec.lastSeq orders evictions

	// stepsHint is the step capacity a newly opened execution starts with.
	// AssembleWith sets it from the size of each bucket: n events with
	// every START ended make n/2 steps.
	stepsHint int
}

// streamExec is one open execution. A step is open while its End is the
// zero time, as the checkpoint encodes it; every step before firstOpen has
// ended.
type streamExec struct {
	steps     []Step
	firstOpen int
	lastSeq   int // seq of the most recent event for this execution
}

// done reports whether every step of the execution has ended.
func (se *streamExec) done() bool { return se.firstOpen == len(se.steps) }

// openStep returns the index of the earliest open step of activity a, or -1
// when there is none (or no execution).
func (se *streamExec) openStep(a string) int {
	if se != nil {
		for i := se.firstOpen; i < len(se.steps); i++ {
			if se.steps[i].End.IsZero() && se.steps[i].Activity == a {
				return i
			}
		}
	}
	return -1
}

// advance moves firstOpen past the steps that have ended.
func (se *streamExec) advance() {
	for se.firstOpen < len(se.steps) && !se.steps[se.firstOpen].End.IsZero() {
		se.firstOpen++
	}
}

// unterminated returns the activities of the open steps, sorted, with one
// entry per open step.
func (se *streamExec) unterminated() []string {
	var out []string
	for _, st := range se.steps[se.firstOpen:] {
		if st.End.IsZero() {
			out = append(out, st.Activity)
		}
	}
	sort.Strings(out)
	return out
}

// NewExecutionStream returns a stream that calls emit for each completed
// execution, with the default FailFast policy and no resource limits.
func NewExecutionStream(emit func(Execution) error) *ExecutionStream {
	return NewExecutionStreamWith(IngestOptions{}, nil, emit)
}

// NewExecutionStreamWith returns a stream governed by the given recovery
// policy and watermarks, accumulating skip/quarantine/eviction counts into
// rep (which may be nil; see Report).
func NewExecutionStreamWith(opts IngestOptions, rep *IngestReport, emit func(Execution) error) *ExecutionStream {
	return &ExecutionStream{
		open: map[string]*streamExec{},
		emit: emit,
		opts: opts,
		rep:  ensureReport(rep, opts),
	}
}

// Report returns the stream's ingest report (counts of skipped events,
// quarantined and evicted executions). It is the report passed to
// NewExecutionStreamWith when one was provided.
func (s *ExecutionStream) Report() *IngestReport { return s.rep }

// OpenExecutions returns the number of executions currently held open.
func (s *ExecutionStream) OpenExecutions() int { return len(s.open) }

// openIDs returns the IDs of the open executions that keep accepts (all of
// them when keep is nil), sorted.
func (s *ExecutionStream) openIDs(keep func(*streamExec) bool) []string {
	ids := make([]string, 0, len(s.open))
	for id, se := range s.open {
		if keep == nil || keep(se) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// bad applies the policy to one bad event: FailFast propagates err; Skip
// drops the event; Quarantine sets the execution aside whole.
func (s *ExecutionStream) bad(e IngestError, err error) error {
	if !s.opts.lenient() {
		return err
	}
	s.rep.record(e)
	s.rep.RecordsSkipped++
	if s.opts.Policy == Quarantine && e.Execution != "" {
		s.quarantineExec(e.Execution)
	}
	return s.rep.checkBudget(s.opts)
}

// evict sets an execution aside for breaching a watermark. Only lenient
// policies reach it; under FailFast the caller returns the breach as an
// error instead.
func (s *ExecutionStream) evict(id string, err error) error {
	s.rep.record(IngestError{Class: ClassLimit, Execution: id, Err: err})
	s.quarantineExec(id)
	return s.rep.checkBudget(s.opts)
}

// quarantineExec drops an open execution (if any) and records its ID so
// later events for it are discarded too.
func (s *ExecutionStream) quarantineExec(id string) {
	delete(s.open, id)
	s.rep.quarantine(id)
}

// Push adds one event. When the event closes an execution's last open
// activity instance, the execution is NOT yet emitted (more instances may
// follow); emission happens in Close, or earlier via EmitCompleted.
func (s *ExecutionStream) Push(ev Event) error {
	s.seq++
	if s.opts.lenient() && s.rep.isQuarantined(ev.ProcessID) {
		// The execution was already set aside; swallow its stragglers.
		s.rep.RecordsSkipped++
		return nil
	}
	se := s.open[ev.ProcessID]
	if se != nil {
		se.lastSeq = s.seq
	}
	switch ev.Type {
	case Start:
		if se == nil {
			if s.opts.MaxOpenExecutions > 0 && len(s.open) >= s.opts.MaxOpenExecutions {
				if err := s.evictStalest(ev.ProcessID); err != nil {
					return err
				}
			}
			se = &streamExec{steps: make([]Step, 0, s.stepsHint), lastSeq: s.seq}
			s.open[ev.ProcessID] = se
		}
		se.steps = append(se.steps, Step{Activity: ev.Activity, Start: ev.Time})
		if max := s.opts.MaxStepsPerExecution; max > 0 && len(se.steps) > max {
			err := fmt.Errorf("%w: %d steps > %d", ErrExecutionTooLong, len(se.steps), max)
			if !s.opts.lenient() {
				return fmt.Errorf("wlog: execution %q: %w", ev.ProcessID, err)
			}
			return s.evict(ev.ProcessID, err)
		}
	case End:
		i := se.openStep(ev.Activity)
		if i < 0 {
			return s.bad(IngestError{
				Class:     ClassStructure,
				Execution: ev.ProcessID,
				Err:       fmt.Errorf("%w: END of %q", ErrEndWithoutStart, ev.Activity),
			}, fmt.Errorf("wlog: execution %q: END of %q without START", ev.ProcessID, ev.Activity))
		}
		st := &se.steps[i]
		if ev.Time.Before(st.Start) {
			// A time-reversed END cannot close the step; the START stays
			// open and surfaces as unterminated when the execution settles.
			err := fmt.Errorf("END of %q at %v precedes its START at %v", ev.Activity, ev.Time, st.Start)
			return s.bad(IngestError{Class: ClassStructure, Execution: ev.ProcessID, Err: err},
				fmt.Errorf("wlog: execution %q: %w", ev.ProcessID, err))
		}
		st.End = ev.Time
		st.Output = ev.Output.Clone()
		se.advance()
	default:
		return s.bad(IngestError{
			Class:     ClassSyntax,
			Execution: ev.ProcessID,
			Err:       fmt.Errorf("invalid event type %v", ev.Type),
		}, fmt.Errorf("wlog: execution %q: invalid event type %v", ev.ProcessID, ev.Type))
	}
	return nil
}

// evictStalest applies the MaxOpenExecutions watermark: the open execution
// with the oldest last event is quarantined (its partial steps are
// discarded). Under FailFast the watermark is a hard error instead.
func (s *ExecutionStream) evictStalest(incoming string) error {
	if !s.opts.lenient() {
		return fmt.Errorf("wlog: %w: %d open, cannot admit %q (MaxOpenExecutions=%d)",
			ErrTooManyOpenExecutions, len(s.open), incoming, s.opts.MaxOpenExecutions)
	}
	stalest, best := "", int(^uint(0)>>1)
	for id, se := range s.open {
		if se.lastSeq < best || (se.lastSeq == best && id < stalest) {
			stalest, best = id, se.lastSeq
		}
	}
	return s.evict(stalest, fmt.Errorf("%w: evicted to admit %q", ErrTooManyOpenExecutions, incoming))
}

// settle removes one open execution from the stream and emits what the
// policy keeps of it. An execution whose steps have all ended is emitted
// whole. Otherwise FailFast returns an error naming its unterminated
// activities and keeps it open, Quarantine sets it aside, and Skip drops
// the unterminated steps and emits the rest. EmitCompleted, Close and
// AssembleWith all end an execution here.
func (s *ExecutionStream) settle(id string) error {
	se := s.open[id]
	if se == nil {
		return nil // never opened, or quarantined while its events arrived
	}
	done := se.done()
	if !done && !s.opts.lenient() {
		return s.stuckError([]string{id})
	}
	delete(s.open, id)
	if !done {
		for _, a := range se.unterminated() {
			s.rep.record(IngestError{
				Class:     ClassStructure,
				Execution: id,
				Err:       fmt.Errorf("%w: activity %q", ErrUnterminatedStart, a),
			})
		}
		if s.opts.Policy == Quarantine {
			s.rep.quarantine(id)
			return s.rep.checkBudget(s.opts)
		}
		kept := se.steps[:0]
		for _, st := range se.steps {
			if st.End.IsZero() {
				s.rep.StepsDropped++
				continue
			}
			kept = append(kept, st)
		}
		se.steps = kept
		if err := s.rep.checkBudget(s.opts); err != nil {
			return err
		}
	}
	if len(se.steps) == 0 {
		return nil
	}
	byStart := func(a, b Step) int { return a.Start.Compare(b.Start) }
	if !slices.IsSortedFunc(se.steps, byStart) {
		slices.SortStableFunc(se.steps, byStart)
	}
	return s.emit(Execution{ID: id, Steps: se.steps})
}

// stuckError is the FailFast error for open executions that cannot settle:
// it names each execution and its unterminated activities, in sorted order.
func (s *ExecutionStream) stuckError(ids []string) error {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%q %q", id, s.open[id].unterminated())
	}
	noun := "executions"
	if len(ids) == 1 {
		noun = "execution"
	}
	return fmt.Errorf("wlog: %d %s with unterminated activities: %s", len(ids), noun, strings.Join(parts, ", "))
}

// EmitCompleted emits and forgets every execution whose instances have all
// ended. Call it at natural boundaries (e.g. end of a day's trail) to bound
// memory; executions that later receive more events would then surface as a
// second execution with the same ID, which Log.Validate flags.
func (s *ExecutionStream) EmitCompleted() error {
	for _, id := range s.openIDs((*streamExec).done) {
		if err := s.settle(id); err != nil {
			return err
		}
	}
	return nil
}

// Close emits all completed executions. Executions still holding unmatched
// STARTs are handled per policy: FailFast returns one error naming *all* of
// them sorted by ID; Skip drops just the unterminated steps and emits what
// remains; Quarantine sets the stuck executions aside whole.
func (s *ExecutionStream) Close() error {
	if err := s.EmitCompleted(); err != nil {
		return err
	}
	stuck := s.openIDs(nil)
	if len(stuck) > 0 && !s.opts.lenient() {
		return s.stuckError(stuck)
	}
	for _, id := range stuck {
		if err := s.settle(id); err != nil {
			return err
		}
	}
	return nil
}

// StreamCSV reads the CSV codec one event at a time (header row required),
// the CSV counterpart of StreamText.
func StreamCSV(r io.Reader, fn func(Event) error) error {
	_, err := StreamCSVWith(r, IngestOptions{}, nil, fn)
	return err
}

// StreamCSVWith is StreamCSV under a recovery policy; bad rows are dropped
// and counted in rep instead of aborting. Errors carry the 1-based data
// record number (the header is not counted). A malformed header is always
// fatal: with no recognizable schema nothing downstream can recover.
func StreamCSVWith(r io.Reader, opts IngestOptions, rep *IngestReport, fn func(Event) error) (*IngestReport, error) {
	rep = ensureReport(rep, opts)
	want := csvHeader()
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(want)
	header, err := cr.Read()
	if err != nil {
		return rep, fmt.Errorf("wlog: reading CSV header: %w", err)
	}
	for i, h := range want {
		if header[i] != h {
			return rep, fmt.Errorf("wlog: CSV header column %d is %q, want %q", i, header[i], h)
		}
	}
	recno := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rep, nil
		}
		recno++
		if err != nil {
			rep.RecordsRead++
			if !opts.lenient() {
				return rep, fmt.Errorf("wlog: CSV record %d: %w", recno, err)
			}
			if err := handleBadRecord(opts, rep, IngestError{Class: ClassSyntax, Record: recno, Err: err}); err != nil {
				return rep, err
			}
			continue
		}
		rep.RecordsRead++
		ev, err := decodeCSVRecord(rec)
		if err != nil {
			if !opts.lenient() {
				return rep, fmt.Errorf("wlog: CSV record %d: %w", recno, err)
			}
			if err := handleBadRecord(opts, rep, IngestError{Class: ClassSyntax, Record: recno, Err: err}); err != nil {
				return rep, err
			}
			continue
		}
		rep.EventsDecoded++
		if err := fn(ev); err != nil {
			return rep, err
		}
	}
}

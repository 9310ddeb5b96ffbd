package wlog

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The oracles below are the text decoder and the batch assembler as they
// were before the byte-level decoder and index-bucketed assembly: one
// string per line cut by strings.Fields, events copied into a map of
// per-ID buckets. They are slow and obviously right, and the differential
// tests and fuzzers require the production path to match them exactly:
// same events, same logs, same IngestReport, same error text. They are
// exported for the wlog_test package, whose corruptor differential needs
// internal/noise, which imports wlog; test files are not part of the
// package's API.

// OracleReadTextWith is ReadTextWith over strings.TrimSpace, strings.Fields
// and strconv.
func OracleReadTextWith(r io.Reader, opts IngestOptions, rep *IngestReport) ([]Event, *IngestReport, error) {
	rep = ensureReport(rep, opts)
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rep.RecordsRead++
		ev, err := oracleParseTextLine(line)
		if err != nil {
			if !opts.lenient() {
				return nil, rep, fmt.Errorf("wlog: line %d: %w", lineno, err)
			}
			if err := handleBadRecord(opts, rep, IngestError{Class: ClassSyntax, Record: lineno, Err: err}); err != nil {
				return nil, rep, err
			}
			continue
		}
		rep.EventsDecoded++
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, rep, fmt.Errorf("wlog: scanning: %w", err)
	}
	return events, rep, nil
}

// oracleParseTextLine decodes one text-codec line.
func oracleParseTextLine(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Event{}, fmt.Errorf("need at least 4 fields, got %d", len(fields))
	}
	typ, err := ParseEventType(fields[2])
	if err != nil {
		return Event{}, err
	}
	ns, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad timestamp %q: %w", fields[3], err)
	}
	ev := Event{
		ProcessID: fields[0],
		Activity:  fields[1],
		Type:      typ,
		Time:      time.Unix(0, ns).UTC(),
	}
	for _, f := range fields[4:] {
		v, err := strconv.Atoi(f)
		if err != nil {
			return Event{}, fmt.Errorf("bad output value %q: %w", f, err)
		}
		ev.Output = append(ev.Output, v)
	}
	return ev, nil
}

// OracleAssembleWith is AssembleWith over a map of copied per-ID buckets,
// each stable-sorted by time.
func OracleAssembleWith(events []Event, opts IngestOptions, rep *IngestReport) (*Log, *IngestReport, error) {
	log := &Log{}
	s := NewExecutionStreamWith(opts, rep, func(e Execution) error {
		log.Executions = append(log.Executions, e)
		return nil
	})
	byProc := map[string][]Event{}
	for _, ev := range events {
		byProc[ev.ProcessID] = append(byProc[ev.ProcessID], ev)
	}
	ids := make([]string, 0, len(byProc))
	for id := range byProc {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		evs := byProc[id]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
		for _, ev := range evs {
			if err := s.Push(ev); err != nil {
				return nil, s.rep, err
			}
		}
		if err := s.settle(id); err != nil {
			return nil, s.rep, err
		}
	}
	return log, s.rep, nil
}

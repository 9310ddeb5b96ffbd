package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"procmine/internal/wlog"
)

// minePaths mines l three ways and returns each DOT rendering: batch
// MineContext; one IncrementalMiner over every execution; and /model's own
// path, per-shard miners (execution i on shard i mod shards) whose
// Snapshots are restored into one merged miner.
func minePaths(t *testing.T, l *wlog.Log, opt Options, shards int) (batch, incremental, merged string) {
	t.Helper()
	g, err := MineContext(context.Background(), l, opt)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	batch = g.Dot("paths")

	whole := NewIncrementalMiner()
	parts := make([]*IncrementalMiner, shards)
	for i := range parts {
		parts[i] = NewIncrementalMiner()
	}
	for i, exec := range l.Executions {
		if err := whole.Add(exec); err != nil {
			t.Fatal(err)
		}
		if err := parts[i%shards].Add(exec); err != nil {
			t.Fatal(err)
		}
	}
	if g, err = whole.Mine(opt); err != nil {
		t.Fatalf("incremental: %v", err)
	}
	incremental = g.Dot("paths")

	union := NewIncrementalMiner()
	for _, p := range parts {
		if err := union.RestoreSnapshot(p.Snapshot()); err != nil {
			t.Fatalf("restore-merge: %v", err)
		}
	}
	if g, err = union.Mine(opt); err != nil {
		t.Fatalf("restore-merged: %v", err)
	}
	return batch, incremental, g.Dot("paths")
}

// nulLog is the NUL reproduction: one execution runs a then b, the other
// the single activity "a#1\x00b". Instance-labeled, its set is
// {"a#1\x00b#1"}, which a NUL-joined set key cannot tell from {"a#1",
// "b#1"}.
func nulLog() *wlog.Log {
	return &wlog.Log{Executions: []wlog.Execution{
		wlog.FromSequence("n1", "a", "b"),
		wlog.FromSequence("n2", "a#1\x00b"),
	}}
}

// TestNULNamesKeepSetsApart requires batch, incremental and restore-merged
// mining of the NUL reproduction to agree, each with the edge a -> b.
func TestNULNamesKeepSetsApart(t *testing.T) {
	for _, shards := range []int{1, 2} {
		batch, incremental, merged := minePaths(t, nulLog(), Options{}, shards)
		if !strings.Contains(batch, "\n  a -> b;\n") {
			t.Fatalf("batch model lacks a -> b:\n%q", batch)
		}
		if incremental != batch {
			t.Errorf("shards=%d: incremental model diverges from batch\ngot:\n%q\nwant:\n%q", shards, incremental, batch)
		}
		if merged != batch {
			t.Errorf("shards=%d: restore-merged model diverges from batch\ngot:\n%q\nwant:\n%q", shards, merged, batch)
		}
	}
}

// Fuzz log limits: up to maxFuzzExecs executions of up to maxFuzzSteps
// steps over a table of up to eight names of up to seven bytes.
const (
	maxFuzzExecs = 12
	maxFuzzSteps = 10
)

// fuzzLog decodes a small log from fuzz bytes: the name count, each name's
// length and bytes, then per execution a step count and per step a name
// index, a start offset and a duration in milliseconds, so names hold any
// bytes and steps repeat activities and overlap. Input that runs out ends
// the log.
func fuzzLog(data []byte) *wlog.Log {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	names := make([]string, 1+next()%8)
	for i := range names {
		n := min(next()%8, len(data))
		names[i], data = string(data[:n]), data[n:]
	}
	base := time.Unix(1_700_000_000, 0)
	l := &wlog.Log{}
	for e := 0; e < maxFuzzExecs && len(data) > 0; e++ {
		steps := make([]wlog.Step, next()%(maxFuzzSteps+1))
		for i := range steps {
			a := names[next()%len(names)]
			start := base.Add(time.Duration(next()%32) * time.Millisecond)
			steps[i] = wlog.Step{Activity: a, Start: start, End: start.Add(time.Duration(next()%8) * time.Millisecond)}
		}
		l.Executions = append(l.Executions, wlog.Execution{ID: "f" + itoa(e), Steps: steps})
	}
	return l
}

// fuzzSeed encodes a name table and executions, each a list of (name
// index, start, duration) triples, in fuzzLog's format.
func fuzzSeed(names []string, execs ...[][3]byte) []byte {
	b := []byte{byte(len(names) - 1)}
	for _, n := range names {
		b = append(b, byte(len(n)))
		b = append(b, n...)
	}
	for _, steps := range execs {
		b = append(b, byte(len(steps)))
		for _, s := range steps {
			b = append(b, s[:]...)
		}
	}
	return b
}

// FuzzMinePaths is the differential target for the one steps 3-7 path:
// batch MineContext, one IncrementalMiner, and the Snapshot→RestoreSnapshot
// merge of 1-4 per-shard miners must render byte-identical DOT for every
// drawn log under each options cell (zero, MinSupport 2, AdaptiveEpsilon
// 0.2).
func FuzzMinePaths(f *testing.F) {
	f.Add(fuzzSeed([]string{"a", "b", "a#1\x00b"},
		[][3]byte{{0, 0, 1}, {1, 2, 1}},
		[][3]byte{{2, 0, 1}}), uint8(0), uint8(0))
	f.Add(fuzzSeed([]string{"A", "B#1", "x#", "#", "\xe5\xff", "é"},
		[][3]byte{{0, 0, 1}, {1, 2, 1}, {2, 4, 1}, {1, 6, 1}, {3, 8, 1}},
		[][3]byte{{0, 0, 1}, {2, 2, 4}, {1, 3, 1}, {4, 8, 1}},
		[][3]byte{{0, 0, 1}, {5, 2, 1}, {1, 4, 1}, {5, 6, 1}, {3, 8, 1}}), uint8(1), uint8(2))
	f.Add(fuzzSeed([]string{"p", "q", "r"},
		[][3]byte{{0, 0, 1}, {1, 2, 1}, {2, 4, 1}},
		[][3]byte{{0, 0, 1}, {2, 2, 1}, {1, 4, 1}},
		[][3]byte{{0, 0, 1}, {1, 2, 1}, {2, 4, 1}}), uint8(2), uint8(3))
	cells := []Options{{}, {MinSupport: 2}, {AdaptiveEpsilon: 0.2}}
	f.Fuzz(func(t *testing.T, data []byte, cell, shards uint8) {
		opt := cells[int(cell)%len(cells)]
		batch, incremental, merged := minePaths(t, fuzzLog(data), opt, 1+int(shards)%4)
		if incremental != batch {
			t.Fatalf("%+v: incremental model diverges from batch\ngot:\n%q\nwant:\n%q", opt, incremental, batch)
		}
		if merged != batch {
			t.Fatalf("%+v: restore-merged model diverges from batch\ngot:\n%q\nwant:\n%q", opt, merged, batch)
		}
	})
}

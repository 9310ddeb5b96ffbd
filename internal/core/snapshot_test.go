package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"procmine/internal/graph"
	"procmine/internal/noise"
	"procmine/internal/synth"
	"procmine/internal/wlog"
)

// pinnedV1Log is the small cyclic log, '#' names included, whose miner
// snapshot and mined model testdata/miner-snapshot-v1.json and .dot pin.
// Both files were written by the miner before its state moved to an ID
// arena.
func pinnedV1Log() *wlog.Log {
	return &wlog.Log{Executions: []wlog.Execution{
		wlog.FromSequence("x1", "A", "B#1", "C", "B#1", "D"),
		wlog.FromSequence("x2", "A", "B#1", "C", "D"),
		wlog.FromSequence("x3", "A", "x#", "B#1", "C", "B#1", "C", "D"),
		wlog.FromSequence("x4", "A", "#", "D"),
	}}
}

// TestMinerSnapshotV1Pinned pins the v1 snapshot bytes across versions: a
// miner fed pinnedV1Log encodes byte for byte to the committed file, and a
// miner restored from that file mines the committed model and encodes the
// same bytes again.
func TestMinerSnapshotV1Pinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "miner-snapshot-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	dot, err := os.ReadFile(filepath.Join("testdata", "miner-snapshot-v1.dot"))
	if err != nil {
		t.Fatal(err)
	}
	im := NewIncrementalMiner()
	if err := im.AddLog(pinnedV1Log()); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := im.Snapshot().Encode(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("Snapshot().Encode diverges from the v1 file:\n%s", b.String())
	}
	s, err := DecodeMinerSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	restored := NewIncrementalMiner()
	if err := restored.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	g, err := restored.Mine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Dot("procmined"); got != string(dot) {
		t.Errorf("restored v1 snapshot mines a different model\ngot:\n%s\nwant:\n%s", got, dot)
	}
	b.Reset()
	if err := restored.Snapshot().Encode(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("restored v1 snapshot re-encodes differently:\n%s", b.String())
	}
}

// snapshotLogs is the fixture family for the snapshot properties: a clean
// synthetic DAG log, noise-corrupted variants, and a cyclic log with
// repeated activities (exercising labeled instances in the snapshot).
func snapshotLogs(t *testing.T) map[string]*wlog.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(20260808))
	g := synth.RandomDAG(rng, 10, synth.PaperEdgeProb(10))
	sim, err := synth.NewSimulator(g, rng)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	clean := sim.GenerateLog("s_", 30)
	c := noise.NewCorruptor(rand.New(rand.NewSource(11)))
	logs := map[string]*wlog.Log{
		"clean":    clean,
		"swapped":  c.SwapAdjacent(clean, 0.1),
		"dropped":  c.DropActivities(clean, 0.1),
		"spurious": c.InsertSpurious(clean, 0.3, noise.InsertionAlphabet(clean, 3)),
		"cyclic":   wlog.LogFromStrings("ABABC", "ABC", "ABABABC", "AC", "ABABC", "ABC"),
	}
	return logs
}

// mineDot renders a mined graph canonically for byte comparison.
func mineDot(t *testing.T, im *IncrementalMiner, opt Options) string {
	t.Helper()
	g, err := im.Mine(opt)
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	return g.Dot("snap")
}

// TestSnapshotRoundTripProperty pins the headline property: snapshotting
// after k executions, restoring into a fresh miner, and adding the
// remaining executions mines a graph byte-identical to continuous mining —
// for every split point, across clean, noisy, and cyclic logs, under both
// the MinSupport and AdaptiveEpsilon threshold paths.
func TestSnapshotRoundTripProperty(t *testing.T) {
	opts := []Options{{}, {MinSupport: 3}, {AdaptiveEpsilon: 0.05}}
	for name, l := range snapshotLogs(t) {
		for _, opt := range opts {
			continuous := NewIncrementalMiner()
			if err := continuous.AddLog(l); err != nil {
				t.Fatalf("%s: AddLog: %v", name, err)
			}
			want := mineDot(t, continuous, opt)

			for split := 0; split <= len(l.Executions); split += 7 {
				first := NewIncrementalMiner()
				for _, e := range l.Executions[:split] {
					if err := first.Add(e); err != nil {
						t.Fatalf("%s: Add: %v", name, err)
					}
				}
				restored := NewIncrementalMiner()
				if err := restored.RestoreSnapshot(first.Snapshot()); err != nil {
					t.Fatalf("%s: RestoreSnapshot: %v", name, err)
				}
				for _, e := range l.Executions[split:] {
					if err := restored.Add(e); err != nil {
						t.Fatalf("%s: Add after restore: %v", name, err)
					}
				}
				if got := mineDot(t, restored, opt); got != want {
					t.Errorf("%s split=%d opt=%+v: restore-then-mine diverges from continuous mining\ngot:\n%s\nwant:\n%s",
						name, split, opt, got, want)
				}
			}
		}
	}
}

// TestSnapshotMergeEqualsUnion pins the shard-merge property: partitioning
// a log across k miners, snapshotting each, and restoring all snapshots
// into one miner (in any order) mines the same graph as one miner over the
// whole log.
func TestSnapshotMergeEqualsUnion(t *testing.T) {
	for name, l := range snapshotLogs(t) {
		whole := NewIncrementalMiner()
		if err := whole.AddLog(l); err != nil {
			t.Fatalf("%s: AddLog: %v", name, err)
		}
		want := mineDot(t, whole, Options{})

		const k = 3
		shards := make([]*IncrementalMiner, k)
		for i := range shards {
			shards[i] = NewIncrementalMiner()
		}
		for i, e := range l.Executions {
			if err := shards[i%k].Add(e); err != nil {
				t.Fatalf("%s: Add: %v", name, err)
			}
		}
		// Merge in two different orders; both must equal the whole-log mine.
		for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}} {
			merged := NewIncrementalMiner()
			for _, i := range order {
				if err := merged.RestoreSnapshot(shards[i].Snapshot()); err != nil {
					t.Fatalf("%s: RestoreSnapshot: %v", name, err)
				}
			}
			if merged.Executions() != len(l.Executions) {
				t.Errorf("%s: merged %d executions, want %d", name, merged.Executions(), len(l.Executions))
			}
			if got := mineDot(t, merged, Options{}); got != want {
				t.Errorf("%s order=%v: merged shards diverge from whole-log mine\ngot:\n%s\nwant:\n%s",
					name, order, got, want)
			}
		}
	}
}

// TestSnapshotEncodeDeterministic checks that equal miner states encode to
// byte-identical JSON, that encode/decode round-trips exactly, and that the
// snapshot shares no memory with the live miner.
func TestSnapshotEncodeDeterministic(t *testing.T) {
	l := snapshotLogs(t)["clean"]
	im := NewIncrementalMiner()
	if err := im.AddLog(l); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := im.Snapshot().Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := im.Snapshot().Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of the same state encode differently")
	}
	dec, err := DecodeMinerSnapshot(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("DecodeMinerSnapshot: %v", err)
	}
	if !reflect.DeepEqual(dec, im.Snapshot()) {
		t.Fatal("decode(encode(snapshot)) differs from snapshot")
	}
	// Snapshot isolation: mutating the miner afterwards must not change an
	// already-taken snapshot.
	snap := im.Snapshot()
	before := len(snap.Sigs)
	if err := im.Add(wlog.FromSequence("iso", "Z1", "Z2")); err != nil {
		t.Fatal(err)
	}
	if len(snap.Sigs) != before {
		t.Fatal("snapshot aliases live miner state")
	}
}

func TestSnapshotValidate(t *testing.T) {
	im := NewIncrementalMiner()
	if err := im.AddLog(wlog.LogFromStrings("ABC", "ACB")); err != nil {
		t.Fatal(err)
	}
	good := im.Snapshot()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	bad := *good
	bad.Schema = "bogus/v9"
	if err := NewIncrementalMiner().RestoreSnapshot(&bad); !errors.Is(err, ErrSnapshotSchema) {
		t.Errorf("bad schema: got %v, want ErrSnapshotSchema", err)
	}

	bad = *good
	bad.Executions = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative execution count accepted")
	}

	bad = *good
	bad.Order = append([]PairCount{{From: "A", To: "B", Count: -2}}, good.Order...)
	if err := bad.Validate(); err == nil {
		t.Error("negative pair count accepted")
	}

	bad = *good
	bad.Sigs = [][]string{{"B", "A"}}
	if err := bad.Validate(); err == nil {
		t.Error("unsorted signature set accepted")
	}

	bad = *good
	bad.Sigs = [][]string{{"A", "A"}}
	if err := bad.Validate(); err == nil {
		t.Error("signature set with a repeated member accepted")
	}

	if _, err := DecodeMinerSnapshot(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Error("garbage snapshot decoded")
	}
}

// TestIncrementalMineContext checks that a cancelled context aborts the
// incremental mine promptly and that an expired deadline surfaces as
// context.DeadlineExceeded.
func TestIncrementalMineContext(t *testing.T) {
	im := NewIncrementalMiner()
	if err := im.AddLog(snapshotLogs(t)["clean"]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := im.MineContext(ctx, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled mine: got %v, want context.Canceled", err)
	}
	g, err := im.MineContext(context.Background(), Options{})
	if err != nil {
		t.Fatalf("MineContext: %v", err)
	}
	var want *graph.Digraph
	if want, err = im.Mine(Options{}); err != nil {
		t.Fatal(err)
	}
	if g.Dot("x") != want.Dot("x") {
		t.Error("MineContext result differs from Mine")
	}
}

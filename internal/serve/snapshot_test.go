package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"procmine/internal/core"
	"procmine/internal/wlog"
)

// TestRestoreV1Checkpoint pins the v1 shard checkpoint across versions:
// testdata/shard-0000.snap.json was written by an /admin/snapshot of the
// miner before its state moved to an ID arena (a small cyclic log with '#'
// names plus one open execution), and a server restored from it must pass
// the integrity check and serve the model that code served,
// testdata/shard-0000.dot.
func TestRestoreV1Checkpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "shard-0000.snap.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "shard-0000.dot"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.snap.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Shards: 1, SnapshotDir: dir})
	if err != nil {
		t.Fatalf("restoring the v1 checkpoint: %v", err)
	}
	if got := modelDot(t, s); got != string(want) {
		t.Errorf("v1 checkpoint serves a different model\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// splitLog partitions a log's executions in two.
func splitLog(l *wlog.Log, at int) (*wlog.Log, *wlog.Log) {
	return &wlog.Log{Executions: l.Executions[:at]}, &wlog.Log{Executions: l.Executions[at:]}
}

// TestCrashRecoveryParity simulates the kill-and-restart protocol at the
// package level: batch A is ingested and acked by an explicit snapshot;
// batch B is ingested but never snapshotted (the "crash" discards it); a
// new server over the same directory restores exactly A, the client resends
// the unacked B, and the final model is byte-identical to a single batch
// run over A+B.
func TestCrashRecoveryParity(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 3, SnapshotDir: dir}
	whole := serveLog(20)
	a, b := splitLog(whole, 12)
	want := batchDot(t, whole, core.Options{})

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestText(t, s1, textOf(t, a), http.StatusOK)
	if rec := do(t, s1, http.MethodPost, "/admin/snapshot", "", ""); rec.Code != http.StatusOK {
		t.Fatalf("snapshot = %d: %s", rec.Code, rec.Body.String())
	}
	// B lands after the durable cut and the process "dies" — s1 is simply
	// abandoned without a shutdown flush.
	ingestText(t, s1, textOf(t, b), http.StatusOK)

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if s2.Restored() != 3 {
		t.Fatalf("restored %d shards, want 3", s2.Restored())
	}
	if got, want := modelDot(t, s2), batchDot(t, a, core.Options{}); got != want {
		t.Fatal("restored model differs from batch A alone (snapshot leaked unacked state or lost acked state)")
	}
	// The client resends the unacked batch.
	ingestText(t, s2, textOf(t, b), http.StatusOK)
	if got := modelDot(t, s2); got != want {
		t.Errorf("recovered model diverges from single-process batch run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCrashRecoveryOpenExecutions checks that in-flight executions survive
// the snapshot: STARTs acked before the cut pair with ENDs sent after the
// restart.
func TestCrashRecoveryOpenExecutions(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, SnapshotDir: dir}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestText(t, s1, "w1 A START 1000\nw2 A START 2000\n", http.StatusOK)
	if rec := do(t, s1, http.MethodPost, "/admin/snapshot", "", ""); rec.Code != http.StatusOK {
		t.Fatal("snapshot failed")
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp := ingestText(t, s2, "w1 A END 3000\nw2 A END 4000\n", http.StatusOK)
	for _, sr := range resp.Shards {
		if !sr.Applied {
			t.Fatalf("restored stream rejected the continuation: %+v", sr)
		}
	}
	rec := do(t, s2, http.MethodGet, "/model?format=json", "", "")
	var m ModelResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Executions != 2 {
		t.Fatalf("mined %d executions after handoff, want 2 (open executions lost in snapshot)", m.Executions)
	}
}

// TestPeriodicSnapshot checks SnapshotEvery-driven checkpoints appear
// without explicit snapshot calls.
func TestPeriodicSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Shards: 1, SnapshotDir: dir, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	ingestText(t, s, textOf(t, serveLog(6)), http.StatusOK)
	data, err := os.ReadFile(filepath.Join(dir, "shard-0000.snap.json"))
	if err != nil {
		t.Fatalf("no periodic checkpoint written: %v", err)
	}
	var snap shardSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Executions == 0 || snap.Schema != ShardSnapshotSchema {
		t.Fatalf("checkpoint %+v lacks executions or schema", snap)
	}
}

// TestCorruptSnapshotRefused checks the integrity oracle: a checkpoint
// whose state was tampered with (so the recorded model digest no longer
// matches a re-mine) refuses to load, as do schema and topology mismatches.
func TestCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, SnapshotDir: dir}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestText(t, s, textOf(t, serveLog(6)), http.StatusOK)
	if rec := do(t, s, http.MethodPost, "/admin/snapshot", "", ""); rec.Code != http.StatusOK {
		t.Fatal("snapshot failed")
	}
	path := filepath.Join(dir, "shard-0000.snap.json")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Tamper with the mined state but not the digest: an order count edit
	// changes the model the state mines to.
	var snap shardSnapshot
	if err := json.Unmarshal(pristine, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Miner.Order) == 0 {
		t.Fatal("fixture snapshot has no order counts to corrupt")
	}
	snap.Miner.Order = snap.Miner.Order[1:]
	tampered, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); !errors.Is(err, ErrSnapshotIntegrity) {
		t.Errorf("tampered checkpoint: New err = %v, want ErrSnapshotIntegrity", err)
	}

	// Truncated file: undecodable.
	if err := os.WriteFile(path, pristine[:len(pristine)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Error("torn checkpoint accepted")
	}

	// Wrong schema string.
	wrongSchema := strings.Replace(string(pristine), ShardSnapshotSchema, "bogus/v9", 1)
	if err := os.WriteFile(path, []byte(wrongSchema), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Error("wrong-schema checkpoint accepted")
	}

	// Topology mismatch: restarting with a different shard count must fail,
	// not silently mis-partition.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Shards: 4, SnapshotDir: dir}); err == nil {
		t.Error("shard-count mismatch accepted")
	}
	// And the pristine file still loads.
	if _, err := New(cfg); err != nil {
		t.Errorf("pristine checkpoint refused after restore: %v", err)
	}
}

package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"procmine/internal/graph"
	"procmine/internal/obs"
)

// Miner state export/import. The always-on serving layer (internal/serve)
// checkpoints each shard's IncrementalMiner to disk so a crash or restart
// loses at most one snapshot interval; the same machinery merges shard
// states into one global model. Both uses demand two properties, which the
// round-trip and merge property tests pin:
//
//   - Determinism: Snapshot of a given miner state always produces the same
//     value, and Encode always produces the same bytes — every slice is
//     sorted, nothing depends on map iteration order.
//   - Exactness: RestoreSnapshot is a lossless, additive merge. Restoring a
//     snapshot into an empty miner and mining yields a graph byte-identical
//     to mining the original; restoring several disjoint shards' snapshots
//     equals mining the union of their logs (counts are per-execution
//     integer sums, signature sets union, so the merge is commutative).

// MinerSnapshotSchema identifies the snapshot wire format. Decode rejects
// other schemas so a future format change cannot be misread silently.
const MinerSnapshotSchema = "procmine-miner-snapshot/v1"

// ErrSnapshotSchema is returned when decoding a snapshot whose schema field
// does not match MinerSnapshotSchema.
var ErrSnapshotSchema = errors.New("core: unsupported miner snapshot schema")

// PairCount is one accumulated pair counter of a MinerSnapshot.
type PairCount struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Count int    `json:"count"`
}

// MinerSnapshot is the complete serializable state of an IncrementalMiner:
// the labeled activity alphabet, the step-2 pair counters, and the distinct
// activity-set signatures the marking pass consumes. All slices are sorted,
// so equal miner states produce deep-equal snapshots and identical encoded
// bytes.
type MinerSnapshot struct {
	Schema     string      `json:"schema"`
	Executions int         `json:"executions"`
	Activities []string    `json:"activities"`
	Order      []PairCount `json:"order"`
	Overlap    []PairCount `json:"overlap"`
	Cooc       []PairCount `json:"cooc"`
	Sigs       [][]string  `json:"sigs"`
}

// pairCountsOf flattens a count map into a (From, To)-sorted slice.
func pairCountsOf(m map[graph.Edge]int) []PairCount {
	out := make([]PairCount, 0, len(m))
	for e, c := range m {
		out = append(out, PairCount{From: e.From, To: e.To, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Snapshot exports the miner's accumulated state. The result shares no
// memory with the miner, so it remains valid while the miner keeps
// ingesting. Its sets are listed in the order of their sorted keys, which
// does not depend on the order in which they arrived.
func (im *IncrementalMiner) Snapshot() *MinerSnapshot {
	im.init()
	s := &MinerSnapshot{
		Schema:     MinerSnapshotSchema,
		Executions: im.executions,
		Activities: append(make([]string, 0, len(im.st.labels)), im.st.labels...),
		Order:      pairCountsOf(im.st.pc.order),
		Overlap:    pairCountsOf(im.st.pc.overlap),
		Cooc:       pairCountsOf(im.st.pc.cooc),
		Sigs:       make([][]string, 0, len(im.sets)),
	}
	sort.Strings(s.Activities)
	keys := make([]string, 0, len(im.sets))
	for k := range im.sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One backing array holds every set's labels; each set's slice is capped
	// at its own end.
	members := make([]string, len(im.st.setIDs))
	at := 0
	for _, k := range keys {
		set, lo := im.sets[k], at
		for _, id := range im.st.setIDs[im.st.setOff[set]:im.st.setOff[set+1]] {
			members[at] = im.st.labels[id]
			at++
		}
		s.Sigs = append(s.Sigs, members[lo:at:at])
	}
	return s
}

// Validate checks the snapshot's structural invariants: schema, non-negative
// counts, and signature sets sorted without repeats.
func (s *MinerSnapshot) Validate() error {
	if s.Schema != MinerSnapshotSchema {
		return fmt.Errorf("%w: got %q, want %q", ErrSnapshotSchema, s.Schema, MinerSnapshotSchema)
	}
	if s.Executions < 0 {
		return fmt.Errorf("core: snapshot has negative execution count %d", s.Executions)
	}
	for _, group := range [][]PairCount{s.Order, s.Overlap, s.Cooc} {
		for _, pc := range group {
			if pc.Count <= 0 {
				return fmt.Errorf("core: snapshot pair %s->%s has non-positive count %d", pc.From, pc.To, pc.Count)
			}
		}
	}
	for _, set := range s.Sigs {
		for i := 1; i < len(set); i++ {
			if set[i-1] >= set[i] {
				return fmt.Errorf("core: snapshot signature set %v is not sorted without repeats", set)
			}
		}
	}
	return nil
}

// RestoreSnapshot merges a snapshot's counts into the miner: pair counters
// add, activity alphabets and signature sets union, execution counts sum.
// Restoring into a fresh miner reproduces the snapshotted state exactly;
// restoring several snapshots merges them commutatively, so shard states
// taken over disjoint execution sets combine into the state of mining all
// their executions in one miner.
func (im *IncrementalMiner) RestoreSnapshot(s *MinerSnapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	im.init()
	im.executions += s.Executions
	for _, a := range s.Activities {
		im.intern(a)
	}
	for _, pc := range s.Order {
		im.st.pc.order[graph.Edge{From: pc.From, To: pc.To}] += pc.Count
	}
	for _, pc := range s.Overlap {
		im.st.pc.overlap[graph.Edge{From: pc.From, To: pc.To}] += pc.Count
	}
	for _, pc := range s.Cooc {
		im.st.pc.cooc[graph.Edge{From: pc.From, To: pc.To}] += pc.Count
	}
	for _, set := range s.Sigs {
		im.addSet(set)
	}
	return nil
}

// Encode writes the snapshot as deterministic, indented JSON: the same
// miner state always encodes to the same bytes.
func (s *MinerSnapshot) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("core: encoding miner snapshot: %w", err)
	}
	return nil
}

// DecodeMinerSnapshot reads and validates a snapshot written by Encode.
func DecodeMinerSnapshot(r io.Reader) (*MinerSnapshot, error) {
	var s MinerSnapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding miner snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// MineContext is Mine with cancellation: ctx is checked before the
// followings-graph assembly and before each signature set's reduction in
// the marking pass, so a mine under a request deadline returns promptly.
func (im *IncrementalMiner) MineContext(ctx context.Context, opt Options) (*graph.Digraph, error) {
	return im.MineTracedContext(ctx, opt, nil)
}

// MineTracedContext is MineContext with per-stage spans (assemble → scc →
// mark → merge) recorded on tr; a nil trace is free. The service's /model
// path uses it to feed the mine_stage_seconds histograms.
func (im *IncrementalMiner) MineTracedContext(ctx context.Context, opt Options, tr *obs.Trace) (*graph.Digraph, error) {
	im.init()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return im.st.mine(ctx, opt, true, tr, "assemble", "merge", nil)
}

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
// ingesting.
func (im *IncrementalMiner) Snapshot() *MinerSnapshot {
	im.init()
	s := &MinerSnapshot{
		Schema:     MinerSnapshotSchema,
		Executions: im.executions,
		Activities: make([]string, 0, len(im.activities)),
		Order:      pairCountsOf(im.pc.order),
		Overlap:    pairCountsOf(im.pc.overlap),
		Cooc:       pairCountsOf(im.pc.cooc),
		Sigs:       make([][]string, 0, len(im.sigs)),
	}
	for a := range im.activities {
		s.Activities = append(s.Activities, a)
	}
	sort.Strings(s.Activities)
	keys := make([]string, 0, len(im.sigs))
	for k := range im.sigs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		set := im.sigs[k]
		cp := make([]string, len(set))
		copy(cp, set)
		s.Sigs = append(s.Sigs, cp)
	}
	return s
}

// Validate checks the snapshot's structural invariants: schema, non-negative
// counts, and sorted signature sets.
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
		if !sort.StringsAreSorted(set) {
			return fmt.Errorf("core: snapshot signature set %v is not sorted", set)
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
		im.activities[a] = true
	}
	for _, pc := range s.Order {
		im.pc.order[graph.Edge{From: pc.From, To: pc.To}] += pc.Count
	}
	for _, pc := range s.Overlap {
		im.pc.overlap[graph.Edge{From: pc.From, To: pc.To}] += pc.Count
	}
	for _, pc := range s.Cooc {
		im.pc.cooc[graph.Edge{From: pc.From, To: pc.To}] += pc.Count
	}
	for _, set := range s.Sigs {
		cp := make([]string, len(set))
		copy(cp, set)
		im.sigs[signature(cp)] = cp
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
	sp := tr.Start("assemble")
	acts := make([]string, 0, len(im.activities))
	for a := range im.activities {
		acts = append(acts, a)
	}
	sort.Strings(acts)
	g, err := assembleFollowsGraph(acts, im.pc, opt)
	if err != nil {
		return nil, err
	}
	sp.End()
	sp = tr.Start("scc")
	g.RemoveIntraSCCEdges()
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp = tr.Start("mark")
	sr, err := graph.NewSubsetReducer(g)
	if err != nil {
		return nil, fmt.Errorf("core: incremental marking: %w", err)
	}
	// The marking replays through the same dense MarkSubsetInto kernel the
	// batch pipeline uses: one scratch and one pair bitset serve every
	// signature, and the bitset union is order-independent, so iterating
	// the signature map directly is deterministic.
	n := sr.N()
	sc := sr.NewMarkScratch()
	marked := graph.NewBitset(n * n)
	for _, set := range im.sigs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc.Members = sc.Members[:0]
		for _, a := range set {
			if i, ok := g.VertexIndex(a); ok {
				sc.Members = append(sc.Members, i)
			}
		}
		sr.MarkSubsetInto(sc.Members, sc, marked)
	}
	sr.PruneUnmarked(marked)
	sp.End()
	sp = tr.Start("merge")
	g = MergeInstances(g)
	sp.End()
	return g, nil
}

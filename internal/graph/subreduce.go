package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// SubsetReducer answers repeated induced-subgraph transitive-reduction
// queries against one fixed DAG. Algorithm 2's marking pass (and the
// incremental miner's replay of it) computes the transitive reduction of
// the dependency graph's induced subgraph once per distinct activity-set
// signature. The reducer computes the full graph's bookkeeping once — each
// vertex's rank in a topological order and one successor bitset row per
// vertex over the shared dense index space — and reuses it for every
// subset: the restriction of a DAG's topological order to any vertex
// subset is a valid topological order of the induced subgraph, so each
// query runs Algorithm 4's reverse sweep over the subset's members alone,
// with no per-query graph construction.
//
// The reducer holds a reference to g; g must not be mutated while the
// reducer is in use, except through PruneUnmarked. Queries with distinct
// scratches are safe for concurrent use from multiple goroutines.
type SubsetReducer struct {
	g     *Digraph
	n     int
	words int      // ⌈n/64⌉, the length of one row
	rank  []int    // rank[v] = v's position in the topological order
	order []int    // order[i] = the vertex of rank i
	rows  []uint64 // n rows × words, flat; row u holds the successors of u
}

// NewSubsetReducer precomputes the topological ranks and successor rows of
// g. It returns ErrCyclic (wrapped) when g is not a DAG, since induced
// subgraphs of a cyclic graph have no unique transitive reduction in
// general.
func NewSubsetReducer(g *Digraph) (*SubsetReducer, error) {
	r, err := newSubsetReducer(g)
	if err != nil {
		return nil, fmt.Errorf("subset reducer: %w", err)
	}
	return r, nil
}

// newSubsetReducer is NewSubsetReducer with TopoSort's error left for the
// caller to wrap in its own operation's name.
func newSubsetReducer(g *Digraph) (*SubsetReducer, error) {
	labels, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	w := (n + 63) / 64
	r := &SubsetReducer{g: g, n: n, words: w, rank: make([]int, n), order: make([]int, n), rows: make([]uint64, n*w)}
	for i, v := range labels {
		u := g.index[v]
		r.order[i], r.rank[u] = u, i
	}
	for u, succ := range g.succ {
		row := r.rows[u*w : (u+1)*w]
		for v := range succ {
			row[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	return r, nil
}

// MarkScratch is the reusable working state of MarkSubsetInto: the member
// bitset, one descendant row per vertex (flat), a rank buffer, and a
// members buffer for callers that translate label or interner IDs into
// dense indices. One scratch serves one goroutine; allocate one per worker
// with NewMarkScratch and reuse it across queries — MarkSubsetInto itself
// never allocates, which is what keeps the Algorithm 2 marking kernel on
// the //procmine:hot path allocation-free.
type MarkScratch struct {
	member []uint64 // the current query's members; empty between queries
	desc   []uint64 // n rows × words, flat; row u = desc[u*words:(u+1)*words]
	ranks  []int    // capacity n: the current query's topological ranks
	// Members is a caller-owned buffer of capacity n for assembling the
	// dense member indices of a query without allocating.
	Members []int
}

// NewMarkScratch allocates scratch for MarkSubsetInto queries against this
// reducer's graph.
func (r *SubsetReducer) NewMarkScratch() *MarkScratch {
	return &MarkScratch{
		member:  make([]uint64, r.words),
		desc:    make([]uint64, r.n*r.words),
		ranks:   make([]int, r.n),
		Members: make([]int, 0, r.n),
	}
}

// MarkSubsetInto computes the transitive reduction of the subgraph induced
// by the given dense vertex indices and sets, for each reduction edge
// (u, v), bit u*n+v of marked (capacity n²). It runs Algorithm 4's reverse
// sweep over the members alone, in descending topological rank: u's
// member successors are its row ANDed with the member set; those reachable
// through another member successor — the OR of their descendant rows — are
// shortcuts, and the rest are marked. A query of k members over a graph of
// n vertices costs O(k log k + Σ_{u∈S} w·(1 + |succ(u)∩S|)) with
// w = ⌈n/64⌉. Out-of-range and duplicate indices are ignored. Multiple
// goroutines may query concurrently with distinct scratches and marked
// sets; marked sets merge with Bitset.Or since each query only sets bits.
func (r *SubsetReducer) MarkSubsetInto(members []int, sc *MarkScratch, marked *Bitset) {
	member, ranks, w := sc.member, sc.ranks, r.words
	k := 0
	for _, v := range members {
		if v < 0 || v >= r.n || member[v>>6]&(1<<(uint(v)&63)) != 0 {
			continue
		}
		member[v>>6] |= 1 << (uint(v) & 63)
		ranks[k] = r.rank[v]
		k++
	}
	slices.Sort(ranks[:k])
	for i := k - 1; i >= 0; i-- {
		u := r.order[ranks[i]]
		row, desc := r.rows[u*w:(u+1)*w], sc.desc[u*w:(u+1)*w]
		// Member successors rank above u, so their descendant rows were
		// rewritten earlier in this sweep — rows from previous queries are
		// never read.
		clear(desc)
		for j, word := range row {
			for cand := word & member[j]; cand != 0; cand &= cand - 1 {
				v := j<<6 | bits.TrailingZeros64(cand)
				for x, d := range sc.desc[v*w : (v+1)*w] {
					desc[x] |= d
				}
			}
		}
		// desc now holds everything reachable from u through at least two
		// edges; a member successor outside it is the only path from u to
		// it (Lemma 7), so its edge stays.
		for j, word := range row {
			cand := word & member[j]
			for keep := cand &^ desc[j]; keep != 0; keep &= keep - 1 {
				marked.Set(u*r.n + (j<<6 | bits.TrailingZeros64(keep)))
			}
			desc[j] |= cand
		}
	}
	for _, rk := range ranks[:k] {
		v := r.order[rk]
		member[v>>6] &^= 1 << (uint(v) & 63)
	}
}

// PruneUnmarked removes from the reducer's graph every edge (u, v) whose
// bit u*n+v is unset in marked — Algorithm 2's step 6 — and returns how
// many it removed. It walks the successor rows, not the graph's maps, and
// drops the removed edges from the rows too, so the reducer stays valid for
// the pruned graph.
func (r *SubsetReducer) PruneUnmarked(marked *Bitset) int {
	g, w := r.g, r.words
	removed := 0
	for u := 0; u < r.n; u++ {
		row := r.rows[u*w : (u+1)*w]
		for j, word := range row {
			for x := word; x != 0; x &= x - 1 {
				v := j<<6 | bits.TrailingZeros64(x)
				if marked.Has(u*r.n + v) {
					continue
				}
				delete(g.succ[u], v)
				delete(g.pred[v], u)
				row[j] &^= 1 << (uint(v) & 63)
				removed++
			}
		}
	}
	g.edges -= removed
	return removed
}

// N returns the dense vertex count of the reducer's graph — the dimension
// of the index space MarkSubsetInto operates in.
func (r *SubsetReducer) N() int { return r.n }

package graph

import (
	"fmt"
	"sort"
)

// TransitiveReductionNaive is the O(E * (V+E)) oracle and ablation
// baseline for TransitiveReduction: for each edge (u,v), temporarily delete
// it and test whether v is still reachable from u; if so the edge is
// redundant. Only valid for DAGs.
func TransitiveReductionNaive(g *Digraph) (*Digraph, error) {
	if !g.IsDAG() {
		return nil, fmt.Errorf("transitive reduction (naive): %w", ErrCyclic)
	}
	red := g.Clone()
	for _, e := range g.Edges() {
		red.RemoveEdge(e.From, e.To)
		if !red.Reachable(e.From, e.To) {
			red.AddEdge(e.From, e.To)
		}
	}
	return red, nil
}

// ReduceSubset is the allocating, label-space oracle for MarkSubsetInto: the
// edges of the transitive reduction of the subgraph of r's graph induced by
// the given labels, sorted by (From, To), or nil when no label is in the
// graph. It sweeps the reducer's topological order over every vertex,
// skipping non-members, and takes sorted successor lists from the graph
// itself rather than from the reducer's rows.
func (r *SubsetReducer) ReduceSubset(members []string) []Edge {
	member := NewBitset(r.n)
	any := false
	for _, v := range members {
		if i, ok := r.g.index[v]; ok {
			member.Set(i)
			any = true
		}
	}
	if !any {
		return nil
	}
	desc := make([]*Bitset, r.n)
	var edges []Edge
	for i := r.n - 1; i >= 0; i-- {
		u := r.order[i]
		if !member.Has(u) {
			continue
		}
		succ := make([]int, 0, len(r.g.succ[u]))
		for v := range r.g.succ[u] {
			succ = append(succ, v)
		}
		sort.Ints(succ)
		through := NewBitset(r.n)
		for _, v := range succ {
			if member.Has(v) && desc[v] != nil {
				through.Or(desc[v])
			}
		}
		d := through.Copy()
		for _, v := range succ {
			if !member.Has(v) || through.Has(v) {
				continue
			}
			edges = append(edges, Edge{From: r.g.label[u], To: r.g.label[v]})
			d.Set(v)
		}
		desc[u] = d
	}
	sortEdges(edges)
	return edges
}

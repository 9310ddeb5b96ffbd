package graph

import "fmt"

// TransitiveReduction returns the transitive reduction of a DAG: the unique
// smallest subgraph with the same transitive closure (Aho, Garey & Ullman
// 1972). It implements Algorithm 4 ("TR") from the appendix of the paper:
//
//  1. Find a topological ordering of G.
//  2. Visit each vertex v in reverse topological order, maintaining for each
//     vertex its descendant set.
//  3. A successor of v that is also reachable through another successor is a
//     shortcut; remove it from succ(v).
//
// It is SubsetReducer.MarkSubsetInto's sweep with every vertex a member, so
// Algorithm 1, Algorithm 4 and Algorithm 2's per-signature marking share one
// kernel. The input graph is not modified. It returns ErrCyclic (wrapped)
// when g is not a DAG, since a graph with cycles has no unique transitive
// reduction.
func (g *Digraph) TransitiveReduction() (*Digraph, error) {
	r, err := newSubsetReducer(g)
	if err != nil {
		return nil, fmt.Errorf("transitive reduction: %w", err)
	}
	marked := NewBitset(r.n * r.n)
	r.MarkSubsetInto(r.order, r.NewMarkScratch(), marked)
	red := New()
	for _, v := range g.label {
		red.AddVertex(v)
	}
	for _, c := range marked.Elements() {
		red.AddEdge(g.label[c/r.n], g.label[c%r.n])
	}
	return red, nil
}

package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// oracleReduceSubset answers a subset reduction query the slow way: build
// the induced subgraph and reduce it by per-edge reachability, with no code
// shared with the Algorithm 4 sweep.
func oracleReduceSubset(t *testing.T, g *Digraph, members []string) []Edge {
	t.Helper()
	red, err := TransitiveReductionNaive(g.InducedSubgraph(members))
	if err != nil {
		t.Fatalf("oracle TransitiveReductionNaive: %v", err)
	}
	return red.Edges()
}

func TestSubsetReducerMatchesInducedReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		n := 2 + int(rng.Int31n(16))
		g := randomDAG(rng, n, 0.35)
		sr, err := NewSubsetReducer(g)
		if err != nil {
			return false
		}
		labels := g.Vertices()
		for trial := 0; trial < 6; trial++ {
			var members []string
			for _, v := range labels {
				if rng.Float64() < 0.6 {
					members = append(members, v)
				}
			}
			got := sr.ReduceSubset(members)
			want := oracleReduceSubset(t, g, members)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("subset %v: got %v, want %v", members, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetReducerFullSetMatchesTransitiveReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomDAG(rng, 12, 0.3)
	sr, err := NewSubsetReducer(g)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleReduceSubset(t, g, g.Vertices())
	red, err := g.TransitiveReduction()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(red.Edges(), want) {
		t.Fatalf("TransitiveReduction = %v, want %v", red.Edges(), want)
	}
	if got := sr.ReduceSubset(g.Vertices()); !reflect.DeepEqual(got, want) {
		t.Fatalf("full-set reduction = %v, want %v", got, want)
	}
}

func TestSubsetReducerIgnoresUnknownLabels(t *testing.T) {
	g := NewFromEdges(Edge{"A", "B"}, Edge{"B", "C"}, Edge{"A", "C"})
	sr, err := NewSubsetReducer(g)
	if err != nil {
		t.Fatal(err)
	}
	got := sr.ReduceSubset([]string{"A", "B", "C", "ghost"})
	want := []Edge{{"A", "B"}, {"B", "C"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reduction = %v, want %v", got, want)
	}
	if edges := sr.ReduceSubset([]string{"ghost", "phantom"}); edges != nil {
		t.Fatalf("all-unknown subset should reduce to nil, got %v", edges)
	}
	if edges := sr.ReduceSubset(nil); edges != nil {
		t.Fatalf("empty subset should reduce to nil, got %v", edges)
	}
}

// markedEdges converts a MarkSubsetInto result back to a sorted edge slice
// for comparison against ReduceSubset.
func markedEdges(g *Digraph, marked *Bitset) []Edge {
	n := g.NumVertices()
	var out []Edge
	for _, cell := range marked.Elements() {
		out = append(out, Edge{From: g.label[cell/n], To: g.label[cell%n]})
	}
	sortEdges(out)
	return out
}

func sortEdges(es []Edge) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && (es[j].From < es[j-1].From ||
			(es[j].From == es[j-1].From && es[j].To < es[j-1].To)); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// TestMarkSubsetIntoMatchesReduceSubset pins the scratch-based marking
// kernel against the allocating ReduceSubset across random DAGs and
// subsets, reusing one scratch and one marked set across queries so
// cross-query staleness would surface.
func TestMarkSubsetIntoMatchesReduceSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		n := 2 + int(rng.Int31n(16))
		g := randomDAG(rng, n, 0.35)
		sr, err := NewSubsetReducer(g)
		if err != nil {
			return false
		}
		sc := sr.NewMarkScratch()
		labels := g.Vertices()
		for trial := 0; trial < 6; trial++ {
			var members []string
			for _, v := range labels {
				if rng.Float64() < 0.6 {
					members = append(members, v)
				}
			}
			sc.Members = sc.Members[:0]
			for _, v := range members {
				if i, ok := g.VertexIndex(v); ok {
					sc.Members = append(sc.Members, i)
				}
			}
			marked := NewBitset(sr.N() * sr.N())
			sr.MarkSubsetInto(sc.Members, sc, marked)
			got := markedEdges(g, marked)
			want := sr.ReduceSubset(members)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("subset %v: MarkSubsetInto = %v, ReduceSubset = %v", members, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMarkSubsetIntoAccumulates checks that marks from successive queries
// accumulate in one marked set (the union the marking pass consumes) and
// that out-of-range indices are ignored.
func TestMarkSubsetIntoAccumulates(t *testing.T) {
	g := NewFromEdges(Edge{"A", "B"}, Edge{"B", "C"}, Edge{"A", "C"}, Edge{"C", "D"})
	sr, err := NewSubsetReducer(g)
	if err != nil {
		t.Fatal(err)
	}
	sc := sr.NewMarkScratch()
	marked := NewBitset(sr.N() * sr.N())
	idx := func(v string) int {
		i, ok := g.VertexIndex(v)
		if !ok {
			t.Fatalf("missing vertex %q", v)
		}
		return i
	}
	sr.MarkSubsetInto([]int{idx("A"), idx("C")}, sc, marked)
	sr.MarkSubsetInto([]int{idx("C"), idx("D"), -1, 99}, sc, marked)
	want := []Edge{{"A", "C"}, {"C", "D"}}
	if got := markedEdges(g, marked); !reflect.DeepEqual(got, want) {
		t.Fatalf("accumulated marks = %v, want %v", got, want)
	}
}

func TestSubsetReducerRejectsCyclicGraph(t *testing.T) {
	g := NewFromEdges(Edge{"A", "B"}, Edge{"B", "A"})
	if _, err := NewSubsetReducer(g); !errors.Is(err, ErrCyclic) {
		t.Fatalf("NewSubsetReducer on cycle: err = %v, want ErrCyclic", err)
	}
}

// TestSubsetReducerConcurrent exercises the documented concurrency contract:
// one reducer, many goroutines each with its own scratch and marked set, all
// answers correct. Run with -race.
func TestSubsetReducerConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomDAG(rng, 14, 0.35)
	sr, err := NewSubsetReducer(g)
	if err != nil {
		t.Fatal(err)
	}
	labels := g.Vertices()
	subsets := make([][]string, 16)
	for i := range subsets {
		for _, v := range labels {
			if rng.Float64() < 0.5 {
				subsets[i] = append(subsets[i], v)
			}
		}
	}
	var wg sync.WaitGroup
	results := make([][]Edge, len(subsets))
	for i := range subsets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := sr.NewMarkScratch()
			for _, v := range subsets[i] {
				j, _ := g.VertexIndex(v)
				sc.Members = append(sc.Members, j)
			}
			marked := NewBitset(sr.N() * sr.N())
			sr.MarkSubsetInto(sc.Members, sc, marked)
			results[i] = markedEdges(g, marked)
		}(i)
	}
	wg.Wait()
	for i := range subsets {
		want := oracleReduceSubset(t, g, subsets[i])
		got := results[i]
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("subset %v: concurrent reduction = %v, want %v", subsets[i], got, want)
		}
	}
}

// TestPruneUnmarked checks that pruning drops exactly the unmarked edges
// from both adjacency directions and the edge count, and that the reducer
// then answers queries on the pruned graph.
func TestPruneUnmarked(t *testing.T) {
	g := NewFromEdges(Edge{"A", "B"}, Edge{"B", "C"}, Edge{"A", "C"}, Edge{"C", "D"})
	sr, err := NewSubsetReducer(g)
	if err != nil {
		t.Fatal(err)
	}
	idx := func(v string) int { i, _ := g.VertexIndex(v); return i }
	marked := NewBitset(sr.N() * sr.N())
	sc := sr.NewMarkScratch()
	sr.MarkSubsetInto([]int{idx("A"), idx("B"), idx("C")}, sc, marked)
	if removed := sr.PruneUnmarked(marked); removed != 2 {
		t.Fatalf("PruneUnmarked removed %d edges, want 2 (A->C, C->D)", removed)
	}
	want := []Edge{{"A", "B"}, {"B", "C"}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) || g.NumEdges() != 2 {
		t.Fatalf("pruned edges = %v (NumEdges %d), want %v", got, g.NumEdges(), want)
	}
	if g.InDegree("C") != 1 || g.InDegree("D") != 0 {
		t.Fatalf("pred maps not pruned: InDegree(C)=%d InDegree(D)=%d", g.InDegree("C"), g.InDegree("D"))
	}
	after := NewBitset(sr.N() * sr.N())
	sr.MarkSubsetInto([]int{idx("A"), idx("C"), idx("D")}, sc, after)
	if got := markedEdges(g, after); len(got) != 0 {
		t.Fatalf("query on the pruned graph marked %v, want none", got)
	}
}

// FuzzMarkSubsetInto holds the member-only sweep to the naive per-edge
// reachability oracle. Each input draws a DAG of 1-200 vertices whose dense
// indices are not in topological order (rows of 1-4 words), then runs a
// sequence of up to 64 queries through one scratch into one marked set:
// byte 255 ends a query, and any other byte b is the member index b-1, so
// members include duplicates, -1 and indices at or past n. After every
// query the marked set must equal the union of the oracle's reductions so
// far, and the scratch's member set must be empty again — a leaked bit
// would corrupt the next signature without failing any single-query test.
func FuzzMarkSubsetInto(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), []byte{1, 1, 0})
	f.Add(int64(2), uint8(4), uint8(90), []byte{1, 2, 3, 4, 5, 255, 5, 3, 3, 0, 254, 255, 2, 4})
	f.Add(int64(3), uint8(63), uint8(30), []byte{1, 10, 20, 30, 40, 50, 60, 64, 65, 255, 64, 10, 1})
	f.Add(int64(4), uint8(64), uint8(20), []byte{65, 66, 1, 2, 33, 255, 255, 66, 65, 64})
	f.Add(int64(5), uint8(129), uint8(12), []byte{1, 40, 80, 120, 129, 130, 131, 200, 253, 255, 131, 130, 129, 128})
	f.Add(int64(6), uint8(199), uint8(8), []byte{1, 50, 100, 150, 199, 200, 201, 202, 254, 255, 200, 100, 0, 201, 150})
	f.Fuzz(func(t *testing.T, seed int64, nb, density uint8, data []byte) {
		n := 1 + int(nb)%200
		rng := rand.New(rand.NewSource(seed))
		g := New()
		labels := make([]string, n) // labels[i] is the vertex at topological position i
		for _, p := range rng.Perm(n) {
			labels[p] = "v" + itoa(p)
			g.AddVertex(labels[p])
		}
		// Up to a quarter of forward pairs; past 32 vertices the expected
		// out-degree is capped near 8 so the naive oracle stays fast.
		p := float64(density%64) / 256
		if n > 32 {
			p *= 32 / float64(n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					g.AddEdge(labels[i], labels[j])
				}
			}
		}
		sr, err := NewSubsetReducer(g)
		if err != nil {
			t.Fatal(err)
		}
		sc := sr.NewMarkScratch()
		marked := NewBitset(n * n)
		want := map[Edge]bool{}
		for q := 0; len(data) > 0 && q < 64; q++ {
			query := data
			if i := bytes.IndexByte(data, 255); i >= 0 {
				query, data = data[:i], data[i+1:]
			} else {
				data = nil
			}
			members := make([]int, 0, len(query))
			var names []string
			for _, b := range query {
				v := int(b) - 1
				members = append(members, v)
				if v >= 0 && v < n {
					names = append(names, g.VertexLabel(v))
				}
			}
			sr.MarkSubsetInto(members, sc, marked)
			for _, w := range sc.member {
				if w != 0 {
					t.Fatalf("members %v: scratch member set not empty after the query: %x", members, sc.member)
				}
			}
			for _, e := range oracleReduceSubset(t, g, names) {
				want[e] = true
			}
			got := markedEdges(g, marked)
			if len(got) != len(want) {
				t.Fatalf("members %v: marked %v, want %d oracle edges", members, got, len(want))
			}
			for _, e := range got {
				if !want[e] {
					t.Fatalf("members %v: marked %v, not in the oracle's union", members, e)
				}
			}
		}
	})
}

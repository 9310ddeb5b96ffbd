package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTransitiveReductionTriangle(t *testing.T) {
	// A->B->C plus shortcut A->C; reduction drops the shortcut.
	g := NewFromEdges(Edge{"A", "B"}, Edge{"B", "C"}, Edge{"A", "C"})
	red, err := g.TransitiveReduction()
	if err != nil {
		t.Fatalf("TransitiveReduction: %v", err)
	}
	want := []Edge{{"A", "B"}, {"B", "C"}}
	if !reflect.DeepEqual(red.Edges(), want) {
		t.Fatalf("reduction edges = %v, want %v", red.Edges(), want)
	}
}

func TestTransitiveReductionDiamondKeepsAll(t *testing.T) {
	// Diamond A->{B,C}->D has no redundant edges.
	g := NewFromEdges(Edge{"A", "B"}, Edge{"A", "C"}, Edge{"B", "D"}, Edge{"C", "D"})
	red, err := g.TransitiveReduction()
	if err != nil {
		t.Fatalf("TransitiveReduction: %v", err)
	}
	if red.NumEdges() != 4 {
		t.Fatalf("reduction has %d edges, want 4: %v", red.NumEdges(), red.Edges())
	}
}

func TestTransitiveReductionLongShortcuts(t *testing.T) {
	// Chain A->B->C->D->E plus shortcuts at all spans.
	g := NewFromEdges(
		Edge{"A", "B"}, Edge{"B", "C"}, Edge{"C", "D"}, Edge{"D", "E"},
		Edge{"A", "C"}, Edge{"A", "D"}, Edge{"A", "E"},
		Edge{"B", "D"}, Edge{"B", "E"}, Edge{"C", "E"},
	)
	red, err := g.TransitiveReduction()
	if err != nil {
		t.Fatalf("TransitiveReduction: %v", err)
	}
	want := []Edge{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "E"}}
	if !reflect.DeepEqual(red.Edges(), want) {
		t.Fatalf("reduction edges = %v, want %v", red.Edges(), want)
	}
}

func TestTransitiveReductionPaperExample6(t *testing.T) {
	// Example 6 / Figure 3: after step 3 on log {ABCDE, ACDBE, ACBDE} the
	// graph has these edges; the reduction must be
	// A->B, A->C, C->D, B->E, D->E.
	g := NewFromEdges(
		Edge{"A", "B"}, Edge{"A", "C"}, Edge{"A", "D"}, Edge{"A", "E"},
		Edge{"B", "E"},
		Edge{"C", "D"}, Edge{"C", "E"},
		Edge{"D", "E"},
	)
	red, err := g.TransitiveReduction()
	if err != nil {
		t.Fatalf("TransitiveReduction: %v", err)
	}
	want := []Edge{{"A", "B"}, {"A", "C"}, {"B", "E"}, {"C", "D"}, {"D", "E"}}
	if !reflect.DeepEqual(red.Edges(), want) {
		t.Fatalf("reduction edges = %v, want %v", red.Edges(), want)
	}
}

func TestTransitiveReductionCyclicError(t *testing.T) {
	g := NewFromEdges(Edge{"A", "B"}, Edge{"B", "A"})
	if _, err := g.TransitiveReduction(); !errors.Is(err, ErrCyclic) {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
	if _, err := TransitiveReductionNaive(g); !errors.Is(err, ErrCyclic) {
		t.Fatalf("naive err = %v, want ErrCyclic", err)
	}
}

// randomDAG builds a random DAG over n vertices where each forward pair gets
// an edge with probability p. Vertex labels are v0..v{n-1} in topological
// order by construction.
func randomDAG(rng *rand.Rand, n int, p float64) *Digraph {
	g := New()
	labels := make([]string, n)
	for i := range labels {
		labels[i] = "v" + itoa(i)
		g.AddVertex(labels[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(labels[i], labels[j])
			}
		}
	}
	return g
}

func TestTransitiveReductionPreservesClosureProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		n := 2 + int(rng.Int31n(14))
		g := randomDAG(rng, n, 0.3)
		red, err := g.TransitiveReduction()
		if err != nil {
			return false
		}
		// Closure must be preserved and the reduction must be a subgraph.
		if !g.SameClosure(red) {
			return false
		}
		for _, e := range red.Edges() {
			if !g.HasEdge(e.From, e.To) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTransitiveReductionMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(12)
		g := randomDAG(rng, n, 0.35)
		fast, err := g.TransitiveReduction()
		if err != nil {
			t.Fatalf("fast: %v", err)
		}
		naive, err := TransitiveReductionNaive(g)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		if !EqualGraphs(fast, naive) {
			t.Fatalf("fast and naive reductions differ on %v:\nfast:  %v\nnaive: %v",
				g, fast, naive)
		}
	}
}

func TestTransitiveReductionIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		g := randomDAG(rng, 2+rng.Intn(12), 0.4)
		r1, err := g.TransitiveReduction()
		if err != nil {
			t.Fatal(err)
		}
		r2, err := r1.TransitiveReduction()
		if err != nil {
			t.Fatal(err)
		}
		if !EqualGraphs(r1, r2) {
			t.Fatalf("reduction not idempotent on %v", g)
		}
	}
}

func TestTransitiveClosure(t *testing.T) {
	g := NewFromEdges(Edge{"A", "B"}, Edge{"B", "C"})
	c := g.TransitiveClosure()
	want := []Edge{{"A", "B"}, {"A", "C"}, {"B", "C"}}
	if !reflect.DeepEqual(c.Edges(), want) {
		t.Fatalf("closure edges = %v, want %v", c.Edges(), want)
	}
}

func TestTransitiveClosureCyclic(t *testing.T) {
	g := NewFromEdges(Edge{"A", "B"}, Edge{"B", "A"}, Edge{"B", "C"})
	c := g.TransitiveClosure()
	// Everything on or after the cycle is reachable, including self-loops.
	for _, e := range []Edge{{"A", "A"}, {"A", "B"}, {"A", "C"}, {"B", "A"}, {"B", "B"}, {"B", "C"}} {
		if !c.HasEdge(e.From, e.To) {
			t.Errorf("closure missing %v", e)
		}
	}
	if c.HasEdge("C", "A") {
		t.Error("closure has spurious edge C->A")
	}
}

func TestSameClosure(t *testing.T) {
	a := NewFromEdges(Edge{"A", "B"}, Edge{"B", "C"}, Edge{"A", "C"})
	b := NewFromEdges(Edge{"A", "B"}, Edge{"B", "C"})
	if !a.SameClosure(b) {
		t.Error("graphs with same closure reported different")
	}
	c := NewFromEdges(Edge{"A", "B"})
	if a.SameClosure(c) {
		t.Error("different-vertex-set graphs reported same closure")
	}
	d := NewFromEdges(Edge{"A", "B"}, Edge{"C", "B"})
	if b.SameClosure(d) {
		t.Error("different closures reported same")
	}
}

// BenchmarkAblationTransitiveReduction compares the Appendix Algorithm 4
// sweep (TransitiveReduction, the member-only kernel with every vertex a
// member) against the naive per-edge reachability oracle.
func BenchmarkAblationTransitiveReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{50, 150} {
		g := New()
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("v%03d", i)
			g.AddVertex(names[i])
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(names[i], names[j])
				}
			}
		}
		b.Run(fmt.Sprintf("algo4/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.TransitiveReduction(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := TransitiveReductionNaive(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package graph

import (
	"math/rand"
	"strings"
	"testing"
)

func TestReadAdjacencyBasic(t *testing.T) {
	in := "# mined graph\nA -> B C\nB -> E\nC ->\n\nE ->\n"
	g, err := ReadAdjacency(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadAdjacency: %v", err)
	}
	if g.NumVertices() != 4 {
		t.Fatalf("vertices = %d, want 4", g.NumVertices())
	}
	for _, e := range []Edge{{"A", "B"}, {"A", "C"}, {"B", "E"}} {
		if !g.HasEdge(e.From, e.To) {
			t.Errorf("missing edge %v", e)
		}
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
}

func TestReadAdjacencyRHSOnlyVertex(t *testing.T) {
	g, err := ReadAdjacency(strings.NewReader("A -> B\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasVertex("B") {
		t.Fatal("right-hand-side vertex not created")
	}
}

func TestReadAdjacencyErrors(t *testing.T) {
	cases := []string{
		"A B C\n",    // no arrow
		" -> B\n",    // empty source
		"A Z -> B\n", // source with space
	}
	for _, in := range cases {
		if _, err := ReadAdjacency(strings.NewReader(in)); err == nil {
			t.Errorf("ReadAdjacency(%q) accepted invalid input", in)
		}
	}
}

func TestAdjacencyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := make([]*Digraph, 30)
	for i := range graphs {
		graphs[i] = randomDAG(rng, 2+rng.Intn(10), 0.4)
	}
	// Names starting with '#' are vertices, not comments.
	hashes := New()
	hashes.AddEdge("#", "#x")
	hashes.AddEdge("#x", "x#")
	hashes.AddEdge("x#", "#")
	hashes.AddEdge("A", "#")
	hashes.AddVertex("#lonely")
	graphs = append(graphs, hashes)
	for _, g := range graphs {
		got, err := ReadAdjacency(strings.NewReader(g.Adjacency()))
		if err != nil {
			t.Fatalf("round trip parse: %v", err)
		}
		if !EqualGraphs(g, got) {
			t.Fatalf("round trip changed graph:\nin:  %v\nout: %v", g, got)
		}
	}
}

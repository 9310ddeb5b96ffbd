package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"procmine/internal/graph"
	"procmine/internal/wlog"
)

// edge is a test shorthand for graph.Edge construction.
func edge(from, to string) graph.Edge { return graph.Edge{From: from, To: to} }

// edgeStrings renders a graph's edge set for compact comparisons.
func edgeStrings(g *graph.Digraph) []string {
	var out []string
	for _, e := range g.Edges() {
		out = append(out, e.String())
	}
	return out
}

// TestAlgorithm1Example6 reproduces Example 6 / Figure 3: the log
// {ABCDE, ACDBE, ACBDE} yields exactly A->B, A->C, B->E, C->D, D->E.
func TestAlgorithm1Example6(t *testing.T) {
	l := wlog.LogFromStrings("ABCDE", "ACDBE", "ACBDE")
	g, err := MineSpecialDAG(l, Options{})
	if err != nil {
		t.Fatalf("MineSpecialDAG: %v", err)
	}
	want := []string{"A->B", "A->C", "B->E", "C->D", "D->E"}
	if got := edgeStrings(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestAlgorithm1Chain(t *testing.T) {
	l := wlog.LogFromStrings("ABCDE", "ABCDE")
	g, err := MineSpecialDAG(l, Options{})
	if err != nil {
		t.Fatalf("MineSpecialDAG: %v", err)
	}
	want := []string{"A->B", "B->C", "C->D", "D->E"}
	if got := edgeStrings(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestAlgorithm1ParallelBranches(t *testing.T) {
	// S, then A and B in parallel, then E: both interleavings observed.
	l := wlog.LogFromStrings("SABE", "SBAE")
	g, err := MineSpecialDAG(l, Options{})
	if err != nil {
		t.Fatalf("MineSpecialDAG: %v", err)
	}
	want := []string{"A->E", "B->E", "S->A", "S->B"}
	if got := edgeStrings(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestAlgorithm1SingleExecutionIsChain(t *testing.T) {
	// With one execution every pairwise order is a dependency; the minimal
	// conformal graph is the chain.
	l := wlog.LogFromStrings("ABC")
	g, err := MineSpecialDAG(l, Options{})
	if err != nil {
		t.Fatalf("MineSpecialDAG: %v", err)
	}
	want := []string{"A->B", "B->C"}
	if got := edgeStrings(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestAlgorithm1RejectsPartialExecutions(t *testing.T) {
	l := wlog.LogFromStrings("ABCE", "ACE")
	if _, err := MineSpecialDAG(l, Options{}); !errors.Is(err, ErrNotSpecialForm) {
		t.Fatalf("err = %v, want ErrNotSpecialForm", err)
	}
}

func TestAlgorithm1RejectsRepeatedActivities(t *testing.T) {
	l := wlog.LogFromStrings("ABAB")
	if _, err := MineSpecialDAG(l, Options{}); !errors.Is(err, ErrNotSpecialForm) {
		t.Fatalf("err = %v, want ErrNotSpecialForm", err)
	}
}

func TestAlgorithm1CyclicFollowsError(t *testing.T) {
	// For plain Algorithm 1 a followings cycle cannot survive 2-cycle
	// removal (each surviving edge is consistent across all executions, and
	// the intersection of total orders is a partial order) — that is the
	// heart of Theorem 4. But with a noise threshold the minority direction
	// of each pair can be filtered instead of cancelling, leaving the
	// 3-cycle A->B->C->A: each of those orders holds in 2 of 3 executions,
	// each reverse in only 1.
	l := wlog.LogFromStrings("ABC", "CAB", "BCA")
	if _, err := MineSpecialDAG(l, Options{}); err != nil {
		t.Fatalf("plain MineSpecialDAG must succeed (orders cancel): %v", err)
	}
	_, err := MineSpecialDAG(l, Options{MinSupport: 2})
	if !errors.Is(err, ErrCyclicFollows) {
		t.Fatalf("err = %v, want ErrCyclicFollows", err)
	}
}

// TestAlgorithm2Example7 reproduces Example 7 / Figure 4: the log
// {ABCF, ACDF, ADEF, AECF} has the strongly connected component {C, D, E}
// whose internal edges are removed; step 6 then drops A->F and B->F.
func TestAlgorithm2Example7(t *testing.T) {
	l := wlog.LogFromStrings("ABCF", "ACDF", "ADEF", "AECF")
	g, err := MineGeneralDAG(l, Options{})
	if err != nil {
		t.Fatalf("MineGeneralDAG: %v", err)
	}
	want := []string{"A->B", "A->C", "A->D", "A->E", "B->C", "C->F", "D->F", "E->F"}
	if got := edgeStrings(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

// TestAlgorithm2Example5 mines the Example 5 log {ADCE, ABCDE}; the result
// must be a dependency graph that admits both executions (the first graph of
// Figure 2 is one such conformal graph).
func TestAlgorithm2Example5(t *testing.T) {
	l := wlog.LogFromStrings("ADCE", "ABCDE")
	g, err := MineGeneralDAG(l, Options{})
	if err != nil {
		t.Fatalf("MineGeneralDAG: %v", err)
	}
	want := []string{"A->B", "A->C", "A->D", "B->C", "B->D", "C->E", "D->E"}
	if got := edgeStrings(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestAlgorithm2AgreesWithAlgorithm1OnSpecialLogs(t *testing.T) {
	logs := [][]string{
		{"ABCDE", "ACDBE", "ACBDE"},
		{"SABE", "SBAE"},
		{"ABC"},
		{"ABCD", "ABDC", "ADBC"},
	}
	for _, seqs := range logs {
		l := wlog.LogFromStrings(seqs...)
		g1, err := MineSpecialDAG(l, Options{})
		if err != nil {
			t.Fatalf("MineSpecialDAG(%v): %v", seqs, err)
		}
		g2, err := MineGeneralDAG(l, Options{})
		if err != nil {
			t.Fatalf("MineGeneralDAG(%v): %v", seqs, err)
		}
		if !graph.EqualGraphs(g1, g2) {
			t.Errorf("algorithms disagree on %v:\nAlg1: %v\nAlg2: %v", seqs, g1, g2)
		}
	}
}

func TestAlgorithm2OptionalBranch(t *testing.T) {
	// C is optional: A->B->D always, B->C->D sometimes.
	l := wlog.LogFromStrings("ABD", "ABCD")
	g, err := MineGeneralDAG(l, Options{})
	if err != nil {
		t.Fatalf("MineGeneralDAG: %v", err)
	}
	want := []string{"A->B", "B->C", "B->D", "C->D"}
	if got := edgeStrings(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestAlgorithm2ResultIsDAG(t *testing.T) {
	l := wlog.LogFromStrings("ABCF", "ACDF", "ADEF", "AECF", "ABF", "AF")
	g, err := MineGeneralDAG(l, Options{})
	if err != nil {
		t.Fatalf("MineGeneralDAG: %v", err)
	}
	if !g.IsDAG() {
		t.Fatal("Algorithm 2 produced a cyclic graph")
	}
}

func TestAlgorithm2EmptyLog(t *testing.T) {
	g, err := MineGeneralDAG(&wlog.Log{}, Options{})
	if err != nil {
		t.Fatalf("MineGeneralDAG(empty): %v", err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty log mined to non-empty graph: %v", g)
	}
}

func TestAlgorithm2NoiseThreshold(t *testing.T) {
	// 9 clean chain executions plus 1 corrupted (B and C swapped).
	seqs := []string{
		"ABCD", "ABCD", "ABCD", "ABCD", "ABCD",
		"ABCD", "ABCD", "ABCD", "ABCD", "ACBD",
	}
	l := wlog.LogFromStrings(seqs...)

	// Without a threshold, B and C look independent.
	plain, err := MineGeneralDAG(l, Options{})
	if err != nil {
		t.Fatalf("MineGeneralDAG: %v", err)
	}
	if plain.HasEdge("B", "C") {
		t.Error("without threshold B->C should cancel against the corrupt C->B")
	}

	// With threshold 2 the single corrupt observation is discarded and the
	// chain is recovered exactly.
	clean, err := MineGeneralDAG(l, Options{MinSupport: 2})
	if err != nil {
		t.Fatalf("MineGeneralDAG(threshold): %v", err)
	}
	want := []string{"A->B", "B->C", "C->D"}
	if got := edgeStrings(clean); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestMarkRequiredEdgesCacheCorrectness(t *testing.T) {
	// Two executions with the same activity set but different orders of the
	// independent pair (B, C): the cache key is the vertex set, and the
	// induced reduction must be identical for both.
	l := wlog.LogFromStrings("ABCD", "ACBD", "ABCD")
	g, err := MineGeneralDAG(l, Options{})
	if err != nil {
		t.Fatalf("MineGeneralDAG: %v", err)
	}
	want := []string{"A->B", "A->C", "B->D", "C->D"}
	if got := edgeStrings(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestEffectiveDependencyMethods(t *testing.T) {
	// Example 7: literal Definition 4 says D depends on B (via the SCC
	// interior), but effectively they are independent.
	l := wlog.LogFromStrings("ABCF", "ACDF", "ADEF", "AECF")
	d, err := ComputeDependencies(l, Options{})
	if err != nil {
		t.Fatalf("ComputeDependencies: %v", err)
	}
	if !d.Depends("B", "D") {
		t.Error("literal: D should depend on B via C")
	}
	if d.EffectiveDepends("B", "D") {
		t.Error("effective: B->D path should be gone after SCC removal")
	}
	if !d.EffectiveIndependent("B", "D") {
		t.Error("effective: B and D should be independent")
	}
	if !d.EffectiveDepends("A", "F") {
		t.Error("effective: F should depend on A")
	}
	if d.EffectiveIndependent("A", "F") {
		t.Error("effective: A and F should not be independent")
	}
	got := d.Activities()
	want := []string{"A", "B", "C", "D", "E", "F"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Activities = %v, want %v", got, want)
	}
}

func TestMarkRequiredEdgesExported(t *testing.T) {
	l := wlog.LogFromStrings("ABC", "AC")
	g := graph.NewFromEdges(edge("A", "B"), edge("B", "C"), edge("A", "C"))
	marked, err := MarkRequiredEdges(g, l)
	if err != nil {
		t.Fatal(err)
	}
	// ABC needs A->B->C (shortcut redundant); AC needs the direct A->C.
	for _, e := range []graph.Edge{edge("A", "B"), edge("B", "C"), edge("A", "C")} {
		if !marked[e] {
			t.Errorf("edge %v not marked", e)
		}
	}
}

func TestMarkingParallelManySignatures(t *testing.T) {
	// Hundreds of distinct activity sets through the one marking path,
	// which runs on one core: two mines must give the same graph.
	rng := rand.New(rand.NewSource(77))
	acts := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	var seqs [][]string
	for i := 0; i < 400; i++ {
		var seq []string
		seq = append(seq, "S")
		for _, a := range acts {
			if rng.Float64() < 0.6 {
				seq = append(seq, a)
			}
		}
		seq = append(seq, "Z")
		seqs = append(seqs, seq)
	}
	l := &wlog.Log{}
	for i, s := range seqs {
		l.Executions = append(l.Executions, wlog.FromSequence("m"+itoa(i), s...))
	}
	a, err := MineGeneralDAG(l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MineGeneralDAG(l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.EqualGraphs(a, b) {
		t.Fatal("marking nondeterministic")
	}
}

// TestMarkRequiredEdgesCyclicFailsOnBothPaths drives the exported marking
// pass, the only way to hand the marking a cyclic graph, under GOMAXPROCS 1
// and 4. Marking runs on one core either way, over many distinct sets, and
// must surface the reducer's error rather than hang or swallow it.
func TestMarkRequiredEdgesCyclicFailsOnBothPaths(t *testing.T) {
	g := graph.NewFromEdges(edge("A", "B"), edge("B", "A"))
	l := &wlog.Log{}
	for i := 0; i < 64; i++ {
		// Distinct activity sets {A, B, x_i}, so there are many sets to
		// mark.
		x := "x" + itoa(i)
		g.AddEdge("B", x)
		l.Executions = append(l.Executions, wlog.FromSequence("c"+itoa(i), "A", "B", x))
	}
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			_, err := MarkRequiredEdges(g, l)
			if !errors.Is(err, graph.ErrCyclic) {
				t.Errorf("GOMAXPROCS=%d: err = %v, want graph.ErrCyclic", procs, err)
			}
		})
	}
}

// TestMineCyclicRejectsSeparator is named for the reserved-separator check
// MineCyclic used to make. '#' is no longer reserved, so it pins that
// renaming '#' to '_' in every activity name renames the mined model and
// changes nothing else.
func TestMineCyclicRejectsSeparator(t *testing.T) {
	rename := func(a string) string { return strings.ReplaceAll(a, "#", "_") }
	hashed := &wlog.Log{Executions: []wlog.Execution{
		wlog.FromSequence("x", "A", "bad#name", "x#", "bad#name", "#", "ok"),
		wlog.FromSequence("y", "A", "#", "bad#name", "ok"),
		wlog.FromSequence("z", "A", "x#", "ok"),
	}}
	plain := &wlog.Log{}
	for _, exec := range hashed.Executions {
		var acts []string
		for _, a := range exec.Activities() {
			acts = append(acts, rename(a))
		}
		plain.Executions = append(plain.Executions, wlog.FromSequence(exec.ID, acts...))
	}
	got, err := MineCyclic(hashed, Options{})
	if err != nil {
		t.Fatalf("MineCyclic with '#' names: %v", err)
	}
	want, err := MineCyclic(plain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	renamed := graph.New()
	for _, e := range got.Edges() {
		renamed.AddEdge(rename(e.From), rename(e.To))
	}
	if got.NumVertices() != want.NumVertices() || !graph.EqualGraphs(renamed, want) {
		t.Fatalf("'#' names mine a different model:\ngot:  %v\nwant: %v", edgeStrings(got), edgeStrings(want))
	}
}

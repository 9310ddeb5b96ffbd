package core

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"procmine/internal/graph"
	"procmine/internal/wlog"
)

func TestLabelInstances(t *testing.T) {
	l := wlog.LogFromStrings("ABCBCE")
	labeled := LabelInstances(l)
	got := labeled.Executions[0].Activities()
	want := []string{"A#1", "B#1", "C#1", "B#2", "C#2", "E#1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("labeled = %v, want %v", got, want)
	}
	// Original log untouched.
	if l.Executions[0].Activities()[1] != "B" {
		t.Fatal("LabelInstances mutated its input")
	}
}

// TestLabelInstancesRejectsSeparator is named for the reserved-separator
// check LabelInstances used to make. '#' is no longer reserved, so it pins
// that a name containing '#' labels to name#k and unlabels back to name.
func TestLabelInstancesRejectsSeparator(t *testing.T) {
	l := &wlog.Log{Executions: []wlog.Execution{
		wlog.FromSequence("x", "bad#name", "B#1", "x#", "B#1", "#"),
	}}
	got := LabelInstances(l).Executions[0].Activities()
	want := []string{"bad#name#1", "B#1#1", "x##1", "B#1#2", "##1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("labeled = %v, want %v", got, want)
	}
	for i, a := range l.Executions[0].Activities() {
		if back := UnlabelActivity(got[i]); back != a {
			t.Errorf("UnlabelActivity(%q) = %q, want %q", got[i], back, a)
		}
	}
}

func TestUnlabelActivity(t *testing.T) {
	cases := []struct{ in, want string }{
		{"B#2", "B"},
		{"B#1", "B"},
		{"Check_Request#10", "Check_Request"},
		{"NoSuffix", "NoSuffix"},
	}
	for _, c := range cases {
		if got := UnlabelActivity(c.in); got != c.want {
			t.Errorf("UnlabelActivity(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMergeInstances(t *testing.T) {
	labeled := graph.NewFromEdges(
		edge("A#1", "B#1"),
		edge("B#1", "C#1"),
		edge("C#1", "B#2"), // instance edge across activities -> C->B
		edge("B#1", "B#2"), // same-activity instance edge -> dropped
		edge("B#2", "E#1"),
	)
	g := MergeInstances(labeled)
	want := []string{"A->B", "B->C", "B->E", "C->B"}
	if got := edgeStrings(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged edges = %v, want %v", got, want)
	}
	if g.HasEdge("B", "B") {
		t.Fatal("same-activity instance edge became a self-loop")
	}
}

// TestAlgorithm3Example8 reproduces Example 8 / Figure 6: the log
// {ABDCE, ABDCBCE, ABCBDCE, ADE} contains the loop B->C->B. The labeled
// intermediate graph must have no edges between D and C1 or between D and B2
// (they occur in both orders), and the merged result shows the B/C cycle.
func TestAlgorithm3Example8(t *testing.T) {
	l := wlog.LogFromStrings("ABDCE", "ABDCBCE", "ABCBDCE", "ADE")

	// Intermediate check on the labeled followings graph.
	fg, err := FollowsGraph(LabelInstances(l), Options{})
	if err != nil {
		t.Fatalf("FollowsGraph: %v", err)
	}
	for _, pair := range [][2]string{{"D#1", "C#1"}, {"C#1", "D#1"}, {"D#1", "B#2"}, {"B#2", "D#1"}} {
		if fg.HasEdge(pair[0], pair[1]) {
			t.Errorf("followings graph has edge %s->%s; the paper says both orders cancel", pair[0], pair[1])
		}
	}

	g, err := MineCyclic(l, Options{})
	if err != nil {
		t.Fatalf("MineCyclic: %v", err)
	}
	want := []string{"A->B", "A->D", "B->C", "B->D", "C->B", "C->E", "D->C", "D->E"}
	if got := edgeStrings(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged edges = %v, want %v", got, want)
	}
	// The defining property: the cycle between B and C.
	if !g.HasEdge("B", "C") || !g.HasEdge("C", "B") {
		t.Fatal("mined graph lost the B<->C cycle")
	}
}

func TestAlgorithm3OnAcyclicLogMatchesAlgorithm2(t *testing.T) {
	logs := [][]string{
		{"ABCF", "ACDF", "ADEF", "AECF"},
		{"ABD", "ABCD"},
		{"ADCE", "ABCDE"},
	}
	for _, seqs := range logs {
		l := wlog.LogFromStrings(seqs...)
		g2, err := MineGeneralDAG(l, Options{})
		if err != nil {
			t.Fatalf("MineGeneralDAG(%v): %v", seqs, err)
		}
		g3, err := MineCyclic(l, Options{})
		if err != nil {
			t.Fatalf("MineCyclic(%v): %v", seqs, err)
		}
		if !graph.EqualGraphs(g2, g3) {
			t.Errorf("MineCyclic differs from MineGeneralDAG on acyclic log %v:\nAlg2: %v\nAlg3: %v", seqs, g2, g3)
		}
	}
}

func TestAlgorithm3SelfLoopActivity(t *testing.T) {
	// A process where B can repeat immediately: A B B C and A B C.
	l := wlog.LogFromStrings("ABBC", "ABC")
	g, err := MineCyclic(l, Options{})
	if err != nil {
		t.Fatalf("MineCyclic: %v", err)
	}
	// B#1->B#2 merges into nothing (no self-loop); structure A->B->C.
	want := []string{"A->B", "B->C"}
	if got := edgeStrings(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestAlgorithm3LongerCycle(t *testing.T) {
	// Rework loop B->C->D->B: executions traverse it once or twice.
	l := wlog.LogFromStrings("ABCDE", "ABCDBCDE")
	g, err := MineCyclic(l, Options{})
	if err != nil {
		t.Fatalf("MineCyclic: %v", err)
	}
	for _, e := range []graph.Edge{edge("A", "B"), edge("B", "C"), edge("C", "D"), edge("D", "E")} {
		if !g.HasEdge(e.From, e.To) {
			t.Errorf("missing forward edge %v", e)
		}
	}
	if !g.HasEdge("D", "B") {
		t.Errorf("missing back edge D->B; edges = %v", edgeStrings(g))
	}
	if g.IsDAG() {
		t.Fatal("mined graph should contain the rework cycle")
	}
}

func TestMineCyclicEmptyLog(t *testing.T) {
	g, err := MineCyclic(&wlog.Log{}, Options{})
	if err != nil {
		t.Fatalf("MineCyclic(empty): %v", err)
	}
	if g.NumVertices() != 0 {
		t.Fatalf("empty log mined to non-empty graph: %v", g)
	}
}

func TestMineWithDiagnosticsAcyclic(t *testing.T) {
	l := wlog.LogFromStrings("ABCF", "ACDF", "ADEF", "AECF")
	g, diag, err := MineWithDiagnostics(l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MineGeneralDAG(l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.EqualGraphs(g, plain) {
		t.Fatal("diagnostics pipeline diverges from MineGeneralDAG")
	}
	if diag.Labeled {
		t.Error("acyclic log reported as labeled")
	}
	if diag.Executions != 4 || diag.Activities != 6 {
		t.Errorf("input sizes = %d/%d, want 4/6", diag.Executions, diag.Activities)
	}
	if len(diag.SCCs) != 1 || len(diag.SCCs[0]) != 3 {
		t.Errorf("SCCs = %v, want one cluster {C D E}", diag.SCCs)
	}
	if diag.IntraSCCRemoved != 3 {
		t.Errorf("IntraSCCRemoved = %d, want 3", diag.IntraSCCRemoved)
	}
	if diag.UnmarkedRemoved != 2 { // A->F and B->F
		t.Errorf("UnmarkedRemoved = %d, want 2", diag.UnmarkedRemoved)
	}
	if diag.FinalEdges != g.NumEdges() {
		t.Errorf("FinalEdges = %d, want %d", diag.FinalEdges, g.NumEdges())
	}
	var b strings.Builder
	if err := diag.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Algorithm 2", "step 4", "independence clusters"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("report missing %q:\n%s", want, b.String())
		}
	}
}

func TestMineWithDiagnosticsCyclic(t *testing.T) {
	l := wlog.LogFromStrings("ABDCE", "ABDCBCE", "ABCBDCE", "ADE")
	g, diag, err := MineWithDiagnostics(l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := MineCyclic(l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.EqualGraphs(g, batch) {
		t.Fatal("cyclic diagnostics pipeline diverges from MineCyclic")
	}
	if !diag.Labeled {
		t.Error("cyclic log not reported as labeled")
	}
	if diag.TwoCycleRemoved == 0 {
		t.Error("expected two-cycle cancellations (D vs C#1, D vs B#2)")
	}
}

func TestMineWithDiagnosticsThresholdCounts(t *testing.T) {
	l := wlog.LogFromStrings("ABC", "ABC", "ACB")
	_, diag, err := MineWithDiagnostics(l, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	// C->B observed once -> below threshold.
	if diag.BelowThreshold == 0 {
		t.Errorf("BelowThreshold = 0; diag = %+v", diag)
	}
}

// TestMineWithDiagnosticsCyclicFunnel pins the full diagnostics funnel on a
// log with every cyclic feature in one place: a rework loop that forces
// instance labeling (RSR), a genuine 2-cycle (P before Q and Q before P in
// different executions), and a 3-activity SCC (A→B→C→A) that step 4 must
// dissolve. Unlike the coarser cyclic test above, this one asserts the
// exact Labeled / SCCs / IntraSCCRemoved contents end-to-end.
func TestMineWithDiagnosticsCyclicFunnel(t *testing.T) {
	l := wlog.LogFromStrings("RSR", "PQ", "QP", "AB", "BC", "CA")
	g, diag, err := MineWithDiagnostics(l, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if !diag.Labeled {
		t.Error("log with a repeated activity (RSR) not reported as labeled")
	}
	if diag.Executions != 6 || diag.Activities != 8 {
		t.Errorf("input sizes = %d executions / %d activities, want 6/8 (R#1 R#2 S#1 P#1 Q#1 A#1 B#1 C#1)",
			diag.Executions, diag.Activities)
	}
	if diag.OrderedPairs != 8 {
		t.Errorf("OrderedPairs = %d, want 8", diag.OrderedPairs)
	}
	if diag.BelowThreshold != 0 || diag.OverlapRemoved != 0 {
		t.Errorf("BelowThreshold/OverlapRemoved = %d/%d, want 0/0", diag.BelowThreshold, diag.OverlapRemoved)
	}
	// P#1→Q#1 and Q#1→P#1 cancel each other: both directions count.
	if diag.TwoCycleRemoved != 2 {
		t.Errorf("TwoCycleRemoved = %d, want 2 (P#1↔Q#1)", diag.TwoCycleRemoved)
	}

	// Exactly one independence cluster: the labeled A→B→C→A rotation.
	if len(diag.SCCs) != 1 {
		t.Fatalf("SCCs = %v, want exactly one cluster", diag.SCCs)
	}
	scc := append([]string(nil), diag.SCCs[0]...)
	sort.Strings(scc)
	if want := []string{"A#1", "B#1", "C#1"}; !reflect.DeepEqual(scc, want) {
		t.Errorf("SCC members = %v, want %v", scc, want)
	}
	if diag.IntraSCCRemoved != 3 {
		t.Errorf("IntraSCCRemoved = %d, want 3 (the A→B→C→A edges)", diag.IntraSCCRemoved)
	}

	// Marking removes the transitive R#1→R#2; merging folds the labeled
	// chain back into the R⇄S rework cycle.
	if diag.UnmarkedRemoved != 1 {
		t.Errorf("UnmarkedRemoved = %d, want 1 (transitive R#1→R#2)", diag.UnmarkedRemoved)
	}
	if diag.FinalEdges != 2 || !g.HasEdge("R", "S") || !g.HasEdge("S", "R") {
		t.Errorf("final graph = %v (%d edges), want exactly R→S and S→R", edgeStrings(g), diag.FinalEdges)
	}

	// The tentpole contract: every diagnostics run carries its stage trace.
	names := make(map[string]bool, len(diag.Stages))
	for _, st := range diag.Stages {
		names[st.Name] = true
		if st.Seconds < 0 {
			t.Errorf("stage %s has negative duration %v", st.Name, st.Seconds)
		}
	}
	for _, want := range []string{"label", "columnar", "scan", "threshold", "scc", "mark", "reduce"} {
		if !names[want] {
			t.Errorf("diagnostics stages missing %q; got %v", want, diag.Stages)
		}
	}
}

package core

import (
	"math/rand"
	"testing"

	"procmine/internal/graph"
	"procmine/internal/wlog"
)

// TestIncrementalMatchesBatchAcyclic: adding executions one at a time must
// give the same graph as batch MineCyclic (== MineGeneralDAG on acyclic
// logs) at every prefix.
func TestIncrementalMatchesBatchAcyclic(t *testing.T) {
	seqs := []string{"ABCF", "ACDF", "ADEF", "AECF", "ABF", "ABCF"}
	im := NewIncrementalMiner()
	var prefix []string
	for _, s := range seqs {
		prefix = append(prefix, s)
		if err := im.Add(wlog.FromString(s+itoa(len(prefix)), s)); err != nil {
			t.Fatal(err)
		}
		batch, err := MineCyclic(wlog.LogFromStrings(prefix...), Options{})
		if err != nil {
			t.Fatal(err)
		}
		inc, err := im.Mine(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !graph.EqualGraphs(batch, inc) {
			t.Fatalf("after %d executions:\nbatch: %v\ninc:   %v", len(prefix), batch, inc)
		}
	}
	if im.Executions() != len(seqs) {
		t.Fatalf("Executions = %d, want %d", im.Executions(), len(seqs))
	}
}

func TestIncrementalMatchesBatchCyclic(t *testing.T) {
	seqs := []string{"ABDCE", "ABDCBCE", "ABCBDCE", "ADE"}
	im := NewIncrementalMiner()
	for i, s := range seqs {
		if err := im.Add(wlog.FromString("x"+itoa(i), s)); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := MineCyclic(wlog.LogFromStrings(seqs...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := im.Mine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.EqualGraphs(batch, inc) {
		t.Fatalf("cyclic incremental differs:\nbatch: %v\ninc:   %v", batch, inc)
	}
	if !inc.HasEdge("B", "C") || !inc.HasEdge("C", "B") {
		t.Fatal("incremental miner lost the B<->C cycle")
	}
}

func TestIncrementalZeroValue(t *testing.T) {
	var im IncrementalMiner
	if err := im.Add(wlog.FromString("x", "AB")); err != nil {
		t.Fatal(err)
	}
	g, err := im.Mine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge("A", "B") {
		t.Fatalf("zero-value miner produced %v", g)
	}
}

func TestIncrementalEmptyMine(t *testing.T) {
	im := NewIncrementalMiner()
	g, err := im.Mine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 {
		t.Fatalf("empty miner produced %v", g)
	}
}

func TestIncrementalAddLogAndActivities(t *testing.T) {
	im := NewIncrementalMiner()
	if err := im.AddLog(wlog.LogFromStrings("ABCE", "ACDE")); err != nil {
		t.Fatal(err)
	}
	got := im.Activities()
	want := []string{"A", "B", "C", "D", "E"}
	if len(got) != len(want) {
		t.Fatalf("Activities = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Activities = %v, want %v", got, want)
		}
	}
}

// TestIncrementalRejectsSeparator is named for the reserved-separator
// check Add used to make. '#' is no longer reserved, so it pins that Add
// accepts names containing '#' and mines the same model as MineCyclic.
func TestIncrementalRejectsSeparator(t *testing.T) {
	l := &wlog.Log{Executions: []wlog.Execution{
		wlog.FromSequence("x", "A", "bad#name", "x#", "bad#name", "#", "C"),
		wlog.FromSequence("y", "A", "#", "bad#name", "C"),
	}}
	im := NewIncrementalMiner()
	for _, exec := range l.Executions {
		if err := im.Add(exec); err != nil {
			t.Fatalf("Add(%s): %v", exec.ID, err)
		}
	}
	batch, err := MineCyclic(l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := im.Mine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.EqualGraphs(batch, inc) {
		t.Fatalf("incremental differs:\nbatch: %v\ninc:   %v", batch, inc)
	}
	if !inc.HasVertex("bad#name") || !inc.HasVertex("#") {
		t.Fatalf("model lost a '#' activity: %v", inc)
	}
}

func TestIncrementalWithThreshold(t *testing.T) {
	im := NewIncrementalMiner()
	seqs := []string{"ABCD", "ABCD", "ABCD", "ABCD", "ACBD"}
	for i, s := range seqs {
		if err := im.Add(wlog.FromString("n"+itoa(i), s)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := im.Mine(Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge("B", "C") {
		t.Fatalf("threshold mining lost B->C: %v", g)
	}
	plain, err := im.Mine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.HasEdge("B", "C") {
		t.Fatal("plain mining should cancel B<->C")
	}
}

// TestIncrementalMatchesBatchRandom is the strongest equivalence check:
// random synthetic prefixes, incremental == batch at several checkpoints.
func TestIncrementalMatchesBatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alphabet := []string{"A", "B", "C", "D", "E", "F", "G"}
	var all []wlog.Execution
	im := NewIncrementalMiner()
	for i := 0; i < 60; i++ {
		// Random subsequence of a random permutation, always starting A
		// and ending G so executions look process-like.
		mid := append([]string(nil), alphabet[1:6]...)
		rng.Shuffle(len(mid), func(a, b int) { mid[a], mid[b] = mid[b], mid[a] })
		var seq []string
		seq = append(seq, "A")
		for _, a := range mid {
			if rng.Float64() < 0.7 {
				seq = append(seq, a)
			}
		}
		seq = append(seq, "G")
		exec := wlog.FromSequence("r"+itoa(i), seq...)
		all = append(all, exec)
		if err := im.Add(exec); err != nil {
			t.Fatal(err)
		}
		if i%20 != 19 {
			continue
		}
		batch, err := MineCyclic(&wlog.Log{Executions: all}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		inc, err := im.Mine(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !graph.EqualGraphs(batch, inc) {
			t.Fatalf("checkpoint %d: incremental differs from batch\nbatch: %v\ninc:   %v", i, batch, inc)
		}
	}
}

// itoa is a minimal integer formatter for test IDs.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

package wlog

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestInternerBasics(t *testing.T) {
	in := NewInterner([]string{"C", "A", "B", "A", ""})
	if in.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (duplicates collapse)", in.Len())
	}
	want := []string{"", "A", "B", "C"}
	for i, l := range want {
		id, ok := in.ID(l)
		if !ok || id != int32(i) {
			t.Errorf("ID(%q) = (%d, %v), want (%d, true)", l, id, ok, i)
		}
		if got := in.Label(int32(i)); got != l {
			t.Errorf("Label(%d) = %q, want %q", i, got, l)
		}
	}
	if _, ok := in.ID("ghost"); ok {
		t.Error("ID of unknown label reported present")
	}
	if got := in.Label(-1); got != "" {
		t.Errorf("Label(-1) = %q, want \"\"", got)
	}
	if got := in.Label(99); got != "" {
		t.Errorf("Label(99) = %q, want \"\"", got)
	}
}

// FuzzInterner drives NewInterner with arbitrary comma-separated label
// lists — duplicates, empty labels, alphabets past the parallel dense gate
// — and checks the structural invariants: IDs are dense and sorted, every
// input label round-trips, and nothing else is interned.
func FuzzInterner(f *testing.F) {
	f.Add("A,B,C")
	f.Add("")
	f.Add(",,,")
	f.Add("dup,dup,dup,x")
	f.Add("βeta,αlpha,βeta")
	// An alphabet past parallelDenseAlphabetMax (1024 distinct labels).
	var big strings.Builder
	for i := 0; i < 1100; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		fmt.Fprintf(&big, "act%04d", i)
	}
	f.Add(big.String())
	f.Fuzz(func(t *testing.T, s string) {
		labels := strings.Split(s, ",")
		in := NewInterner(labels)
		distinct := map[string]bool{}
		for _, l := range labels {
			distinct[l] = true
		}
		if in.Len() != len(distinct) {
			t.Fatalf("Len = %d, want %d distinct labels", in.Len(), len(distinct))
		}
		got := in.Labels()
		if !sort.StringsAreSorted(got) {
			t.Fatalf("Labels not sorted: %q", got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Fatalf("duplicate interned label %q", got[i])
			}
		}
		for _, l := range labels {
			id, ok := in.ID(l)
			if !ok {
				t.Fatalf("input label %q not interned", l)
			}
			if id < 0 || int(id) >= in.Len() {
				t.Fatalf("ID(%q) = %d out of dense range [0, %d)", l, id, in.Len())
			}
			if back := in.Label(id); back != l {
				t.Fatalf("round-trip: Label(ID(%q)) = %q", l, back)
			}
		}
	})
}

func TestBuildColumnarShape(t *testing.T) {
	l := LogFromStrings("ABCE", "ACDE", "CE", "ABCE")
	col := BuildColumnar(l)
	if col.NumExecutions() != 4 {
		t.Fatalf("NumExecutions = %d, want 4", col.NumExecutions())
	}
	if col.NumSteps() != 14 {
		t.Fatalf("NumSteps = %d, want 14", col.NumSteps())
	}
	if col.Alphabet() != 5 {
		t.Fatalf("Alphabet = %d, want 5 (A B C D E)", col.Alphabet())
	}
	off := col.ExecBounds()
	wantOff := []int32{0, 4, 8, 10, 14}
	for i := range wantOff {
		if off[i] != wantOff[i] {
			t.Fatalf("ExecBounds = %v, want %v", off, wantOff)
		}
	}
	// Activity IDs round-trip to the original step labels in arena order.
	acts := col.StepActs()
	k := 0
	for _, e := range l.Executions {
		for _, s := range e.Steps {
			if got := col.Interner().Label(acts[k]); got != s.Activity {
				t.Fatalf("step %d: label %q, want %q", k, got, s.Activity)
			}
			k++
		}
	}
	// Step instants reproduce wall-clock order: adjacent steps of the
	// paper-notation fixtures never overlap, so end(i) < start(i+1).
	startSec, startNsec, endSec, endNsec := col.StepTimes()
	b, e := off[0], off[1]
	for i := b; i+1 < e; i++ {
		if endSec[i] > startSec[i+1] || (endSec[i] == startSec[i+1] && endNsec[i] >= startNsec[i+1]) {
			t.Fatalf("step %d does not terminate before step %d", i, i+1)
		}
	}
	// Distinct sets: executions 1 and 4 share "ABCE"; 3 is "CE".
	if col.NumSets() != 3 {
		t.Fatalf("NumSets = %d, want 3", col.NumSets())
	}
	es := col.ExecSet()
	if es[0] != es[3] || es[0] == es[1] || es[0] == es[2] {
		t.Fatalf("ExecSet = %v, want exec 0 and 3 sharing one set distinct from 1 and 2", es)
	}
	setIDs, setOff := col.DistinctSets()
	setLabels := func(s int32) []string {
		var out []string
		for _, id := range setIDs[setOff[s]:setOff[s+1]] {
			out = append(out, col.Interner().Label(id))
		}
		return out
	}
	if got := setLabels(es[2]); !equalStrings(got, []string{"C", "E"}) {
		t.Fatalf("labels of exec 2's set = %q, want [C E]", got)
	}
	if got := setLabels(es[0]); !equalStrings(got, []string{"A", "B", "C", "E"}) {
		t.Fatalf("labels of exec 0's set = %q, want [A B C E]", got)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLogColumnarCache(t *testing.T) {
	l := LogFromStrings("AB", "BA")
	c1 := l.Columnar()
	if c2 := l.Columnar(); c2 != c1 {
		t.Fatal("unchanged log rebuilt its columnar view")
	}
	l.Executions = append(l.Executions, FromString("x3", "ABC"))
	c3 := l.Columnar()
	if c3 == c1 {
		t.Fatal("appending an execution did not invalidate the columnar cache")
	}
	if c3.NumExecutions() != 3 || c3.Alphabet() != 3 {
		t.Fatalf("rebuilt view has m=%d n=%d, want 3 and 3", c3.NumExecutions(), c3.Alphabet())
	}
}

func TestCountsPool(t *testing.T) {
	col := BuildColumnar(LogFromStrings("ABC"))
	cs := col.AcquireCounts()
	if cs.N != 3 || len(cs.Order) != 9 {
		t.Fatalf("acquired counts sized N=%d len=%d, want 3 and 9", cs.N, len(cs.Order))
	}
	cs.Order[4] = 7
	cs.Gen = 9
	col.ReleaseCounts(cs)
	again := col.AcquireCounts()
	if again != cs {
		t.Fatal("pool did not reuse the released accumulator")
	}
	if again.Order[4] != 0 || again.Gen != 0 {
		t.Fatal("pooled accumulator not reset on acquire")
	}
	// A foreign-sized accumulator must not enter the pool.
	col.ReleaseCounts(&Counts{N: 5})
	if third := col.AcquireCounts(); third.N != 3 {
		t.Fatalf("pool handed out a foreign accumulator with N=%d", third.N)
	}
	col.ReleaseCounts(nil) // must not panic
}

func TestCountsAddFrom(t *testing.T) {
	a, b := newCounts(2), newCounts(2)
	a.Order[1], b.Order[1] = 2, 3
	a.Overlap[2], b.Overlap[2] = 1, 1
	b.Cooc[3] = 4
	a.SeenOrder[0], b.SeenOrder[0] = 5, 6
	a.AddFrom(b)
	if a.Order[1] != 5 || a.Overlap[2] != 2 || a.Cooc[3] != 4 {
		t.Fatalf("AddFrom merged to order=%d overlap=%d cooc=%d, want 5 2 4",
			a.Order[1], a.Overlap[2], a.Cooc[3])
	}
	if a.SeenOrder[0] != 5 {
		t.Fatal("AddFrom touched the generation matrices (scan-local state)")
	}
}

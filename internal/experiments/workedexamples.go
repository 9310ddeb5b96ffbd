package experiments

import (
	"fmt"
	"io"

	"procmine/internal/core"
	"procmine/internal/wlog"
)

// WriteWorkedExamples replays the paper's worked examples (Examples 3-8,
// Figures 3, 4 and 6) step by step, printing the intermediate structures —
// the followings graph after 2-cycle removal, the strongly connected
// components, the dependency graph, and the final mined model. It doubles
// as an executable commentary on the algorithms and is reachable via
// `cmd/experiments -run examples`.
func WriteWorkedExamples(w io.Writer) error {
	if err := example3(w); err != nil {
		return err
	}
	if err := example6(w); err != nil {
		return err
	}
	if err := example7(w); err != nil {
		return err
	}
	return example8(w)
}

func writeGraphBlock(w io.Writer, title string, lines string) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	for _, line := range splitLines(lines) {
		if _, err := fmt.Fprintf(w, "  %s\n", line); err != nil {
			return err
		}
	}
	return nil
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func example3(w io.Writer) error {
	fmt.Fprintln(w, "=== Example 3 (Definitions 3-5): log {ABCE, ACDE, ADBE}")
	l := wlog.LogFromStrings("ABCE", "ACDE", "ADBE")
	d, err := core.ComputeDependencies(l, core.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "B depends on A:        %v (B follows A, A does not follow B)\n", d.Depends("A", "B"))
	fmt.Fprintf(w, "B follows D directly:  %v\n", d.Follows("D", "B"))
	fmt.Fprintf(w, "D follows B via C:     %v\n", d.Follows("B", "D"))
	fmt.Fprintf(w, "B and D independent:   %v\n", d.Independent("B", "D"))
	if err := writeGraphBlock(w, "dependency graph (intra-SCC edges removed):", d.Graph().Adjacency()); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func example6(w io.Writer) error {
	fmt.Fprintln(w, "=== Example 6 (Algorithm 1, Figure 3): log {ABCDE, ACDBE, ACBDE}")
	l := wlog.LogFromStrings("ABCDE", "ACDBE", "ACBDE")
	follows, err := core.FollowsGraph(l, core.Options{})
	if err != nil {
		return err
	}
	if err := writeGraphBlock(w, "after steps 2-3 (2-cycles B<->C and B<->D cancelled):", follows.Adjacency()); err != nil {
		return err
	}
	mined, err := core.MineSpecialDAG(l, core.Options{})
	if err != nil {
		return err
	}
	if err := writeGraphBlock(w, "after step 4, the transitive reduction — the minimal conformal graph:", mined.Adjacency()); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func example7(w io.Writer) error {
	fmt.Fprintln(w, "=== Example 7 (Algorithm 2, Figure 4): log {ABCF, ACDF, ADEF, AECF}")
	l := wlog.LogFromStrings("ABCF", "ACDF", "ADEF", "AECF")
	follows, err := core.FollowsGraph(l, core.Options{})
	if err != nil {
		return err
	}
	if err := writeGraphBlock(w, "followings graph (no 2-cycles here):", follows.Adjacency()); err != nil {
		return err
	}
	fmt.Fprintf(w, "strongly connected components: %v\n", follows.SCCs())
	rel, err := core.ComputeDependencies(l, core.Options{})
	if err != nil {
		return err
	}
	if err := writeGraphBlock(w, "after step 4 (edges inside {C, D, E} removed):", rel.Graph().Adjacency()); err != nil {
		return err
	}
	mined, err := core.MineGeneralDAG(l, core.Options{})
	if err != nil {
		return err
	}
	if err := writeGraphBlock(w, "after steps 5-6 (unmarked edges A->F, B->F removed):", mined.Adjacency()); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func example8(w io.Writer) error {
	fmt.Fprintln(w, "=== Example 8 (Algorithm 3, Figure 6): log {ABDCE, ABDCBCE, ABCBDCE, ADE}")
	l := wlog.LogFromStrings("ABDCE", "ABDCBCE", "ABCBDCE", "ADE")
	labeled := core.LabelInstances(l)
	lf, err := core.FollowsGraph(labeled, core.Options{})
	if err != nil {
		return err
	}
	if err := writeGraphBlock(w, "labeled followings graph (D/C#1 and D/B#2 orders cancelled):", lf.Adjacency()); err != nil {
		return err
	}
	mined, err := core.MineCyclic(l, core.Options{})
	if err != nil {
		return err
	}
	if err := writeGraphBlock(w, "after marking and instance merge — the B<->C loop appears:", mined.Adjacency()); err != nil {
		return err
	}
	fmt.Fprintf(w, "graph contains a cycle: %v\n\n", !mined.IsDAG())
	return nil
}

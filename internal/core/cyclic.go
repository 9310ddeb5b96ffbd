package core

import (
	"context"
	"strconv"
	"strings"

	"procmine/internal/graph"
	"procmine/internal/wlog"
)

// instanceSep separates an activity name from its occurrence index in the
// labeled log used by Algorithm 3 ("B" -> "B#1", "B#2", ...).
const instanceSep = "#"

// LabelInstances rewrites a log so that the i-th occurrence of activity A
// within an execution becomes the distinct activity "A#i" (step 2 of
// Algorithm 3). Any name works, '#' included: the suffix is always '#'
// plus decimal digits, so "B#1" labels to "B#1#1" and UnlabelActivity,
// which strips only the last '#', recovers it unambiguously.
func LabelInstances(l *wlog.Log) *wlog.Log {
	out := &wlog.Log{Executions: make([]wlog.Execution, len(l.Executions))}
	for i, exec := range l.Executions {
		counts := make(map[string]int)
		steps := make([]wlog.Step, len(exec.Steps))
		for j, s := range exec.Steps {
			counts[s.Activity]++
			s.Activity = s.Activity + instanceSep + strconv.Itoa(counts[s.Activity])
			steps[j] = s
		}
		out.Executions[i] = wlog.Execution{ID: exec.ID, Steps: steps}
	}
	return out
}

// UnlabelActivity strips the instance suffix from a labeled activity name:
// "B#2" -> "B", "B#1#2" -> "B#1". Names without a suffix pass through
// unchanged.
func UnlabelActivity(labeled string) string {
	if i := strings.LastIndex(labeled, instanceSep); i >= 0 {
		return labeled[:i]
	}
	return labeled
}

// MergeInstances collapses a labeled graph back onto the original activity
// set (step 8 of Algorithm 3): vertices "A#1", "A#2" merge into "A", and an
// edge is added between two merged vertices whenever any edge connected
// instances of *different* activities. Edges between instances of the same
// activity (e.g. "B#1"->"B#2") represent the same vertex and are dropped
// rather than becoming self-loops, per the paper's merge rule.
func MergeInstances(labeled *graph.Digraph) *graph.Digraph {
	g := graph.New()
	for _, v := range labeled.Vertices() {
		g.AddVertex(UnlabelActivity(v))
	}
	for _, e := range labeled.Edges() {
		from, to := UnlabelActivity(e.From), UnlabelActivity(e.To)
		if from != to {
			g.AddEdge(from, to)
		}
	}
	return g
}

// MineCyclic implements Algorithm 3 ("Cyclic Graphs"): it differentiates the
// repeated occurrences of each activity with instance labels, runs the
// Algorithm 2 pipeline on the labeled log, and merges instance vertices back
// together. Running time O(m(kn)³) where k bounds the repetitions of an
// activity within one execution.
//
// For logs without repeated activities the result coincides with
// MineGeneralDAG (every activity gets the single label "A#1").
func MineCyclic(l *wlog.Log, opt Options) (*graph.Digraph, error) {
	return MineCyclicContext(context.Background(), l, opt)
}

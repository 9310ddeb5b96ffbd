package core

import (
	"context"
	"sort"

	"procmine/internal/graph"
	"procmine/internal/wlog"
)

// IncrementalMiner supports the paper's model-evolution use case (Section
// 1: "allow the evolution of the current process model into future versions
// of the model by incorporating feedback from successful process
// executions"): executions are added one at a time as they complete, and a
// fresh conformal graph can be materialized at any point without rescanning
// past executions.
//
// The miner maintains the step-2 state incrementally — ordered-pair,
// overlap and co-occurrence support counts, the activity alphabet, and the
// set of distinct activity-set signatures (what Algorithm 2's marking pass
// actually consumes). Add counts each execution with the batch scan's own
// followsCounts kernel. Memory is O(n² + distinct signatures), independent
// of the number of executions. Mine replays steps 3-7 on that state.
//
// Every execution is stored in instance-labeled form (Algorithm 3), so
// processes with cycles work transparently; for acyclic logs the labeled
// pipeline plus the final merge produces exactly the Algorithm 2 result.
//
// The zero value is ready to use. IncrementalMiner is not safe for
// concurrent use.
type IncrementalMiner struct {
	activities map[string]bool
	// pc holds the step-2 counts over the labeled activities, in the batch
	// scan's form, so Mine thresholds them (Options.AdaptiveEpsilon
	// included) exactly as the batch path does.
	pc pairCounts
	// sigs maps an activity-set signature to the sorted labeled activity
	// set; the marking pass needs each distinct set once.
	sigs map[string][]string
	// executions counts Add calls.
	executions int
}

// NewIncrementalMiner returns an empty miner.
func NewIncrementalMiner() *IncrementalMiner {
	im := &IncrementalMiner{}
	im.init()
	return im
}

// init lazily initializes the zero value.
func (im *IncrementalMiner) init() {
	if im.activities == nil {
		im.activities = make(map[string]bool)
		im.pc = newPairCounts()
		im.sigs = make(map[string][]string)
	}
}

// Executions returns the number of executions added so far.
func (im *IncrementalMiner) Executions() int { return im.executions }

// Activities returns the (unlabeled) activity alphabet seen so far, sorted.
func (im *IncrementalMiner) Activities() []string {
	set := map[string]bool{}
	for a := range im.activities {
		set[UnlabelActivity(a)] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Add incorporates one completed execution. Any activity name is accepted,
// '#' included, so the error is always nil.
func (im *IncrementalMiner) Add(exec wlog.Execution) error {
	im.init()
	labeled := LabelInstances(&wlog.Log{Executions: []wlog.Execution{exec}})
	set := im.pc.addExecution(labeled.Executions[0])
	for _, a := range set {
		im.activities[a] = true
	}
	im.sigs[signature(set)] = set
	im.executions++
	return nil
}

// AddLog incorporates every execution of a log.
func (im *IncrementalMiner) AddLog(l *wlog.Log) error {
	for _, e := range l.Executions {
		if err := im.Add(e); err != nil {
			return err
		}
	}
	return nil
}

// Mine materializes a conformal graph from the accumulated state: steps 3-5
// (2-cycle and overlap cancellation, threshold, SCC removal) on the counts,
// the marking pass over the distinct labeled activity sets, and the
// instance merge of Algorithm 3.
//
// Thresholding — including the per-pair Options.AdaptiveEpsilon balance
// rule — runs through the same assembleFollowsGraph used by the batch
// miners, so mining a log incrementally and batch-mining the same log with
// the same Options produce identical graphs (the parity property tests
// gate this). Like the batch entry points it fails with ErrInvalidEpsilon
// on an out-of-range AdaptiveEpsilon.
func (im *IncrementalMiner) Mine(opt Options) (*graph.Digraph, error) {
	return im.MineContext(context.Background(), opt)
}

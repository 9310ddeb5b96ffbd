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
// The miner maintains the step-2 state incrementally, in the shape batch
// mining builds from its columnar view: the labeled activity alphabet by
// ID, the ordered-pair, overlap and co-occurrence support counts, and the
// distinct activity sets (what Algorithm 2's marking pass actually
// consumes) as an ID arena. Add counts each execution with the batch scan's
// own followsCounts kernel. Memory is O(n² + distinct sets), independent of
// the number of executions. Mine runs steps 3-7 on that state through the
// function batch mining runs them through.
//
// Every execution is stored in instance-labeled form (Algorithm 3), so
// processes with cycles work transparently; for acyclic logs the labeled
// pipeline plus the final merge produces exactly the Algorithm 2 result.
//
// The zero value is ready to use. IncrementalMiner is not safe for
// concurrent use.
type IncrementalMiner struct {
	// st is the step-2 state. Labels take IDs in order of arrival; a set's
	// members stay in label order.
	st state
	// ids maps a labeled activity to its ID in st.labels, and sets maps a
	// setKey to the set's index in st's arena.
	ids  map[string]int32
	sets map[string]int32
	// key is setKey's scratch, so a set already seen costs no allocation.
	key []byte
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
	if im.ids == nil {
		im.st = state{pc: newPairCounts(), setOff: []int32{0}}
		im.ids = make(map[string]int32)
		im.sets = make(map[string]int32)
	}
}

// intern returns the ID of a labeled activity, adding it to the alphabet on
// first sight.
func (im *IncrementalMiner) intern(a string) int32 {
	id, ok := im.ids[a]
	if !ok {
		id = int32(len(im.st.labels))
		im.ids[a] = id
		im.st.labels = append(im.st.labels, a)
	}
	return id
}

// addSet adds a sorted labeled activity set to the arena unless an equal
// set is there already.
func (im *IncrementalMiner) addSet(set []string) {
	im.key = setKey(im.key[:0], set)
	if _, ok := im.sets[string(im.key)]; ok {
		return
	}
	im.sets[string(im.key)] = int32(len(im.st.setOff) - 1)
	for _, a := range set {
		im.st.setIDs = append(im.st.setIDs, im.intern(a))
	}
	im.st.setOff = append(im.st.setOff, int32(len(im.st.setIDs)))
}

// Executions returns the number of executions added so far.
func (im *IncrementalMiner) Executions() int { return im.executions }

// Activities returns the (unlabeled) activity alphabet seen so far, sorted.
func (im *IncrementalMiner) Activities() []string {
	set := map[string]bool{}
	for _, a := range im.st.labels {
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
// '#' and NUL included, so the error is always nil.
func (im *IncrementalMiner) Add(exec wlog.Execution) error {
	im.init()
	labeled := LabelInstances(&wlog.Log{Executions: []wlog.Execution{exec}})
	im.addSet(im.st.pc.addExecution(labeled.Executions[0]))
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
// These steps — thresholding with the per-pair Options.AdaptiveEpsilon
// balance rule included — run through the batch miners' own state.mine, so
// mining a log incrementally and batch-mining the same log with the same
// Options produce identical graphs (the parity property tests and
// FuzzMinePaths gate this). Like the batch entry points it fails with
// ErrInvalidEpsilon on an out-of-range AdaptiveEpsilon.
func (im *IncrementalMiner) Mine(opt Options) (*graph.Digraph, error) {
	return im.MineContext(context.Background(), opt)
}

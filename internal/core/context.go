package core

import (
	"context"
	"errors"
	"fmt"

	"procmine/internal/graph"
	"procmine/internal/obs"
	"procmine/internal/wlog"
)

// Cancellation and resource limits. Mining is polynomial but not cheap —
// Algorithm 2's marking pass is the O(mn³) hot spot — and on adversarial or
// damaged logs the activity alphabet n (and Algorithm 3's instance count k)
// is attacker-controlled. The Context variants check ctx between scan passes
// and per-execution transitive reductions, and Options carries hard caps
// that turn unbounded allocation into typed errors.

// Typed limit errors.
var (
	// ErrTooManyActivities is returned when the log's activity alphabet
	// exceeds Options.MaxActivities.
	ErrTooManyActivities = errors.New("core: too many activities")
	// ErrTooManyInstances is returned by MineCyclic when some activity
	// repeats more than Options.MaxInstanceLabels times within one
	// execution (Algorithm 3's k), which would blow up the labeled
	// alphabet to kn.
	ErrTooManyInstances = errors.New("core: too many activity instances")
)

// checkAlphabet enforces Options.MaxActivities against an alphabet of n
// activities.
func checkAlphabet(n int, opt Options) error {
	if opt.MaxActivities > 0 && n > opt.MaxActivities {
		return fmt.Errorf("%w: %d > MaxActivities=%d", ErrTooManyActivities, n, opt.MaxActivities)
	}
	return nil
}

// repeats reports whether some execution repeats an activity. With max > 0
// it also enforces Options.MaxInstanceLabels, failing on the first
// activity that occurs more than max times within one execution.
func repeats(l *wlog.Log, max int) (bool, error) {
	found := false
	for _, exec := range l.Executions {
		counts := make(map[string]int, len(exec.Steps))
		for _, s := range exec.Steps {
			counts[s.Activity]++
			k := counts[s.Activity]
			if max > 0 && k > max {
				return true, fmt.Errorf("%w: execution %q repeats %q %d times > MaxInstanceLabels=%d",
					ErrTooManyInstances, exec.ID, s.Activity, k, max)
			}
			if k > 1 {
				if max <= 0 {
					return true, nil
				}
				found = true
			}
		}
	}
	return found, nil
}

// MineSpecialDAGContext is MineSpecialDAG with cancellation and limits: ctx
// is checked between the precondition scan, the pair-counting pass, and the
// transitive reduction.
func MineSpecialDAGContext(ctx context.Context, l *wlog.Log, opt Options) (*graph.Digraph, error) {
	if err := checkAlphabet(l.Columnar().Alphabet(), opt); err != nil {
		return nil, err
	}
	if err := specialFormError(l); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The follows scan waits on a fixed fan-out of CPU-bound workers that
	// always terminate; cancellation is honored at the phase boundaries
	// around it.
	//lint:ignore procmine/ctxleak scan workers are bounded CPU work; ctx is checked at phase boundaries
	g, err := buildFollowsGraph(l, opt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	red, err := g.TransitiveReduction()
	if err != nil {
		if errors.Is(err, graph.ErrCyclic) {
			return nil, fmt.Errorf("%w: %v", ErrCyclicFollows, err)
		}
		return nil, err
	}
	return red, nil
}

// MineGeneralDAGContext is MineGeneralDAG with cancellation and limits: ctx
// is checked between the pair-counting pass and before each per-execution
// transitive reduction of the marking pass (the O(mn³) hot spot), so a
// cancelled mine returns promptly even on very large logs.
func MineGeneralDAGContext(ctx context.Context, l *wlog.Log, opt Options) (*graph.Digraph, error) {
	return mine(ctx, l, opt, algorithm2, nil)
}

// MineCyclicContext is MineCyclic with cancellation and limits: the
// per-execution instance count is capped by Options.MaxInstanceLabels
// before the labeled alphabet is materialized, and the labeled alphabet is
// itself subject to Options.MaxActivities.
func MineCyclicContext(ctx context.Context, l *wlog.Log, opt Options) (*graph.Digraph, error) {
	return mine(ctx, l, opt, algorithm3, nil)
}

// MineContext mines with automatic algorithm choice (like procmine.Mine)
// under cancellation and limits: Algorithm 3 when some execution repeats an
// activity, Algorithm 2 otherwise.
func MineContext(ctx context.Context, l *wlog.Log, opt Options) (*graph.Digraph, error) {
	return mine(ctx, l, opt, algorithmAuto, nil)
}

// algorithm selects how the batch pipeline treats repeated activities.
type algorithm int

const (
	algorithm2    algorithm = iota // mine the activities as they are
	algorithm3                     // instance-label, mine, merge back
	algorithmAuto                  // algorithm3 iff some execution repeats an activity
)

// mine is the one batch Algorithm 2/3 pipeline: every Mine*Context entry
// point but Algorithm 1's, and MineWithDiagnosticsContext, run through it,
// so option validation, limits, cancellation and the stage funnel come
// from one place. Stages: label → columnar → scan build the step-2 state
// from the log, and state.mine runs threshold (steps 1-3) → scc (step 4) →
// mark (steps 5-6) → reduce (Algorithm 3's merge) on it. A non-nil diag
// receives the funnel counts and the stage trace; with nil, neither is
// computed.
func mine(ctx context.Context, l *wlog.Log, opt Options, alg algorithm, diag *Diagnostics) (*graph.Digraph, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var tr *obs.Trace
	if diag != nil {
		tr = obs.NewTrace()
	}

	sp := tr.Start("label")
	labeled := alg == algorithm3
	if alg != algorithm2 {
		repeated, err := repeats(l, opt.MaxInstanceLabels)
		if err != nil {
			return nil, err
		}
		labeled = labeled || repeated
	}
	work := l
	if labeled {
		work = LabelInstances(l)
	}
	sp.End()

	// Materializing the columnar view here makes its cost its own stage
	// instead of folding it into the scan's.
	sp = tr.Start("columnar")
	col := work.Columnar()
	sp.End()
	if err := checkAlphabet(col.Alphabet(), opt); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sp = tr.Start("scan")
	// The follows scan waits on a fixed fan-out of CPU-bound workers that
	// always terminate; cancellation is honored at the phase boundaries
	// around it.
	//lint:ignore procmine/ctxleak scan workers are bounded CPU work; ctx is checked at phase boundaries
	pc := scanWith(work, scanWorkers(col.NumExecutions(), col.Alphabet()), tr)
	sp.End()

	st := &state{labels: col.Labels(), pc: pc}
	st.setIDs, st.setOff = col.DistinctSets()
	if diag != nil {
		diag.Executions = l.Len()
	}
	return st.mine(ctx, opt, labeled, tr, "threshold", "reduce", diag)
}

// state is the step-2 state that steps 3-7 run on, in the shape the batch
// pipeline's columnar view gives: the labeled alphabet by ID, the pair
// counts over it, and the distinct activity sets as an ID arena (set s is
// setIDs[setOff[s]:setOff[s+1]], members in label order). Batch mining
// builds one from its columnar view and scan; an IncrementalMiner holds one
// and grows it.
type state struct {
	labels         []string
	pc             pairCounts
	setIDs, setOff []int32
}

// mine runs steps 3-7 on the state: thresholding and 2-cycle and overlap
// cancellation (steps 1-3), SCC removal (step 4), marking (steps 5-6) and,
// when labeled, Algorithm 3's instance merge. It is the one implementation
// that batch mining, the IncrementalMiner and /model share; callers
// validate opt and check ctx first. The two stages whose names differ by
// caller are named by it: batch mining says threshold and reduce, the
// incremental miner assemble and merge. A non-nil diag receives the funnel
// counts and tr's stages.
func (st *state) mine(ctx context.Context, opt Options, labeled bool, tr *obs.Trace, thresholdStage, mergeStage string, diag *Diagnostics) (*graph.Digraph, error) {
	sp := tr.Start(thresholdStage)
	g, err := assembleFollowsGraph(st.labels, st.pc, opt)
	if err == nil && diag != nil {
		err = diag.countPruned(st.pc, g, opt)
	}
	if err != nil {
		return nil, err
	}
	sp.End()

	sp = tr.Start("scc")
	if diag != nil {
		for _, c := range g.SCCs() {
			if len(c) > 1 {
				diag.SCCs = append(diag.SCCs, c)
			}
		}
	}
	intraSCC := g.RemoveIntraSCCEdges()
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sp = tr.Start("mark")
	sr, marked, err := markRequired(ctx, g, st.setIDs, st.setOff)
	if err != nil {
		return nil, err
	}
	unmarked := sr.PruneUnmarked(marked)
	sp.End()

	sp = tr.Start(mergeStage)
	if labeled {
		g = MergeInstances(g)
	}
	sp.End()

	if diag != nil {
		diag.Activities, diag.Labeled = len(st.labels), labeled
		diag.OrderedPairs = len(st.pc.order)
		diag.IntraSCCRemoved, diag.UnmarkedRemoved = intraSCC, unmarked
		diag.FinalEdges = g.NumEdges()
		diag.Stages = tr.Stages()
	}
	return g, nil
}

// Package procmine mines workflow process models from execution logs. It is
// a complete implementation of Agrawal, Gunopulos & Leymann, "Mining Process
// Models from Workflow Logs" (EDBT 1998): given a log of past executions of
// a business process, it synthesizes a directed activity graph that is
// conformal with the log — it preserves every dependency between activities,
// introduces no spurious ones, and admits every logged execution — and can
// then learn the Boolean control conditions on the graph's edges from the
// activities' logged output parameters.
//
// The package is a facade over the implementation packages:
//
//   - Mine / MineExact / MineDAG / MineCyclic — the paper's Algorithms 1-3
//   - NewIncrementalMiner — model evolution: add executions as they complete
//   - ReadLogFile / WriteLogFile and the Log/Execution/Event types — the
//     workflow-log substrate with text, CSV, JSON and XES codecs (gzip-aware)
//   - Check / Consistent / Fitness — conformance checking (Definitions 6-7)
//     and graded fitness; EdgeSupports for per-edge evidence
//   - LearnConditions / ParseCondition — Problem 2, decision-tree condition
//     mining and the textual condition syntax
//   - NoiseThreshold — the Section 6 threshold rule ε → T; see also
//     Options.AdaptiveEpsilon for partial-execution logs
//   - NewEngine / NewSimulator / NewCorruptor / SimulateLog — the simulation
//     substrates (see simulate.go)
//
// Quick start:
//
//	log := procmine.LogFromStrings("ABCE", "ACDBE", "ACDE")
//	g, err := procmine.Mine(log, procmine.Options{})
//	// g now holds the mined process model graph; g.Dot("P") renders it.
package procmine

import (
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"procmine/internal/conditions"
	"procmine/internal/conformance"
	"procmine/internal/core"
	"procmine/internal/dtree"
	"procmine/internal/graph"
	"procmine/internal/model"
	"procmine/internal/noise"
	"procmine/internal/wlog"
)

// Re-exported core types. The aliases make the internal implementation
// packages' types part of the public API surface.
type (
	// Log is a set of executions of one process.
	Log = wlog.Log
	// Execution is one recorded execution: activity steps in start order.
	Execution = wlog.Execution
	// Step is one activity instance with its time interval and output.
	Step = wlog.Step
	// Event is a raw (P, A, E, T, O) audit-trail record.
	Event = wlog.Event
	// Output is an activity output vector o(A).
	Output = wlog.Output
	// Graph is a directed activity graph.
	Graph = graph.Digraph
	// Edge is a directed edge between two activities.
	Edge = graph.Edge
	// Diff is an edge-set comparison between two graphs.
	Diff = graph.Diff
	// Options configures mining (noise threshold, Section 6).
	Options = core.Options
	// Process is a full business-process definition (Definition 1).
	Process = model.Process
	// Condition is a Boolean edge function on an activity's output.
	Condition = model.Condition
	// ConformanceReport lists Definition 7 violations.
	ConformanceReport = conformance.Report
	// LearnedCondition is one edge's mined condition (Section 7).
	LearnedCondition = conditions.Learned
	// TreeConfig configures the decision-tree condition learner.
	TreeConfig = dtree.Config
	// IncrementalMiner accepts executions one at a time and materializes a
	// conformal graph on demand — the paper's model-evolution use case.
	IncrementalMiner = core.IncrementalMiner
	// IngestOptions selects the ingestion recovery policy and resource
	// watermarks for fault-tolerant log reading.
	IngestOptions = wlog.IngestOptions
	// IngestReport counts records read/skipped/quarantined during
	// fault-tolerant ingestion, with sample errors.
	IngestReport = wlog.IngestReport
	// IngestError is one recorded ingestion failure with its position.
	IngestError = wlog.IngestError
	// Policy is an ingestion recovery policy.
	Policy = wlog.Policy
	// ExecutionStream groups live events into executions under the
	// configured policy and memory watermarks.
	ExecutionStream = wlog.ExecutionStream
)

// Ingestion recovery policies.
const (
	// FailFast aborts on the first bad record (the default).
	FailFast = wlog.FailFast
	// Skip drops bad records and unterminated steps, keeping the rest.
	Skip = wlog.Skip
	// Quarantine sets aside whole executions touched by a bad event.
	Quarantine = wlog.Quarantine
)

// Constructors re-exported for convenience.
var (
	// NewGraph returns an empty directed graph.
	NewGraph = graph.New
	// LogFromStrings builds a log from the paper's single-letter notation,
	// e.g. LogFromStrings("ABCE", "ACDE").
	LogFromStrings = wlog.LogFromStrings
	// FromSequence builds one execution from ordered activity names.
	FromSequence = wlog.FromSequence
	// Assemble groups raw events into executions.
	Assemble = wlog.Assemble
	// Compare diffs a mined graph against a reference graph.
	Compare = graph.Compare
	// NewIncrementalMiner returns an empty incremental miner.
	NewIncrementalMiner = core.NewIncrementalMiner
	// ParseCondition parses the textual condition syntax ("o[0] >= 5 &&
	// o[1] < 3") back into an executable Condition.
	ParseCondition = model.ParseCondition
	// ReadGraph parses the adjacency format emitted by Graph.WriteAdjacency.
	ReadGraph = graph.ReadAdjacency
	// NewExecutionStream returns a FailFast execution stream.
	NewExecutionStream = wlog.NewExecutionStream
	// NewExecutionStreamWith returns an execution stream governed by an
	// ingestion policy and resource watermarks.
	NewExecutionStreamWith = wlog.NewExecutionStreamWith
	// AssembleWith groups raw events into executions under a recovery
	// policy, reporting skipped and quarantined records.
	AssembleWith = wlog.AssembleWith
)

// Typed ingestion and limit errors, re-exported for errors.Is checks.
var (
	// ErrTooManyErrors aborts lenient ingestion over IngestOptions.MaxErrors.
	ErrTooManyErrors = wlog.ErrTooManyErrors
	// ErrTooManyOpenExecutions is the MaxOpenExecutions watermark error.
	ErrTooManyOpenExecutions = wlog.ErrTooManyOpenExecutions
	// ErrExecutionTooLong is the MaxStepsPerExecution watermark error.
	ErrExecutionTooLong = wlog.ErrExecutionTooLong
	// ErrTooManyActivities is the Options.MaxActivities mining limit error.
	ErrTooManyActivities = core.ErrTooManyActivities
	// ErrTooManyInstances is the Options.MaxInstanceLabels mining limit error.
	ErrTooManyInstances = core.ErrTooManyInstances
	// ErrInvalidEpsilon flags an Options.AdaptiveEpsilon outside (0, 0.5);
	// every mining entry point rejects such options up front.
	ErrInvalidEpsilon = core.ErrInvalidEpsilon
)

// Mine synthesizes a conformal process model graph from the log, choosing
// the algorithm automatically: Algorithm 3 when any execution contains a
// repeated activity (the process has cycles), Algorithm 2 otherwise.
func Mine(l *Log, opt Options) (*Graph, error) {
	return core.MineContext(context.Background(), l, opt)
}

// MineContext is Mine with cancellation and resource limits: ctx is checked
// between scan passes and before each per-execution transitive reduction of
// the marking pass (the O(mn³) hot spot), and Options.MaxActivities /
// Options.MaxInstanceLabels turn unbounded allocation on adversarial logs
// into typed errors (ErrTooManyActivities, ErrTooManyInstances).
func MineContext(ctx context.Context, l *Log, opt Options) (*Graph, error) {
	return core.MineContext(ctx, l, opt)
}

// MineExact is Algorithm 1 ("Special DAG"): for logs in which every activity
// appears in every execution exactly once, it returns the provably unique
// minimal conformal graph in one pass. It fails with core.ErrNotSpecialForm
// on other logs.
func MineExact(l *Log, opt Options) (*Graph, error) {
	return core.MineSpecialDAG(l, opt)
}

// MineDAG is Algorithm 2 ("General DAG"): acyclic processes whose executions
// may omit activities.
func MineDAG(l *Log, opt Options) (*Graph, error) {
	return core.MineGeneralDAG(l, opt)
}

// MineCyclic is Algorithm 3: general directed graphs; repeated activity
// instances are labeled apart, mined, and merged back.
func MineCyclic(l *Log, opt Options) (*Graph, error) {
	return core.MineCyclic(l, opt)
}

// Consistent checks Definition 6: whether one execution is consistent with a
// process graph with the given initiating and terminating activities.
func Consistent(g *Graph, start, end string, exec Execution) error {
	return conformance.Consistent(g, start, end, exec)
}

// Check evaluates conformality (Definition 7) of a mined graph against the
// log it was mined from.
func Check(g *Graph, l *Log, start, end string, opt Options) *ConformanceReport {
	return conformance.Check(g, l, start, end, opt)
}

// LearnConditions solves Problem 2 (Section 7): for every edge of g, a
// decision-tree classifier is trained on the logged outputs of the edge's
// source activity, labeled by whether the target activity ran.
func LearnConditions(l *Log, g *Graph, cfg TreeConfig) map[Edge]*LearnedCondition {
	return conditions.Learn(l, g, cfg)
}

// NoiseThreshold returns the Section 6 edge-support threshold T for a log of
// m executions with pairwise out-of-order error rate epsilon (0 < ε < 1/2):
// the solution of ε^T = (1/2)^(m−T). Pass the result as Options.MinSupport.
func NoiseThreshold(m int, epsilon float64) (int, error) {
	return noise.ThresholdFor(m, epsilon)
}

// LogFormat selects a log codec.
type LogFormat int

// Supported log formats.
const (
	// FormatText is the space-separated one-event-per-line codec.
	FormatText LogFormat = iota
	// FormatCSV is the five-column CSV codec (handles names with spaces).
	FormatCSV
	// FormatJSON is the JSON-array codec.
	FormatJSON
	// FormatXES is the IEEE 1849 XES XML codec used by the wider
	// process-mining ecosystem (ProM, PM4Py).
	FormatXES
)

// FormatForPath guesses the codec from a file extension (.csv, .json, .xes;
// anything else = text). A trailing ".gz" is stripped first, so
// "trail.csv.gz" is gzip-compressed CSV.
func FormatForPath(path string) LogFormat {
	if strings.EqualFold(filepath.Ext(path), ".gz") {
		path = strings.TrimSuffix(path, filepath.Ext(path))
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return FormatCSV
	case ".json":
		return FormatJSON
	case ".xes":
		return FormatXES
	default:
		return FormatText
	}
}

// ReadLog decodes events from r in the given format and assembles them into
// a log.
func ReadLog(r io.Reader, format LogFormat) (*Log, error) {
	l, _, err := ReadLogWith(r, format, IngestOptions{})
	return l, err
}

// ReadLogWith is ReadLog under an ingestion recovery policy: bad records are
// skipped (or their executions quarantined) per opts instead of aborting the
// read, and the returned IngestReport counts exactly what happened. One
// report spans both decoding and assembly. Under the zero-value options
// (FailFast) it behaves exactly like ReadLog.
func ReadLogWith(r io.Reader, format LogFormat, opts IngestOptions) (*Log, *IngestReport, error) {
	rep := wlog.NewIngestReport(opts)
	var (
		events []Event
		err    error
	)
	switch format {
	case FormatText:
		events, rep, err = wlog.ReadTextWith(r, opts, rep)
	case FormatCSV:
		events, rep, err = wlog.ReadCSVWith(r, opts, rep)
	case FormatJSON:
		events, rep, err = wlog.ReadJSONWith(r, opts, rep)
	case FormatXES:
		return wlog.ReadXESWith(r, opts, rep)
	default:
		return nil, rep, fmt.Errorf("procmine: unknown log format %d", format)
	}
	if err != nil {
		return nil, rep, err
	}
	return wlog.AssembleWith(events, opts, rep)
}

// WriteLog encodes the log's events to w in the given format.
func WriteLog(w io.Writer, l *Log, format LogFormat) error {
	events := l.Events()
	switch format {
	case FormatText:
		return wlog.WriteText(w, events)
	case FormatCSV:
		return wlog.WriteCSV(w, events)
	case FormatJSON:
		return wlog.WriteJSON(w, events)
	case FormatXES:
		return wlog.WriteXES(w, l)
	default:
		return fmt.Errorf("procmine: unknown log format %d", format)
	}
}

// ReadLogFile reads a log file, guessing the codec from the extension; a
// ".gz" suffix enables transparent gzip decompression.
func ReadLogFile(path string) (*Log, error) {
	l, _, err := ReadLogFileWith(path, IngestOptions{})
	return l, err
}

// ReadLogFileWith is ReadLogFile under an ingestion recovery policy. A
// truncated or corrupt gzip stream is reported as an error even under
// lenient policies — decompression failure leaves no record boundary to
// resynchronize on — but everything decoded before the damage is governed
// by the policy.
func ReadLogFileWith(path string, opts IngestOptions) (*Log, *IngestReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.EqualFold(filepath.Ext(path), ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, nil, fmt.Errorf("procmine: opening gzip log %s: %w", path, err)
		}
		defer zr.Close()
		r = zr
	}
	return ReadLogWith(r, FormatForPath(path), opts)
}

// WriteLogFile writes a log file, guessing the codec from the extension; a
// ".gz" suffix enables transparent gzip compression.
func WriteLogFile(path string, l *Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	var zw *gzip.Writer
	if strings.EqualFold(filepath.Ext(path), ".gz") {
		zw = gzip.NewWriter(f)
		w = zw
	}
	if err := WriteLog(w, l, FormatForPath(path)); err != nil {
		f.Close()
		return err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Fitness grades a log against a graph execution by execution: the fraction
// consistent with Definition 6 plus a breakdown of the violations. Useful
// when binary conformance is too strict (noisy logs) and for evaluating a
// purported model against reality.
func Fitness(g *Graph, start, end string, l *Log) *conformance.FitnessReport {
	return conformance.Fitness(g, start, end, l)
}

// EdgeSupports annotates every edge of a mined graph with its evidence in
// the log: order support, co-occurrence count, and confidence.
func EdgeSupports(l *Log, g *Graph) map[Edge]core.EdgeSupport {
	return core.Support(l, g)
}

package procmine

// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the design choices called out in DESIGN.md. Absolute
// numbers differ from the paper's RS/6000 250 workstation; the shapes
// (linear scaling in the number of executions, mild growth with graph size,
// exact recovery) are the reproduction targets. Run with:
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"procmine/internal/core"
	"procmine/internal/experiments"
	"procmine/internal/flowmark"
	"procmine/internal/graph"
	"procmine/internal/noise"
	"procmine/internal/synth"
	"procmine/internal/wlog"
)

// syntheticLog builds one Table 1 workload: a random n-vertex DAG at the
// paper's edge density and m simulated executions.
func syntheticLog(b *testing.B, n, m int) (*graph.Digraph, *wlog.Log) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)*100003 + int64(m)))
	g := synth.RandomDAG(rng, n, synth.PaperEdgeProb(n))
	sim, err := synth.NewSimulator(g, rng)
	if err != nil {
		b.Fatal(err)
	}
	return g, sim.GenerateLog("b_", m)
}

// BenchmarkTable1Mine measures Algorithm 2 over the Table 1 sweep
// (n ∈ {10, 25, 50, 100} × m ∈ {100, 1000, 10000}). The m=10000 cells are
// the paper's largest workloads; -short skips them.
func BenchmarkTable1Mine(b *testing.B) {
	ms := []int{100, 1000, 10000}
	if testing.Short() {
		ms = []int{100, 1000}
	}
	for _, n := range []int{10, 25, 50, 100} {
		for _, m := range ms {
			_, l := syntheticLog(b, n, m)
			b.Run(fmt.Sprintf("n=%d/m=%d", n, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.MineGeneralDAG(l, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable2Recovery measures the full generate+mine+compare pipeline
// that produces a Table 2 cell, and reports edge recovery as custom metrics.
func BenchmarkTable2Recovery(b *testing.B) {
	for _, n := range []int{10, 25, 50} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ref, l := syntheticLog(b, n, 1000)
			var found, present int
			for i := 0; i < b.N; i++ {
				mined, err := core.MineGeneralDAG(l, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				found, present = mined.NumEdges(), ref.NumEdges()
			}
			b.ReportMetric(float64(present), "edges_present")
			b.ReportMetric(float64(found), "edges_found")
		})
	}
}

// BenchmarkTable3 measures mining each Flowmark replica's paper-sized log.
func BenchmarkTable3(b *testing.B) {
	for _, name := range flowmark.ProcessNames() {
		p, err := flowmark.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := flowmark.NewEngine(p, rand.New(rand.NewSource(1998)))
		if err != nil {
			b.Fatal(err)
		}
		l, err := eng.GenerateLog("b_", flowmark.PaperExecutions()[name], 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MineGeneralDAG(l, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure7Graph10 measures the Figure 7 experiment: 100 executions
// of Graph10 mined back to the exact graph.
func BenchmarkFigure7Graph10(b *testing.B) {
	g := synth.Graph10Canonical()
	sim, err := synth.NewSimulator(g, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	l := sim.GenerateLog("b_", 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mined, err := core.MineGeneralDAG(l, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !graph.Compare(g, mined).Equal() {
			b.Fatal("Graph10 not recovered")
		}
	}
}

// BenchmarkFigures8to12 measures mining plus DOT rendering for the five
// process figures.
func BenchmarkFigures8to12(b *testing.B) {
	res, err := experiments.RunFlowmark(experiments.FlowmarkConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countingDiscard
		if err := res.WriteFigures(&sink); err != nil {
			b.Fatal(err)
		}
	}
}

type countingDiscard struct{ n int }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// BenchmarkNoiseThresholded measures Section 6: corrupting a chain log and
// mining it with the closed-form threshold.
func BenchmarkNoiseThresholded(b *testing.B) {
	const m = 200
	l := LogFromStrings()
	for i := 0; i < m; i++ {
		l.Executions = append(l.Executions, FromSequence(fmt.Sprintf("n%04d", i), "A", "B", "C", "D", "E"))
	}
	c := noise.NewCorruptor(rand.New(rand.NewSource(9)))
	noisy := c.SwapAdjacent(l, 0.05)
	T, err := noise.ThresholdFor(m, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MineGeneralDAG(noisy, core.Options{MinSupport: T}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConditionsLearning measures Section 7: learning all edge
// conditions of the StressSleep replica from a 300-execution log.
func BenchmarkConditionsLearning(b *testing.B) {
	p, err := flowmark.Get("StressSleep")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := flowmark.NewEngine(p, rand.New(rand.NewSource(10)))
	if err != nil {
		b.Fatal(err)
	}
	l, err := eng.GenerateLog("b_", 300, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = LearnConditions(l, p.Graph, TreeConfig{MinLeaf: 5})
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationAlg1VsAlg2 compares Algorithm 1 against Algorithm 2 on a
// special-form log (where both apply): Algorithm 1 skips the per-execution
// marking pass and should win.
func BenchmarkAblationAlg1VsAlg2(b *testing.B) {
	// Full executions of a 20-activity partial order, random interleavings.
	rng := rand.New(rand.NewSource(12))
	var l wlog.Log
	acts := make([]string, 20)
	for i := range acts {
		acts[i] = fmt.Sprintf("t%02d", i)
	}
	for i := 0; i < 500; i++ {
		// Random order that respects t0 first, t19 last.
		mid := append([]string(nil), acts[1:19]...)
		rng.Shuffle(len(mid), func(a, c int) { mid[a], mid[c] = mid[c], mid[a] })
		seq := append([]string{acts[0]}, append(mid, acts[19])...)
		l.Executions = append(l.Executions, wlog.FromSequence(fmt.Sprintf("x%04d", i), seq...))
	}
	b.Run("alg1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MineSpecialDAG(&l, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alg2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MineGeneralDAG(&l, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMarkingOverhead isolates steps 5-6 of Algorithm 2 (the
// per-execution transitive reductions) by comparing the full algorithm with
// the dependency-graph-only prefix (steps 1-4).
func BenchmarkAblationMarkingOverhead(b *testing.B) {
	_, l := syntheticLog(b, 50, 1000)
	b.Run("steps1to4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rel, err := core.ComputeDependencies(l, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			_ = rel.Graph()
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MineGeneralDAG(l, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationParallelFollows compares the sequential step-2 scan
// against the sharded scan at forced worker counts on the largest Table 1
// workload (the cell the ISSUE acceptance pins). cmd/benchreport records the
// same ablation into BENCH_mine.json; run here with -benchmem to inspect the
// per-worker allocation cost of the private dense accumulators.
func BenchmarkAblationParallelFollows(b *testing.B) {
	_, l := syntheticLog(b, 100, 10000)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.FollowsCountsSequential(l)
		}
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("parallel/w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.FollowsCountsParallel(l, w)
			}
		})
	}
}

// BenchmarkLogCodecs measures the three codecs on the same log.
func BenchmarkLogCodecs(b *testing.B) {
	_, l := syntheticLog(b, 25, 1000)
	events := l.Events()
	codecs := map[string]func() error{
		"text": func() error { var s countingDiscard; return wlog.WriteText(&s, events) },
		"csv":  func() error { var s countingDiscard; return wlog.WriteCSV(&s, events) },
		"json": func() error { var s countingDiscard; return wlog.WriteJSON(&s, events) },
	}
	for _, name := range []string{"text", "csv", "json"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := codecs[name](); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalAdd measures the per-execution cost of the
// incremental miner's state update (the model-evolution path).
func BenchmarkIncrementalAdd(b *testing.B) {
	_, l := syntheticLog(b, 25, 1)
	exec := l.Executions[0]
	im := core.NewIncrementalMiner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := im.Add(exec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalMineVsBatch compares materializing the model from
// incremental state against batch-mining the full log.
func BenchmarkIncrementalMineVsBatch(b *testing.B) {
	_, l := syntheticLog(b, 25, 1000)
	im := core.NewIncrementalMiner()
	for _, exec := range l.Executions {
		if err := im.Add(exec); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := im.Mine(core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MineCyclic(l, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAdaptiveThreshold measures the overhead of the per-pair adaptive
// threshold against the plain and global-threshold paths.
func BenchmarkAdaptiveThreshold(b *testing.B) {
	_, l := syntheticLog(b, 50, 1000)
	opts := map[string]core.Options{
		"plain":    {},
		"global":   {MinSupport: 100},
		"adaptive": {AdaptiveEpsilon: 0.05},
	}
	for _, name := range []string{"plain", "global", "adaptive"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MineGeneralDAG(l, opts[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkXESCodec measures the XES encoder/decoder against a 1000-execution log.
func BenchmarkXESCodec(b *testing.B) {
	_, l := syntheticLog(b, 25, 1000)
	var encoded bytes.Buffer
	if err := wlog.WriteXES(&encoded, l); err != nil {
		b.Fatal(err)
	}
	data := encoded.Bytes()
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sink countingDiscard
			if err := wlog.WriteXES(&sink, l); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wlog.ReadXES(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// encodeText encodes l's events as a text trail, one event per line in
// time order, the way the procmine CLI reads it from disk.
func encodeText(b *testing.B, l *wlog.Log) []byte {
	b.Helper()
	var text bytes.Buffer
	if err := wlog.WriteText(&text, l.Events()); err != nil {
		b.Fatal(err)
	}
	return text.Bytes()
}

// interleave shifts execution k of l to start k nanoseconds after the
// first, so a trail of l's events in time order interleaves all of its
// executions the way a live trail does.
func interleave(l *wlog.Log) {
	base := l.Executions[0].Steps[0].Start
	for k := range l.Executions {
		steps := l.Executions[k].Steps
		shift := steps[0].Start.Sub(base) - time.Duration(k)
		for i := range steps {
			steps[i].Start = steps[i].Start.Add(-shift)
			steps[i].End = steps[i].End.Add(-shift)
		}
	}
}

// BenchmarkReadLogText measures the batch text path on the paper's largest
// Table 1 cell (n=100, m=10000): "whole" is ReadLogWith plus Validate, the
// read half of a procmine CLI run, on the simulator's trail, which lists
// each execution's events together; "interleaved" is the same on a trail
// whose executions all overlap; "decode" is ReadTextWith alone.
func BenchmarkReadLogText(b *testing.B) {
	_, l := syntheticLog(b, 100, 10000)
	text := encodeText(b, l)
	interleave(l)
	mixed := encodeText(b, l)
	for _, bc := range []struct {
		name string
		text []byte
	}{{"whole", text}, {"interleaved", mixed}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l, _, err := ReadLogWith(bytes.NewReader(bc.text), FormatText, IngestOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if err := l.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := wlog.ReadTextWith(bytes.NewReader(text), IngestOptions{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// streamBody encodes execs executions of a small cyclic process as one
// interleaved /ingest body.
func streamBody(b *testing.B, execs int) []byte {
	b.Helper()
	cyc := graph.NewFromEdges(
		graph.Edge{From: synth.StartActivity, To: "B"},
		graph.Edge{From: synth.StartActivity, To: "D"},
		graph.Edge{From: "B", To: "C"},
		graph.Edge{From: "C", To: "B"},
		graph.Edge{From: "C", To: "E"},
		graph.Edge{From: "D", To: "E"},
		graph.Edge{From: "E", To: synth.EndActivity},
	)
	cs, err := synth.NewCyclicSimulator(cyc, 3, rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	l := cs.GenerateLog("p", execs)
	interleave(l)
	return encodeText(b, l)
}

// BenchmarkStreamTextBody measures the procmined /ingest shape: one body
// of 50 interleaved cyclic executions decoded by StreamTextWith straight
// into a Skip ExecutionStream, then EmitCompleted.
func BenchmarkStreamTextBody(b *testing.B) {
	text := streamBody(b, 50)
	opts := IngestOptions{Policy: wlog.Skip}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := wlog.NewIngestReport(opts)
		execs := 0
		s := wlog.NewExecutionStreamWith(opts, rep, func(wlog.Execution) error {
			execs++
			return nil
		})
		if _, err := wlog.StreamTextWith(bytes.NewReader(text), opts, rep, s.Push); err != nil {
			b.Fatal(err)
		}
		if err := s.EmitCompleted(); err != nil {
			b.Fatal(err)
		}
		if execs != 50 || !rep.Clean() {
			b.Fatalf("emitted %d executions, report %s", execs, rep.Summary())
		}
	}
}

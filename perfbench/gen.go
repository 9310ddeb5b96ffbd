package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"procmine/internal/core"
	"procmine/internal/graph"
	"procmine/internal/synth"
	"procmine/internal/wlog"
)

// Input generation. Everything here is a pure function of the seed, and
// the program under test only ever sees the bytes and requests built from
// it. Oracles are computed here too, outside every timed region.
//
// Each workload's process graph is drawn once, from a fixed seed, and the
// run's seed draws the executions. Random graphs of one size differ in
// cost by more than the run-to-run noise (a quarter, seed to seed, for the
// serve pool), so a graph drawn per seed would hide a regression of that
// size; executions drawn per seed vary the bytes, the pairs and the
// activity sets a change meets without moving the cost.

const (
	batchActivities = 100   // the paper's largest Table 1 process
	batchExecutions = 10000 // and its largest log
	batchSamples    = 3     // logs of the same process, rotated between ops

	// processSeed draws both workloads' process graphs.
	processSeed = 19980322

	poolActivities = 50
	poolExecutions = 20000
	poolBackEdges  = 3
	poolUnroll     = 3  // loop iterations the cyclic simulator unrolls
	bodyExecutions = 50 // whole executions per /ingest body
)

// dotOptions renders the model exactly as `procmine -output dot` does.
var dotOptions = graph.DotOptions{Name: "Process", Rankdir: "LR"}

// batchSample is one on-disk Table 1 log and the DOT the CLI must print
// for it.
type batchSample struct {
	path   string
	text   []byte
	events int
	want   []byte
}

// makeBatchSamples simulates batchSamples logs of one random n=100
// process at the paper's edge density, writes them under dir, and mines
// each with Algorithm 2 for its oracle.
func makeBatchSamples(seed int64, dir string) ([]batchSample, error) {
	g := synth.RandomDAG(rand.New(rand.NewSource(processSeed)), batchActivities, synth.PaperEdgeProb(batchActivities))
	rng := rand.New(rand.NewSource(seed))
	out := make([]batchSample, batchSamples)
	for i := range out {
		sim, err := synth.NewSimulator(g, rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			return nil, err
		}
		l := sim.GenerateLog(fmt.Sprintf("s%d_", i), batchExecutions)
		events := l.Events()
		var text bytes.Buffer
		if err := wlog.WriteText(&text, events); err != nil {
			return nil, err
		}
		mined, err := core.MineGeneralDAG(l, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("oracle for sample %d: %w", i, err)
		}
		var want bytes.Buffer
		if err := mined.WriteDot(&want, dotOptions); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("sample-%d.txt", i))
		if err := os.WriteFile(path, text.Bytes(), 0o644); err != nil {
			return nil, err
		}
		out[i] = batchSample{path: path, text: text.Bytes(), events: len(events), want: want.Bytes()}
	}
	return out, nil
}

// body is one /ingest request body: bodyExecutions whole executions as
// text. Re-sends repeat the bytes, process IDs included: procmined routes
// an execution to a shard by its ID, so a copy under a fresh ID would
// land on another shard and grow that shard's pair and signature sets,
// and /model's cost would then rise with how much had been ingested.
type body struct {
	text   []byte
	events int
	execs  int
}

// pool is the serve workloads' input: a cyclic process's executions, the
// bodies that carry them, and the model every /model must return.
type pool struct {
	bodies []body
	events int
	want   string
}

// cyclicProcess is a random n=50 DAG at paper density plus poolBackEdges
// back edges, each reversing a forward edge between two of the last
// interior activities. Simulated executions are short and run towards
// END, so loops placed there fire in a tenth to a quarter of them; placed
// near START they fire in a handful of 20,000.
func cyclicProcess(rng *rand.Rand) (*graph.Digraph, error) {
	g := synth.RandomDAG(rng, poolActivities, synth.PaperEdgeProb(poolActivities))
	last := poolActivities - 2 // the last interior activity; END is last+1
	for added, tries := 0, 0; added < poolBackEdges; tries++ {
		if tries == 1000 {
			return nil, fmt.Errorf("found only %d of %d back edges", added, poolBackEdges)
		}
		u := last - 4 + rng.Intn(4)
		v := min(u+1+rng.Intn(2), last)
		a, b := synth.ActivityName(u), synth.ActivityName(v)
		if !g.HasEdge(a, b) || g.HasEdge(b, a) {
			continue
		}
		g.AddEdge(b, a)
		added++
	}
	return g, nil
}

// makePool simulates the serve pool, mines its oracle and encodes its
// bodies.
func makePool(seed int64) (*pool, error) {
	g, err := cyclicProcess(rand.New(rand.NewSource(processSeed)))
	if err != nil {
		return nil, err
	}
	cs, err := synth.NewCyclicSimulator(g, poolUnroll, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	l := &wlog.Log{Executions: make([]wlog.Execution, 0, poolExecutions)}
	repeats := 0
	for i := 0; i < poolExecutions; i++ {
		e := cs.Run(fmt.Sprintf("p%05d", i))
		if hasRepeat(e) {
			repeats++
		}
		l.Executions = append(l.Executions, e)
	}
	if repeats == 0 {
		return nil, fmt.Errorf("seed %d: no execution repeats an activity; the pool would not be cyclic", seed)
	}
	mined, err := core.MineCyclic(l, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("pool oracle: %w", err)
	}
	p := &pool{want: mined.Dot("procmined")}
	for lo := 0; lo < len(l.Executions); lo += bodyExecutions {
		part := &wlog.Log{Executions: l.Executions[lo:min(lo+bodyExecutions, len(l.Executions))]}
		events := part.Events()
		var text bytes.Buffer
		if err := wlog.WriteText(&text, events); err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body{text: text.Bytes(), events: len(events), execs: part.Len()})
		p.events += len(events)
	}
	return p, nil
}

func hasRepeat(e wlog.Execution) bool {
	seen := make(map[string]bool, len(e.Steps))
	for _, s := range e.Steps {
		if seen[s.Activity] {
			return true
		}
		seen[s.Activity] = true
	}
	return false
}

package wlog

import (
	"slices"
	"sort"
	"sync"
)

// Columnar execution representation. The mining hot path — the step-2
// follows-relation scan and the Algorithm 2 marking pass — is an O(len²·m)
// pair sweep whose per-iteration work is a handful of comparisons. On the
// natural representation (executions of Steps keyed by activity strings)
// every iteration pays a map lookup to resolve the activity and every
// execution pays fresh map/slice allocations for its dedup state, which the
// bench trajectory measured at ~33k allocs/op on the Table 1 workloads.
//
// The columnar view flattens the whole log once: an Interner maps activity
// labels to dense int32 IDs (sorted-label order, so dense iteration is
// deterministic), one shared arena holds every step's activity ID and
// start/end instants as parallel slices addressed by per-execution offsets,
// and the distinct activity sets the marking pass consumes are deduplicated
// into a second arena at build time. Mining kernels then run as index
// arithmetic over flat slices with zero per-iteration allocation, and the
// dense n×n count matrices they fill are pooled on the Columnar so repeated
// mining calls (the incremental service's steady state) reuse them.

// Interner maps activity labels to dense int32 IDs and back. IDs are
// assigned in sorted label order, so iterating IDs 0..Len()-1 visits
// activities in the same order as Log.Activities(). Duplicate labels in the
// input intern to a single ID. The zero value is empty; build one with
// NewInterner. An Interner is immutable after construction and safe for
// concurrent use.
type Interner struct {
	ids    map[string]int32
	labels []string
}

// NewInterner builds an interner over the given labels (any order,
// duplicates allowed).
func NewInterner(labels []string) *Interner {
	sorted := make([]string, len(labels))
	copy(sorted, labels)
	sort.Strings(sorted)
	dedup := sorted[:0]
	for i, l := range sorted {
		if i == 0 || l != sorted[i-1] {
			dedup = append(dedup, l)
		}
	}
	in := &Interner{ids: make(map[string]int32, len(dedup)), labels: dedup}
	for i, l := range dedup {
		in.ids[l] = int32(i)
	}
	return in
}

// ID returns the dense ID of a label and whether the label is interned.
func (in *Interner) ID(label string) (int32, bool) {
	id, ok := in.ids[label]
	return id, ok
}

// Label returns the label of a dense ID; out-of-range IDs return "".
func (in *Interner) Label(id int32) string {
	if id < 0 || int(id) >= len(in.labels) {
		return ""
	}
	return in.labels[id]
}

// Len returns the number of interned labels (the alphabet size n).
func (in *Interner) Len() int { return len(in.labels) }

// Labels returns the interned labels in dense-ID (sorted) order. The slice
// is shared; callers must not mutate it.
func (in *Interner) Labels() []string { return in.labels }

// Columnar is the flat, read-only view of a Log that the mining kernels
// scan: parallel step columns in one arena, per-execution offsets, and the
// deduplicated distinct activity sets. Build one with BuildColumnar or the
// cached Log.Columnar. A Columnar is immutable after construction (only the
// internal count-matrix pool mutates, under its own lock) and safe for
// concurrent use.
//
// Step instants are stored as (unix seconds, nanoseconds) pairs, so the
// kernels compare wall-clock time exactly as time.Time.Before does for the
// wall clock; monotonic-clock readings, which no log codec produces, are
// not represented.
type Columnar struct {
	in *Interner

	// Step arena: parallel columns, one entry per step, executions
	// contiguous. off has m+1 entries; execution e owns [off[e], off[e+1]).
	acts               []int32
	startSec, endSec   []int64
	startNsec, endNsec []int32
	off                []int32

	// Distinct-set arena: the deduplicated sorted distinct-activity-ID sets
	// across all executions. setOff has D+1 entries; set s owns
	// setIDs[setOff[s]:setOff[s+1]]. execSet maps each execution to its set.
	setIDs  []int32
	setOff  []int32
	execSet []int32

	// Count-matrix pool, so repeated mining calls and parallel scan workers
	// reuse the dense accumulators instead of reallocating ~20n² bytes each.
	poolMu sync.Mutex
	pool   []*Counts
}

// BuildColumnar flattens a log into its columnar view. The build is a
// one-time O(total steps · log) cost amortized over every mining call that
// reuses the result.
func BuildColumnar(l *Log) *Columnar {
	labels := l.Activities()
	in := &Interner{ids: make(map[string]int32, len(labels)), labels: labels}
	for i, lab := range labels {
		in.ids[lab] = int32(i)
	}
	m := len(l.Executions)
	total := 0
	for i := range l.Executions {
		total += len(l.Executions[i].Steps)
	}
	c := &Columnar{
		in:        in,
		acts:      make([]int32, 0, total),
		startSec:  make([]int64, 0, total),
		endSec:    make([]int64, 0, total),
		startNsec: make([]int32, 0, total),
		endNsec:   make([]int32, 0, total),
		off:       make([]int32, 1, m+1),
		setOff:    []int32{0},
		execSet:   make([]int32, 0, m),
	}
	// Distinct-set dedup: a generation-marked seen array avoids clearing,
	// and set signatures are byte-packed IDs (4 bytes little-endian each).
	seen := make([]int32, len(labels))
	ids := make([]int32, 0, 64)
	var sig []byte
	sets := make(map[string]int32)
	for e := range l.Executions {
		gen := int32(e + 1)
		steps := l.Executions[e].Steps
		ids = ids[:0]
		for i := range steps {
			id := in.ids[steps[i].Activity]
			c.acts = append(c.acts, id)
			c.startSec = append(c.startSec, steps[i].Start.Unix())
			c.startNsec = append(c.startNsec, int32(steps[i].Start.Nanosecond()))
			c.endSec = append(c.endSec, steps[i].End.Unix())
			c.endNsec = append(c.endNsec, int32(steps[i].End.Nanosecond()))
			if seen[id] != gen {
				seen[id] = gen
				ids = append(ids, id)
			}
		}
		c.off = append(c.off, int32(len(c.acts)))
		slices.Sort(ids)
		sig = sig[:0]
		for _, id := range ids {
			sig = append(sig, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		s, ok := sets[string(sig)]
		if !ok {
			s = int32(len(c.setOff) - 1)
			sets[string(sig)] = s
			c.setIDs = append(c.setIDs, ids...)
			c.setOff = append(c.setOff, int32(len(c.setIDs)))
		}
		c.execSet = append(c.execSet, s)
	}
	return c
}

// Interner returns the activity interner.
func (c *Columnar) Interner() *Interner { return c.in }

// NumExecutions returns the number of executions (the paper's m).
func (c *Columnar) NumExecutions() int { return len(c.off) - 1 }

// NumSteps returns the total number of steps in the arena.
func (c *Columnar) NumSteps() int { return len(c.acts) }

// Alphabet returns the activity-alphabet size (the paper's n).
func (c *Columnar) Alphabet() int { return c.in.Len() }

// Labels returns the activity labels in dense-ID order (shared slice).
func (c *Columnar) Labels() []string { return c.in.Labels() }

// ExecBounds returns the per-execution offsets into the step arena
// (m+1 entries). The slice is shared; callers must not mutate it.
func (c *Columnar) ExecBounds() []int32 { return c.off }

// StepActs returns the activity-ID column of the step arena (shared).
func (c *Columnar) StepActs() []int32 { return c.acts }

// StepTimes returns the four time columns of the step arena (shared):
// start seconds/nanoseconds and end seconds/nanoseconds.
func (c *Columnar) StepTimes() (startSec []int64, startNsec []int32, endSec []int64, endNsec []int32) {
	return c.startSec, c.startNsec, c.endSec, c.endNsec
}

// DistinctSets returns the deduplicated distinct-activity-set arena: set s
// is setIDs[setOff[s]:setOff[s+1]], sorted ascending. Both slices are
// shared; callers must not mutate them.
func (c *Columnar) DistinctSets() (setIDs, setOff []int32) { return c.setIDs, c.setOff }

// NumSets returns the number of distinct activity sets across executions.
func (c *Columnar) NumSets() int { return len(c.setOff) - 1 }

// ExecSet returns the per-execution distinct-set index (shared slice).
func (c *Columnar) ExecSet() []int32 { return c.execSet }

// Counts is one set of dense pair accumulators over interner IDs: the
// ordered/overlap/co-occurrence support matrices of the step-2 scan, plus
// the generation-marked per-execution dedup matrices. All matrices are n×n
// int32 in row-major order (cell u*n+v). Acquire zeroed instances from
// Columnar.AcquireCounts so parallel scan workers and repeated mining calls
// reuse the ~20n² bytes instead of reallocating them.
type Counts struct {
	// N is the matrix dimension (the interner alphabet size).
	N int
	// Order[u*N+v] counts executions where u terminated before v started.
	Order []int32
	// Overlap[u*N+v] (u < v) counts executions where u and v overlapped.
	Overlap []int32
	// Cooc[u*N+v] (u < v) counts executions containing both u and v.
	Cooc []int32
	// SeenOrder/SeenOverlap carry the per-execution generation marks the
	// scan kernel uses to count each pair at most once per execution.
	SeenOrder, SeenOverlap []int32
	// Gen is the current generation; the kernel increments it per execution.
	Gen int32
}

// newCounts allocates a zeroed accumulator for an n-activity alphabet.
func newCounts(n int) *Counts {
	return &Counts{
		N:           n,
		Order:       make([]int32, n*n),
		Overlap:     make([]int32, n*n),
		Cooc:        make([]int32, n*n),
		SeenOrder:   make([]int32, n*n),
		SeenOverlap: make([]int32, n*n),
	}
}

// reset returns the accumulator to its zeroed state for reuse.
func (cs *Counts) reset() {
	clear(cs.Order)
	clear(cs.Overlap)
	clear(cs.Cooc)
	clear(cs.SeenOrder)
	clear(cs.SeenOverlap)
	cs.Gen = 0
}

// AddFrom adds every count of other into cs; the generation matrices are
// not touched (they are scan-local dedup state, not output). This is the
// parallel scan's shard merge: element-wise integer addition, so the merged
// result is identical to a sequential scan for any shard split.
func (cs *Counts) AddFrom(other *Counts) {
	for i, v := range other.Order {
		cs.Order[i] += v
	}
	for i, v := range other.Overlap {
		cs.Overlap[i] += v
	}
	for i, v := range other.Cooc {
		cs.Cooc[i] += v
	}
}

// AcquireCounts returns a zeroed dense accumulator sized for this log's
// alphabet, reusing a pooled one when available. Pair it with
// ReleaseCounts; the pool is what makes steady-state mining alloc-free.
func (c *Columnar) AcquireCounts() *Counts {
	c.poolMu.Lock()
	var cs *Counts
	if k := len(c.pool); k > 0 {
		cs = c.pool[k-1]
		c.pool = c.pool[:k-1]
	}
	c.poolMu.Unlock()
	if cs == nil {
		return newCounts(c.in.Len())
	}
	cs.reset()
	return cs
}

// ReleaseCounts returns an accumulator to the pool for reuse.
func (c *Columnar) ReleaseCounts(cs *Counts) {
	if cs == nil || cs.N != c.in.Len() {
		return
	}
	c.poolMu.Lock()
	c.pool = append(c.pool, cs)
	c.poolMu.Unlock()
}

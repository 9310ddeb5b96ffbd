package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"procmine/internal/core"
	"procmine/internal/graph"
	"procmine/internal/wlog"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, {99, 90, false},
		{1000, 99, true}, {999, 99, false},
		{20, 50, true}, {19, 50, false},
	} {
		if got := enoughFor(c.n, c.p); got != c.want {
			t.Errorf("enoughFor(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
		var s samples
		for i := 1; i <= c.n; i++ {
			s = append(s, float64(i))
		}
		v, err := s.percentile(c.p)
		if (err == nil) != c.want {
			t.Errorf("percentile(p%g) of %d samples: err = %v, want error %v", c.p, c.n, err, !c.want)
		}
		if err == nil {
			beyond := 0
			for _, x := range s {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("p%g of %d samples is %v with %d samples beyond it", c.p, c.n, v, beyond)
			}
		}
	}
}

// TestStallDelaysEveryLaterRequest drives the open-loop generator against
// a handler that stalls once. Timed from their due times, the stalled
// request and every request queued behind it are slow until the backlog
// clears; timed from their sends, only the stalled one is.
func TestStallDelaysEveryLaterRequest(t *testing.T) {
	const (
		stalled  = 5
		stall    = 300 * time.Millisecond
		interval = 10 * time.Millisecond
		requests = 30
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("i") == strconv.Itoa(stalled) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newConn()
	defer c.CloseIdleConnections()
	ctx := context.Background()
	start := time.Now().Add(10 * time.Millisecond)
	st := openLoop(ctx, start, interval, start.Add(requests*interval), func(ctx context.Context, i int) bool {
		code, _, err := do(ctx, c, http.MethodGet, srv.URL+"/?i="+strconv.Itoa(i), nil)
		return err == nil && code == http.StatusOK
	})
	if st.sent != requests || st.ok != requests {
		t.Fatalf("sent %d, ok %d, want %d each", st.sent, st.ok, requests)
	}
	for i := stalled; i < requests; i++ {
		// Request i was due (i-stalled)*interval after the stalled one and
		// cannot be sent before the stall ends.
		floor := ms(stall - time.Duration(i-stalled)*interval)
		if floor > 0 && st.latency[i] < floor {
			t.Errorf("request %d: latency %.1f ms from due time, want at least %.1f ms", i, st.latency[i], floor)
		}
		if i > stalled && st.service[i] > ms(stall)/2 {
			t.Errorf("request %d: service time %.1f ms, want it fast", i, st.service[i])
		}
	}
	if st.backlogMax < int(stall/interval)-2 {
		t.Errorf("backlog max %d, want about %d", st.backlogMax, stall/interval)
	}
	late, err := st.late.percentile(50)
	if err != nil {
		t.Fatal(err)
	}
	if late > 5 {
		t.Errorf("median generator lateness %.2f ms: the wait for the stalled connection was charged to the generator", late)
	}
}

// oneEdgeOff returns g's DOT with one edge dropped.
func oneEdgeOff(t *testing.T, g *graph.Digraph, opts graph.DotOptions) []byte {
	t.Helper()
	h := g.Clone()
	e := h.Edges()[0]
	h.RemoveEdge(e.From, e.To)
	var b bytes.Buffer
	if err := h.WriteDot(&b, opts); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestBatchOracleCatchesOneEdge(t *testing.T) {
	l := wlog.LogFromStrings("ABCE", "ACDBE", "ACDE")
	var text bytes.Buffer
	if err := wlog.WriteText(&text, l.Events()); err != nil {
		t.Fatal(err)
	}
	g, err := core.MineGeneralDAG(l, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := g.WriteDot(&want, dotOptions); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := &batchSample{text: text.Bytes(), want: want.Bytes()}
	if !checkedBatchOp(context.Background(), s, &buf) {
		t.Fatalf("op output does not match its own oracle:\n%s", buf.String())
	}
	s.want = oneEdgeOff(t, g, dotOptions)
	if checkedBatchOp(context.Background(), s, &buf) {
		t.Error("check passed a model one edge away from the op's output")
	}
}

func TestModelOracleCatchesOneEdge(t *testing.T) {
	g := graph.NewFromEdges(graph.Edge{From: "A", To: "B"}, graph.Edge{From: "B", To: "C"})
	served := g.Dot("procmined")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(served))
	}))
	defer srv.Close()
	s := &server{base: srv.URL}
	c := newConn()
	defer c.CloseIdleConnections()
	ctx := context.Background()
	if ok, err := s.model(ctx, c, served); err != nil || !ok {
		t.Fatalf("model check of the served DOT itself: ok %v, err %v", ok, err)
	}
	if ok, err := s.model(ctx, c, string(oneEdgeOff(t, g, graph.DotOptions{Name: "procmined"}))); err != nil || ok {
		t.Errorf("model check passed a model one edge away: ok %v, err %v", ok, err)
	}
}

func TestRouteMeanFromExposition(t *testing.T) {
	before, err := parseExposition([]byte(`# TYPE procmined_http_request_seconds histogram
procmined_http_request_seconds_sum{class="2xx",route="/model"} 1
procmined_http_request_seconds_count{class="2xx",route="/model"} 10
procmined_http_request_seconds_sum{class="2xx",route="/ingest"} 5
procmined_http_request_seconds_count{class="2xx",route="/ingest"} 5
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition([]byte(`procmined_http_request_seconds_sum{route="/model",class="2xx"} 1.5
procmined_http_request_seconds_count{route="/model",class="2xx"} 20
procmined_http_request_seconds_sum{class="5xx",route="/model"} 0.5
procmined_http_request_seconds_count{class="5xx",route="/model"} 5
procmined_http_request_seconds_sum{class="2xx",route="/ingest"} 9
procmined_http_request_seconds_count{class="2xx",route="/ingest"} 9
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := routeMeanMs(before, after, "/model"); got != 1000.0/15 {
		t.Errorf("/model mean %v ms, want %v", got, 1000.0/15)
	}
	if got := rejected(before, after); got != 5 {
		t.Errorf("rejected %v, want 5", got)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metrics the command prints and
// the ones BENCHMARK.json declares the same.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, list := range []struct {
		defs []metricDef
		spec []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(list.defs) != len(list.spec) {
			t.Fatalf("%d metrics printed, %d declared", len(list.defs), len(list.spec))
		}
		for i, d := range list.defs {
			if d.name != list.spec[i].Name || d.unit != list.spec[i].Unit {
				t.Errorf("metric %d: printed %s (%s), declared %s (%s)", i, d.name, d.unit, list.spec[i].Name, list.spec[i].Unit)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s has no runner", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("declared workloads %s, runners for %d", strings.Join(names, ", "), len(workloads))
	}
}

package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadAdjacency parses the adjacency format emitted by WriteAdjacency:
//
//	A -> B C
//	B ->
//
// Blank lines are skipped. A line starting with '#' is a comment unless the
// text before its first "->" is a single token, so "# A -> B" and
// "# mined graph" are comments while "#x -> A" and "# ->" name vertices
// "#x" and "#". A vertex may appear only on the right-hand side; it is
// created on first mention. The format round-trips with WriteAdjacency,
// except for vertex names that contain whitespace or "->", and is the
// interchange format for `procmine -compare`.
func ReadAdjacency(r io.Reader) (*Digraph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		idx := strings.Index(line, "->")
		comment := strings.HasPrefix(line, "#") && (idx < 0 || strings.ContainsAny(strings.TrimSpace(line[:idx]), " \t"))
		if line == "" || comment {
			continue
		}
		if idx < 0 {
			return nil, fmt.Errorf("graph: line %d: missing '->': %q", lineno, line)
		}
		from := strings.TrimSpace(line[:idx])
		if from == "" {
			return nil, fmt.Errorf("graph: line %d: empty source vertex", lineno)
		}
		if strings.ContainsAny(from, " \t") {
			return nil, fmt.Errorf("graph: line %d: source %q contains whitespace", lineno, from)
		}
		g.AddVertex(from)
		for _, to := range strings.Fields(line[idx+2:]) {
			g.AddEdge(from, to)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning adjacency: %w", err)
	}
	return g, nil
}

// Adjacency renders the graph in the ReadAdjacency format.
func (g *Digraph) Adjacency() string {
	var b strings.Builder
	_ = g.WriteAdjacency(&b)
	return b.String()
}

package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Text format: SNAP-style edge lists. Lines starting with '#' or '%' are
// comments; each data line holds "u<ws>v" with 0-based node ids. Node count
// is inferred as max id + 1 unless the caller supplies one.

// ReadEdgeList parses a SNAP-style edge list. If undirected is true each
// line yields both directions (the convention for the paper's co-authorship
// datasets).
func ReadEdgeList(r io.Reader, undirected bool) (*Graph, error) {
	type edge struct{ u, v int32 }
	var edges []edge
	maxID := int32(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected \"u v\", got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source id: %w", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target id: %w", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		e := edge{int32(u), int32(v)}
		edges = append(edges, e)
		if e.u > maxID {
			maxID = e.u
		}
		if e.v > maxID {
			maxID = e.v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	b := NewBuilder(int(maxID) + 1).Reserve(len(edges))
	for _, e := range edges {
		if undirected {
			b.AddUndirected(e.u, e.v)
		} else {
			b.AddEdge(e.u, e.v)
		}
	}
	return b.Build(), nil
}

// LoadEdgeList reads an edge-list file from disk.
func LoadEdgeList(path string, undirected bool) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(bufio.NewReaderSize(f, 1<<20), undirected)
}

// WriteEdgeList emits the graph as a directed edge list.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# directed edge list: n=%d m=%d\n", g.N(), g.M())
	for u := int32(0); u < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			fmt.Fprintf(bw, "%d\t%d\n", u, v)
		}
	}
	return bw.Flush()
}

// The binary codec (snapshot-container format, mmap-backed OpenBinary)
// lives in binary.go.

package diag

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/exactsim/exactsim/internal/gen"
	"github.com/exactsim/exactsim/internal/graph"
)

// chunkGoldenPath pins the walk-pair kernel bit for bit: the meet count of
// one chunk of Algorithm-3 hybrid trials and the next draw of the stream
// after it, so a change that consumes one draw more or less fails here even
// when the count happens to agree. The table was recorded from the kernel
// that ran each trial as a non-stop prefix pair followed by a √c-walk pair,
// with the prefix-0 rows taken from Algorithm 2's own trial loop; it must
// pass unchanged against any later kernel, so it is never regenerated. The
// prefix-0 rows are therefore also the pin that a zero-length prefix draws
// exactly Algorithm 2's stream, which lets Basic and Improved runs share a
// SampleIndex's chunk cells.
const chunkGoldenPath = "testdata/chunk_golden.txt"

// chunkGoldenGraphs are the explore golden's random graph, which has
// in-degree-2 nodes and dead ends (node 78 has no in-neighbor), and
// a Barabási–Albert graph, whose edges are undirected (no dead ends, every
// in-degree ≥ 4) and whose hub is node 3.
var chunkGoldenGraphs = []struct {
	name  string
	g     func() *graph.Graph
	nodes []graph.NodeID
}{
	// 5: the hub (in-degree 9); 3: in-degree 2; 40 and 27: in-degree 2
	// and 5, one in-neighbor a dead end each.
	{"random", func() *graph.Graph { return randomGraph(2718, 80, 320) }, []graph.NodeID{5, 3, 40, 27}},
	// 3: the hub (in-degree 63); 99 and 250: low-degree nodes.
	{"ba", func() *graph.Graph { return gen.BarabasiAlbert(300, 4, 17) }, []graph.NodeID{3, 99, 250}},
}

// chunkGoldenSeeds are the streams each (node, prefix) cell is drawn from.
var chunkGoldenSeeds = []uint64{2, 77, 123456}

// chunkGoldenMaxPrefix is the deepest non-stop prefix the table covers.
const chunkGoldenMaxPrefix = 8

// chunkGoldenRows returns one "graph node prefix seed meets next-draw" row
// per cell. One Estimator serves every row of a graph.
func chunkGoldenRows() []string {
	var rows []string
	for _, gg := range chunkGoldenGraphs {
		e := NewEstimator(gg.g(), c, 1)
		for _, k := range gg.nodes {
			for lk := 0; lk <= chunkGoldenMaxPrefix; lk++ {
				for _, seed := range chunkGoldenSeeds {
					e.Reseed(seed)
					m := e.meets(k, lk, chunkSamples)
					next := e.w.RNG().Uint64()
					rows = append(rows, fmt.Sprintf("%s %d %d %d %d %016x", gg.name, k, lk, seed, m, next))
				}
			}
		}
	}
	return rows
}

func TestChunkGolden(t *testing.T) {
	data, err := os.ReadFile(chunkGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	got := chunkGoldenRows()
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden table has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

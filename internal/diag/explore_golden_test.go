package diag

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// exploreGoldenPath pins explore's output bit for bit. The table was
// recorded from the explore that built each overflowing level before giving
// it up; it must pass unchanged against any later explore, so it is never
// regenerated.
const exploreGoldenPath = "testdata/explore_golden.txt"

// exploreGoldenBudgets trip the edge budget at different levels of the
// golden graph, from level 1 to deep enough that the depth cap of 3 binds.
var exploreGoldenBudgets = []int64{1 << 5, 1 << 8, 1 << 11, 1 << 14, 1 << 17}

// exploreGoldenDepths explores to the default depth cap and to a
// TargetDepth-style cap of 3.
var exploreGoldenDepths = []int{maxDeterministicLevels, 3}

// exploreGoldenRows returns one "budget depth node ℓ(k) bits(ΣZ)" row per
// budget, depth and in-degree ≥ 2 node of the golden graph. One Estimator
// serves every row, so the table also covers scratch reuse across
// explorations.
func exploreGoldenRows() []string {
	g := randomGraph(2718, 80, 320)
	e := NewEstimator(g, c, 1)
	var rows []string
	for _, budget := range exploreGoldenBudgets {
		for _, depth := range exploreGoldenDepths {
			for k := int32(0); k < int32(g.N()); k++ {
				if g.InDegree(k) < 2 {
					continue
				}
				lk, zSum := e.explore(k, budget, depth)
				rows = append(rows, fmt.Sprintf("%d %d %d %d %016x", budget, depth, k, lk, math.Float64bits(zSum)))
			}
		}
	}
	return rows
}

func TestExploreGolden(t *testing.T) {
	data, err := os.ReadFile(exploreGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	got := exploreGoldenRows()
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden table has %d", len(got), len(want))
	}
	overflowAt := map[int]bool{} // levels at which some budget tripped
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d: got %q, want %q", i, got[i], want[i])
		}
		var budget int64
		var depth, node, lk int
		if _, err := fmt.Sscanf(want[i], "%d %d %d %d", &budget, &depth, &node, &lk); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if lk < depth {
			overflowAt[lk] = true
		}
	}
	// The table is only a pin on the overflow path if budgets really trip
	// at several different levels.
	if len(overflowAt) < 3 {
		t.Fatalf("budgets trip at only %d distinct levels; want at least 3", len(overflowAt))
	}
}

package walk

import (
	"fmt"
	"math"
	"testing"

	"github.com/exactsim/exactsim/internal/dataset"
	"github.com/exactsim/exactsim/internal/gen"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/linalg"
	"github.com/exactsim/exactsim/internal/ppr"
)

const c = 0.6

func TestNewWalkerValidatesC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("c=1 accepted")
		}
	}()
	NewWalker(gen.Cycle(3), 1.0, 1)
}

func TestTrajectoryBasics(t *testing.T) {
	g := gen.Cycle(5)
	w := NewWalker(g, c, 7)
	for trial := 0; trial < 200; trial++ {
		tr := w.Trajectory(0, 50, nil)
		if tr[0] != 0 {
			t.Fatal("trajectory must start at source")
		}
		if len(tr) > 51 {
			t.Fatalf("trajectory exceeded maxSteps: %d", len(tr))
		}
		// on a cycle, step t must be at node (0 - t) mod 5
		for i, v := range tr {
			want := int32(((0-i)%5 + 5) % 5)
			if v != want {
				t.Fatalf("cycle walk step %d at %d want %d", i, v, want)
			}
		}
	}
}

func TestTrajectoryStopsAtDeadEnd(t *testing.T) {
	g := gen.Path(3) // 0→1→2; node 0 has no in-neighbors
	w := NewWalker(g, 0.99, 3)
	for trial := 0; trial < 100; trial++ {
		tr := w.Trajectory(2, 100, nil)
		if len(tr) > 3 {
			t.Fatalf("walk escaped the path: %v", tr)
		}
	}
}

func TestTrajectoryLengthGeometric(t *testing.T) {
	// On a clique (no dead ends), E[steps] = √c/(1−√c).
	g := gen.Clique(20)
	w := NewWalker(g, c, 11)
	const trials = 200000
	total := 0
	for i := 0; i < trials; i++ {
		total += len(w.Trajectory(0, 1000, nil)) - 1
	}
	sqrtC := math.Sqrt(c)
	want := sqrtC / (1 - sqrtC)
	got := float64(total) / trials
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("mean walk length %g want %g", got, want)
	}
}

func TestTrajectoriesMeet(t *testing.T) {
	cases := []struct {
		a, b []graph.NodeID
		want bool
	}{
		{[]int32{0, 1, 2}, []int32{3, 1, 4}, true},    // meet at step 1
		{[]int32{0, 1, 2}, []int32{3, 4, 5}, false},   // never aligned
		{[]int32{0, 1}, []int32{3, 4, 1}, false},      // same node, different steps
		{[]int32{0}, []int32{0, 4, 1}, true},          // step-0 identity
		{[]int32{0, 1, 2, 9}, []int32{3, 4, 2}, true}, // meet at step 2
		{nil, []int32{1}, false},
	}
	for i, cse := range cases {
		if got := TrajectoriesMeet(cse.a, cse.b); got != cse.want {
			t.Fatalf("case %d: got %v", i, got)
		}
	}
}

func TestMeetFractionOnCycle(t *testing.T) {
	// Single in-neighbor everywhere: both walks survive step 1 with
	// probability c and then necessarily collide, so Pr[meet] = c.
	g := gen.Cycle(6)
	w := NewWalker(g, c, 5)
	got := w.MeetFraction(0, 200000)
	if math.Abs(got-c) > 0.005 {
		t.Fatalf("cycle meet fraction %g want %g", got, c)
	}
}

func TestMeetFractionOnStar(t *testing.T) {
	// From the center of an (n−1)-leaf star:
	// M = c·[1/(n−1) + (n−2)/(n−1)·c]  (distinct leaves then both → center).
	n := 8
	g := gen.Star(n)
	w := NewWalker(g, c, 13)
	leaves := float64(n - 1)
	want := c * (1/leaves + (leaves-1)/leaves*c)
	got := w.MeetFraction(0, 200000)
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("star meet fraction %g want %g", got, want)
	}
}

func TestMeetFractionOnClique(t *testing.T) {
	// Closed form via two-state symmetry: from distinct nodes,
	// M' = c·[(n−2)/(n−1)² + (1−(n−2)/(n−1)²)·M'];
	// from equal nodes, M = c·[1/(n−1) + (n−2)/(n−1)·M'].
	n := 5
	g := gen.Clique(n)
	w := NewWalker(g, c, 17)
	q := float64(n-2) / float64((n-1)*(n-1))
	mPrime := c * q / (1 - c*(1-q))
	want := c * (1/float64(n-1) + float64(n-2)/float64(n-1)*mPrime)
	got := w.MeetFraction(0, 300000)
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("clique meet fraction %g want %g", got, want)
	}
}

func TestMeetFractionDeadEnds(t *testing.T) {
	// Node with no in-neighbors: walks stop immediately, never meet.
	g := gen.Path(4)
	w := NewWalker(g, c, 19)
	if got := w.MeetFraction(0, 1000); got != 0 {
		t.Fatalf("dead-end meet fraction %g", got)
	}
	// In-degree 1 (node 1 on the path): meet iff both survive → c.
	got := w.MeetFraction(1, 200000)
	if math.Abs(got-c) > 0.005 {
		t.Fatalf("din=1 meet fraction %g want %g", got, c)
	}
}

func TestPairMeetsFromDistinct(t *testing.T) {
	// Two distinct leaves of a star: both must move to the center
	// simultaneously (prob c) to meet; otherwise at least one stopped.
	g := gen.Star(6)
	w := NewWalker(g, c, 23)
	const trials = 200000
	met := 0
	for i := 0; i < trials; i++ {
		if w.PairMeetsFrom(1, 2) {
			met++
		}
	}
	got := float64(met) / trials
	if math.Abs(got-c) > 0.005 {
		t.Fatalf("leaf pair meet %g want %g", got, c)
	}
}

func TestNonStopPrefixPair(t *testing.T) {
	// On an n-clique, two walks at one node move to distinct nodes with
	// probability (n−2)/(n−1), and two walks at distinct nodes pick the
	// same in-neighbor with probability q = (n−2)/(n−1)². So the pair
	// survives a prefix of ℓ ≥ 1 forced steps unmet with probability
	// (n−2)/(n−1)·(1−q)^(ℓ−1), and from distinct nodes two √c-walks meet
	// with probability M' = c·q/(1−c·(1−q)) (TestMeetFractionOnClique).
	n := 10
	g := gen.Clique(n)
	w := NewWalker(g, c, 29)
	q := float64(n-2) / float64((n-1)*(n-1))
	mPrime := c * q / (1 - c*(1-q))
	const trials = 200000
	for _, prefix := range []int{1, 3} {
		want := float64(n-2) / float64(n-1) * math.Pow(1-q, float64(prefix-1)) * mPrime
		got := float64(w.PairMeets(0, prefix, trials)) / trials
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("prefix %d: meet fraction %g want %g", prefix, got, want)
		}
	}
}

func TestNonStopPrefixPairDeadEnd(t *testing.T) {
	// Node 0's in-neighbors 1 and 2 have none. Two walks from 0 meet at
	// step 1 with probability c/2, but a forced first step takes them to
	// 1 and 2 unmet only if they split, and then a dead end stops both.
	b := graph.NewBuilder(3)
	b.AddEdge(1, 0)
	b.AddEdge(2, 0)
	g := b.Build()
	w := NewWalker(g, c, 31)
	for _, prefix := range []int{1, 2, 5} {
		if met := w.PairMeets(0, prefix, 1000); met != 0 {
			t.Fatalf("prefix %d: %d trials met through a dead end", prefix, met)
		}
	}
	got := w.MeetFraction(0, 200000)
	if math.Abs(got-c/2) > 0.005 {
		t.Fatalf("prefix 0: meet fraction %g want %g", got, c/2)
	}
}

func TestNonStopPrefixPairZeroPrefix(t *testing.T) {
	// With no prefix a trial is Algorithm 2's: two √c-walks from k,
	// PairMeetsFrom(k, k). The chunk loop must draw exactly that trial's
	// random numbers, so both walkers count the same meets and end on the
	// same stream position.
	g := gen.BarabasiAlbert(300, 4, 17)
	for _, k := range []graph.NodeID{0, 3, 99, 250} {
		chunk := NewWalker(g, c, uint64(k)+37)
		trials := NewWalker(g, c, uint64(k)+37)
		met := chunk.PairMeets(k, 0, 3000)
		var want int64
		for range 3000 {
			if trials.PairMeetsFrom(k, k) {
				want++
			}
		}
		if met != want {
			t.Fatalf("node %d: %d met, Algorithm 2's trials met %d", k, met, want)
		}
		if a, b := chunk.RNG().Uint64(), trials.RNG().Uint64(); a != b {
			t.Fatalf("node %d: streams diverged (%x vs %x)", k, a, b)
		}
	}
}

func TestStopDistributionMatchesPPR(t *testing.T) {
	// On a dead-end-free graph the walk's stop distribution is the full PPR
	// vector (internal/ppr computes it by linear algebra).
	g := gen.Clique(8)
	op := linalg.NewOperator(g, 1)
	hops := ppr.HopsDense(op, 0, ppr.Config{C: c, L: 60})
	want := make([]float64, g.N())
	for _, h := range hops {
		for k, v := range h {
			want[k] += v
		}
	}
	w := NewWalker(g, c, 41)
	got := w.StopDistribution(0, 300000)
	for k := range want {
		if math.Abs(got[k]-want[k]) > 0.005 {
			t.Fatalf("stop distribution at %d: %g want %g", k, got[k], want[k])
		}
	}
}

func TestForkIndependence(t *testing.T) {
	g := gen.Clique(6)
	w := NewWalker(g, c, 43)
	f := w.Fork()
	// forked walker must be usable and deterministic given the parent seed
	a := f.MeetFraction(0, 1000)
	w2 := NewWalker(g, c, 43)
	b := w2.Fork().MeetFraction(0, 1000)
	if a != b {
		t.Fatalf("forked walkers not reproducible: %g vs %g", a, b)
	}
}

// pairsMet keeps BenchmarkPairMeets' result live.
var pairsMet int64

// BenchmarkPairMeets reports the cost of one walk-pair trial (ns/op) by
// the depth of its non-stop prefix, at node 37429 of the DB stand-in:
// prefix 0 is Algorithm 2's trial; deeper prefixes are what Algorithm 3
// runs after an exploration reached that depth. All b.N trials are one
// run, as a diag sample chunk is.
func BenchmarkPairMeets(b *testing.B) {
	spec, err := dataset.ByKey("DB")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Generate(1)
	for _, prefix := range []int{0, 3, 6} {
		b.Run(fmt.Sprintf("prefix=%d", prefix), func(b *testing.B) {
			w := NewWalker(g, c, 1)
			b.ResetTimer()
			pairsMet = w.PairMeets(37429, prefix, b.N)
		})
	}
}

func BenchmarkTrajectory(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 5, 1)
	w := NewWalker(g, c, 1)
	var buf []graph.NodeID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = w.Trajectory(int32(i%g.N()), 100, buf)
	}
}

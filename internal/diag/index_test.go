package diag

import (
	"math"
	"sync"
	"testing"

	"github.com/exactsim/exactsim/internal/gen"
	"github.com/exactsim/exactsim/internal/graph"
)

// indexTestRequests builds a request mix exercising every index path: a
// fat multi-chunk node, mid-size nodes with partial tail chunks, trivial
// in-degree nodes, and (Improved mode) depth-compensated requests.
func indexTestRequests(g *graph.Graph) []Request {
	reqs := []Request{
		{Node: 0, Samples: 3 * chunkSamples},                                      // three full chunks
		{Node: 1, Samples: chunkSamples + 100},                                    // full + partial tail
		{Node: 2, Samples: 500},                                                   // single partial chunk
		{Node: 3, Samples: 1},                                                     // minimal
		{Node: 5, Samples: 2048, TargetDepth: 3, EdgeBudget: 1 << 18},             // compensated
		{Node: 7, Samples: 2 * chunkSamples, TargetDepth: 2, EdgeBudget: 1 << 16}, // compensated, fat
	}
	for i := range reqs {
		if int(reqs[i].Node) >= g.N() {
			panic("graph too small for index test requests")
		}
	}
	return reqs
}

// bitsEqual fails the test at the first float whose bits differ.
func bitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %x, want %x", label,
				i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestSampleIndexColdWarmBitEqual is the index's core contract: for one
// request set, the output with no index, with a cold index, with the same
// index warm, and with an index pre-warmed by a different query, are all
// bit-identical — the index is an amortization layer, never an estimator
// change.
func TestSampleIndexColdWarmBitEqual(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 3)
	reqs := indexTestRequests(g)
	for _, improved := range []bool{false, true} {
		base := Options{C: c, Improved: improved, Workers: 2, Seed: 11}

		want := Batch(g, reqs, base)

		withIx := base
		withIx.Index = NewSampleIndex(0)
		cold := Batch(g, reqs, withIx)
		bitsEqual(t, "cold index", cold, want)

		warm := Batch(g, reqs, withIx)
		bitsEqual(t, "warm index", warm, want)

		// An index warmed by a *different* request set must not perturb
		// this one (shared nodes hit, different sizes miss — both exact).
		other := NewSampleIndex(0)
		otherReqs := []Request{
			{Node: 0, Samples: chunkSamples},
			{Node: 2, Samples: 500},
			{Node: 9, Samples: 100},
		}
		crossIx := base
		crossIx.Index = other
		Batch(g, otherReqs, crossIx)
		cross := Batch(g, reqs, crossIx)
		bitsEqual(t, "cross-warmed index", cross, want)

		st := withIx.Index.Stats()
		if st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("index never exercised: %+v", st)
		}
		if st.Chunks == 0 || st.ResidentBytes <= 0 {
			t.Fatalf("nothing resident: %+v", st)
		}
		if improved && st.Explores == 0 {
			t.Fatalf("no explorations cached in improved mode: %+v", st)
		}
	}
}

// TestSampleIndexEvictionBitEqual pins the eviction contract: a budget far
// too small for the working set forces constant chunk-granularity LRU
// eviction, and the output stays bit-identical to the indexless run — a
// re-sampled chunk reproduces the evicted integer exactly.
func TestSampleIndexEvictionBitEqual(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 5)
	reqs := indexTestRequests(g)
	base := Options{C: c, Improved: true, Workers: 2, Seed: 7}
	want := Batch(g, reqs, base)

	tiny := base
	tiny.Index = NewSampleIndex(512) // a handful of entries at most
	for round := 0; round < 3; round++ {
		got := Batch(g, reqs, tiny)
		bitsEqual(t, "evicting index", got, want)
	}
	st := tiny.Index.Stats()
	if st.Evictions == 0 {
		t.Fatalf("budget 512 never evicted: %+v", st)
	}
	if st.ResidentBytes > 512 {
		t.Fatalf("resident %d exceeds budget 512", st.ResidentBytes)
	}
}

// TestSampleIndexMismatchBypass: an index bound to another (graph, c,
// seed) triple must be bypassed, not consulted — its chunks belong to
// different streams.
func TestSampleIndexMismatchBypass(t *testing.T) {
	g1 := gen.BarabasiAlbert(300, 3, 1)
	g2 := gen.BarabasiAlbert(300, 3, 2)
	reqs := []Request{{Node: 0, Samples: 4096}, {Node: 1, Samples: 512}}

	ix := NewSampleIndex(0)
	Batch(g1, reqs, Options{C: c, Improved: true, Seed: 9, Index: ix}) // binds to g1

	want := Batch(g2, reqs, Options{C: c, Improved: true, Seed: 9})
	got := Batch(g2, reqs, Options{C: c, Improved: true, Seed: 9, Index: ix})
	bitsEqual(t, "mismatched graph", got, want)

	wantSeed := Batch(g1, reqs, Options{C: c, Improved: true, Seed: 10})
	gotSeed := Batch(g1, reqs, Options{C: c, Improved: true, Seed: 10, Index: ix})
	bitsEqual(t, "mismatched seed", gotSeed, wantSeed)
}

// TestTailMeetsZeroPrefixIsPairMeets pins the stream identity the shared
// chunk key relies on: a chunk with a zero-length non-stop prefix must
// consume exactly the RNG draws of Algorithm 2's trial, two √c-walks from
// the node (PairMeetsFrom(k, k)), and count the same meets, so chunk
// entries at lk=0 are interchangeable between Algorithm-2 and Algorithm-3
// queries sharing one index. If a walk-engine change breaks this, the
// chunkKey needs an Improved/Basic bit.
func TestTailMeetsZeroPrefixIsPairMeets(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, 17)
	e := NewEstimator(g, c, 1)
	for _, node := range []graph.NodeID{0, 3, 99, 250} {
		for _, seed := range []uint64{2, 77, 123456} {
			e.Reseed(seed)
			var pair int64
			for range 3000 {
				if e.w.PairMeetsFrom(node, node) {
					pair++
				}
			}
			pairNext := e.w.RNG().Uint64()
			e.Reseed(seed)
			tail := e.meets(node, 0, 3000)
			if tailNext := e.w.RNG().Uint64(); pair != tail || pairNext != tailNext {
				t.Fatalf("node %d seed %d: Algorithm 2's trials met %d (next draw %x), a prefix-0 chunk %d (%x) — streams diverged",
					node, seed, pair, pairNext, tail, tailNext)
			}
		}
	}
}

// TestSampleIndexReset: Reset clears the binding and the resident entries,
// and the next use rebinds to a new graph and serves it correctly.
func TestSampleIndexReset(t *testing.T) {
	g1 := gen.BarabasiAlbert(300, 3, 1)
	g2 := gen.BarabasiAlbert(300, 3, 2)
	reqs := []Request{{Node: 0, Samples: 4096}, {Node: 1, Samples: 512}}

	ix := NewSampleIndex(0)
	Batch(g1, reqs, Options{C: c, Improved: true, Seed: 9, Index: ix})
	if st := ix.Stats(); st.Chunks == 0 {
		t.Fatalf("nothing cached before reset: %+v", st)
	}

	ix.Reset()
	if st := ix.Stats(); st.Chunks != 0 || st.Explores != 0 || st.ResidentBytes != 0 {
		t.Fatalf("reset left residue: %+v", st)
	}

	// Rebinds to g2 and actually serves it (a second run must hit).
	want := Batch(g2, reqs, Options{C: c, Improved: true, Seed: 9})
	got := Batch(g2, reqs, Options{C: c, Improved: true, Seed: 9, Index: ix})
	bitsEqual(t, "post-reset cold", got, want)
	before := ix.Stats().Hits
	again := Batch(g2, reqs, Options{C: c, Improved: true, Seed: 9, Index: ix})
	bitsEqual(t, "post-reset warm", again, want)
	if ix.Stats().Hits == before {
		t.Fatal("index did not rebind to the new graph after Reset")
	}
}

// TestSampleIndexConcurrentBatch runs many concurrent Batch calls over
// overlapping request sets against one shared index (the Service's serving
// pattern) and checks — under -race — that every result is bit-identical
// to its indexless serial counterpart, even while entries race to fill and
// evict.
func TestSampleIndexConcurrentBatch(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 13)
	sets := [][]Request{
		{{Node: 0, Samples: 2 * chunkSamples}, {Node: 1, Samples: 700}},
		{{Node: 0, Samples: 2 * chunkSamples}, {Node: 2, Samples: 1024}},
		{{Node: 1, Samples: 700}, {Node: 2, Samples: 1024}, {Node: 3, Samples: 64}},
		{{Node: 0, Samples: chunkSamples}, {Node: 3, Samples: 64}},
	}
	base := Options{C: c, Improved: true, Workers: 2, Seed: 21}
	want := make([][]float64, len(sets))
	for i, reqs := range sets {
		want[i] = Batch(g, reqs, base)
	}

	ix := NewSampleIndex(0)
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i := range sets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				withIx := base
				withIx.Index = ix
				got := Batch(g, sets[i], withIx)
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
						t.Errorf("set %d value %d diverged under concurrency", i, j)
						return
					}
				}
			}(i)
		}
	}
	wg.Wait()
}

// Dynamic demonstrates live graph serving — the index-free advantage the
// paper notes in §4: ExactSim "can handle dynamic graphs" because after
// edge updates a query on a fresh snapshot is exact with zero
// maintenance. Here that property is wired all the way into the serving
// layer: a Service installs each committed DynamicGraph snapshot with
// Update under a new epoch without downtime — the new generation starts
// with empty caches, in-flight queries finish on the epoch they started
// with, and every response says which generation answered it. An
// index-based method (MC) built before the updates keeps answering the
// old graph until it pays a full rebuild.
//
//	go run ./examples/dynamic
package main

import (
	"context"
	"fmt"
	"log"

	exactsim "github.com/exactsim/exactsim"
)

func main() {
	// Start from a Wikivote-style directed graph and make it dynamic.
	g0, err := exactsim.GenerateDataset("WV", 0.1)
	if err != nil {
		log.Fatal(err)
	}
	dyn := exactsim.DynamicFrom(g0)
	fmt.Printf("initial graph: n=%d m=%d\n", dyn.N(), dyn.M())

	// The service answers on one snapshot of the graph at a time: each
	// Update installs a fresh snapshot as the next epoch.
	svc, err := exactsim.NewService(dyn.Snapshot(), exactsim.ServiceOptions{
		Workers:        4,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(1e-3), exactsim.WithSeed(7)},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	const source = 5
	const k = 5
	ctx := context.Background()

	query := func(tag string) exactsim.Response {
		resp := svc.Query(ctx, exactsim.Request{Source: source, K: k})
		if resp.Err != nil {
			log.Fatal(resp.Err)
		}
		fmt.Printf("\n%s — top-%d of node %d (epoch %d, cache_hit=%v):\n",
			tag, k, source, resp.GraphEpoch, resp.CacheHit)
		for rank, e := range resp.TopK {
			fmt.Printf("  %d. node %-6d s = %.6f\n", rank+1, e.Idx, e.Val)
		}
		return resp
	}

	before := query("before updates")
	query("same query again") // served by the epoch-1 cache line

	// A stale MC index built now will keep answering the OLD graph.
	staleIndex, err := exactsim.NewQuerier("mc", dyn.Snapshot(),
		exactsim.WithWalks(15, 500), exactsim.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}

	// Update burst: rewire the source's neighborhood towards the current
	// top hit, making them strongly similar. The service keeps answering
	// throughout; nothing changes until Update commits the batch.
	target := before.TopK[0].Idx
	added := 0
	for _, v := range dyn.Snapshot().OutNeighbors(target) {
		if dyn.AddEdge(v, source) { // give source the same referrers
			added++
		}
	}
	epoch, err := svc.Update(dyn.Snapshot())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\napplied %d edge insertions and committed them — service epoch is now %d\n",
		added, epoch)

	// The same request again: the pre-update cache line stayed with the
	// old generation, the answer is exact on the new graph, zero
	// maintenance paid.
	query("after update (fresh epoch, zero maintenance)")

	// The stale index still reports pre-update similarities.
	staleTop, _, err := staleIndex.TopK(ctx, source, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstale MC index (built before the updates) — top-%d:\n", k)
	for rank, e := range staleTop {
		fmt.Printf("  %d. node %-6d s = %.6f\n", rank+1, e.Idx, e.Val)
	}
	fmt.Println("\nExactSim needed no rebuild: it is index-free, so the live service")
	fmt.Println("serves the updated similarities exactly, from the moment of Update.")
	fmt.Println("The MC index must be rebuilt from scratch to notice the new edges.")
}

package graph

import (
	"fmt"
	"sort"
)

// DynamicGraph maintains a mutable edge set with cheap snapshots to the
// immutable CSR Graph that the algorithms run on. The paper points out
// (§4, Methods and Parameters) that ExactSim and ParSim handle dynamic
// graphs precisely because they are index-free: after any batch of
// updates, queries on a fresh snapshot are exact with zero maintenance —
// unlike MC/PRSim/Linearization whose indexes would have to be rebuilt.
//
// Adjacency is kept as sorted out-neighbor slices: AddEdge/RemoveEdge are
// O(d_out(u)), Snapshot is O(n + m) and cached until the next mutation.
// DynamicGraph is not safe for concurrent mutation.
type DynamicGraph struct {
	out      [][]int32
	m        int
	snapshot *Graph // invalidated by mutations
}

// NewDynamic returns an empty dynamic graph with n nodes.
func NewDynamic(n int) *DynamicGraph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &DynamicGraph{out: make([][]int32, n)}
}

// DynamicFrom initializes a dynamic graph from an existing snapshot.
func DynamicFrom(g *Graph) *DynamicGraph {
	d := NewDynamic(g.N())
	for u := int32(0); u < int32(g.N()); u++ {
		d.out[u] = append([]int32(nil), g.OutNeighbors(u)...)
	}
	d.m = g.M()
	return d
}

// N returns the current node count.
func (d *DynamicGraph) N() int { return len(d.out) }

// M returns the current edge count.
func (d *DynamicGraph) M() int { return d.m }

// AddNode appends an isolated node and returns its id.
func (d *DynamicGraph) AddNode() NodeID {
	d.out = append(d.out, nil)
	d.snapshot = nil
	return int32(len(d.out) - 1)
}

func (d *DynamicGraph) check(u, v NodeID) {
	if u < 0 || int(u) >= len(d.out) || v < 0 || int(v) >= len(d.out) {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, len(d.out)))
	}
}

// find returns the insertion position of v in u's sorted out-list and
// whether it is present.
func (d *DynamicGraph) find(u, v NodeID) (int, bool) {
	adj := d.out[u]
	pos := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return pos, pos < len(adj) && adj[pos] == v
}

// AddEdge inserts u→v; it reports whether the edge was new. Self-loops
// are rejected (the SimRank convention shared with Builder).
func (d *DynamicGraph) AddEdge(u, v NodeID) bool {
	d.check(u, v)
	if u == v {
		return false
	}
	pos, exists := d.find(u, v)
	if exists {
		return false
	}
	adj := d.out[u]
	adj = append(adj, 0)
	copy(adj[pos+1:], adj[pos:])
	adj[pos] = v
	d.out[u] = adj
	d.m++
	d.snapshot = nil
	return true
}

// RemoveEdge deletes u→v; it reports whether the edge existed.
func (d *DynamicGraph) RemoveEdge(u, v NodeID) bool {
	d.check(u, v)
	pos, exists := d.find(u, v)
	if !exists {
		return false
	}
	adj := d.out[u]
	copy(adj[pos:], adj[pos+1:])
	d.out[u] = adj[:len(adj)-1]
	d.m--
	d.snapshot = nil
	return true
}

// AddUndirected inserts both directions; reports whether either was new.
func (d *DynamicGraph) AddUndirected(u, v NodeID) bool {
	a := d.AddEdge(u, v)
	b := d.AddEdge(v, u)
	return a || b
}

// RemoveUndirected deletes both directions.
func (d *DynamicGraph) RemoveUndirected(u, v NodeID) bool {
	a := d.RemoveEdge(u, v)
	b := d.RemoveEdge(v, u)
	return a || b
}

// HasEdge reports whether u→v currently exists.
func (d *DynamicGraph) HasEdge(u, v NodeID) bool {
	d.check(u, v)
	_, exists := d.find(u, v)
	return exists
}

// OutDegree returns the current out-degree of u.
func (d *DynamicGraph) OutDegree(u NodeID) int { return len(d.out[u]) }

// Snapshot freezes the current edge set into an immutable CSR Graph.
// Snapshots are cached: repeated calls without intervening mutations
// return the same *Graph.
func (d *DynamicGraph) Snapshot() *Graph {
	if d.snapshot != nil {
		return d.snapshot
	}
	b := NewBuilder(len(d.out)).Reserve(d.m)
	for u := range d.out {
		for _, v := range d.out[u] {
			b.AddEdge(int32(u), v)
		}
	}
	d.snapshot = b.Build()
	return d.snapshot
}

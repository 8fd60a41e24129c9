// Package exactsim is a Go implementation of ExactSim — "Exact
// Single-Source SimRank Computation on Large Graphs" (Wang, Wei, Yuan, Du,
// Wen; SIGMOD 2020) — together with every baseline and evaluation tool the
// paper's experimental study uses.
//
// SimRank (Jeh & Widom 2002) scores the structural similarity of two nodes
// by the recursive intuition that "two pages are similar if they are
// referenced by similar pages". ExactSim is the first algorithm that
// answers single-source SimRank queries on large graphs with an additive
// error of ε = 10⁻⁷ — float-precision ground truth — with high
// probability, in O(log n/ε² + m·log(1/ε)) time.
//
// # Quick start
//
//	g, _ := exactsim.GenerateDataset("GQ", 1.0) // or LoadEdgeList(...)
//	q, _ := exactsim.NewQuerier("exactsim", g, exactsim.WithEpsilon(1e-6))
//	res, _ := q.SingleSource(ctx, 42)   // res.Scores[j] = S(42, j) ± ε
//	top, _, _ := q.TopK(ctx, 42, 10)    // ten most similar nodes
//
// NewQuerier accepts any name in Algorithms() — ExactSim, its Basic
// ablation variant, and the six baselines all answer through the same
// Querier interface with context-based cancellation. For concurrent
// multi-user traffic, wrap the graph in a Service (worker pool, per-query
// deadlines, an LRU result cache per graph generation, batching, live
// graph updates via Update):
//
//	svc, _ := exactsim.NewService(g, exactsim.ServiceOptions{})
//	defer svc.Close()
//	resp := svc.Query(ctx, exactsim.Request{Source: 42, K: 10})
//
// Request/Response form a serializable protocol (structured error codes,
// graph epochs) with an HTTP transport in the httpapi package and a
// serving daemon in cmd/exactsimd; httpapi.Client implements this same
// Querier interface against a remote server. See DESIGN.md §6. A warm
// service persists its state — graph plus diagonal sample index — as a
// checksummed snapshot container (Service.Snapshot/SaveSnapshot) that
// OpenSnapshot restores in milliseconds with the graph mmap'd zero-copy;
// see DESIGN.md §8.
//
// # Packages
//
// The root package is a facade over the internal implementation:
// internal/algo defines the unified Querier interface and registry,
// internal/core holds the ExactSim algorithm, internal/{mc, parsim,
// lineariz, prsim, probesim, powermethod} the baselines, internal/eval
// the paper's metrics and pooling protocol, internal/dataset the Table-2
// dataset stand-ins, and internal/harness the per-figure experiment
// drivers (see cmd/experiments and DESIGN.md).
package exactsim

import (
	"context"
	"io"

	"github.com/exactsim/exactsim/internal/algo"
	"github.com/exactsim/exactsim/internal/core"
	"github.com/exactsim/exactsim/internal/dataset"
	"github.com/exactsim/exactsim/internal/diag"
	"github.com/exactsim/exactsim/internal/eval"
	"github.com/exactsim/exactsim/internal/gen"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/sparse"
)

// Core graph types.
type (
	// Graph is the immutable CSR directed graph all algorithms run on.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and freezes them into a Graph.
	GraphBuilder = graph.Builder
	// DynamicGraph supports edge updates with cheap CSR snapshots; the
	// index-free methods (ExactSim, ParSim, ProbeSim) answer exactly on
	// every snapshot with no index maintenance.
	DynamicGraph = graph.DynamicGraph
	// NodeID identifies a vertex (dense 0-based int32 ids).
	NodeID = graph.NodeID
	// GraphStats summarizes degree structure.
	GraphStats = graph.Stats
	// Entry pairs a node with a similarity score (top-k results).
	Entry = sparse.Entry
)

// Unified query API (internal/algo). Every algorithm in Algorithms() is
// constructible through NewQuerier and answers through the same two
// context-aware methods; see DESIGN.md §2.
type (
	// Querier is the unified single-source SimRank interface implemented
	// by every registered algorithm. Safe for concurrent use.
	Querier = algo.Querier
	// QueryResult is the uniform single-source answer (scores + costs).
	QueryResult = algo.Result
	// QuerierIndex is the optional interface of index-based queriers
	// (preprocessing time and index footprint).
	QuerierIndex = algo.Index
	// QuerierOption customizes NewQuerier (see the With... constructors).
	QuerierOption = algo.Option
	// DiagSampleIndex is a shared cache of ExactSim's diagonal-phase
	// sample chunks and exploration results; attach one with
	// WithDiagIndex to amortize the Diagonal phase across queries
	// (a Service does this automatically, one index per graph epoch).
	DiagSampleIndex = diag.SampleIndex
	// DiagIndexStats is a DiagSampleIndex gauge snapshot.
	DiagIndexStats = diag.IndexStats
)

// Algorithms returns the registry names accepted by NewQuerier: exactsim,
// exactsim-basic, linearization, mc, parsim, powermethod, probesim, prsim.
func Algorithms() []string { return algo.Names() }

// KnownAlgorithm reports whether name is a registered algorithm (O(1)).
func KnownAlgorithm(name string) bool { return algo.Known(name) }

// NewQuerier constructs the named algorithm over g with per-algorithm
// functional options. Index-based algorithms (mc, linearization, prsim,
// powermethod) pay their preprocessing here.
func NewQuerier(name string, g *Graph, opts ...QuerierOption) (Querier, error) {
	return algo.New(name, g, opts...)
}

// NewQuerierCtx is NewQuerier with the index build bounded by ctx.
func NewQuerierCtx(ctx context.Context, name string, g *Graph, opts ...QuerierOption) (Querier, error) {
	return algo.NewCtx(ctx, name, g, opts...)
}

// Querier options, re-exported from internal/algo as wrapper functions
// (not package vars, which would be mutable by importers).

// WithC sets the SimRank decay factor (paper: 0.6).
func WithC(c float64) QuerierOption { return algo.WithC(c) }

// WithEpsilon sets the additive error target for error-driven methods.
func WithEpsilon(eps float64) QuerierOption { return algo.WithEpsilon(eps) }

// WithSeed fixes every random choice deterministically.
func WithSeed(seed uint64) QuerierOption { return algo.WithSeed(seed) }

// WithWorkers bounds parallelism inside one query or index build.
func WithWorkers(w int) QuerierOption { return algo.WithWorkers(w) }

// WithSampleFactor scales the sampling methods' sample counts.
func WithSampleFactor(f float64) QuerierOption { return algo.WithSampleFactor(f) }

// WithIterations sets ParSim's / the power method's level count.
func WithIterations(l int) QuerierOption { return algo.WithIterations(l) }

// WithWalks sets MC's (walk length, walks per node).
func WithWalks(length, perNode int) QuerierOption { return algo.WithWalks(length, perNode) }

// WithHubCount sets PRSim's indexed-hub count.
func WithHubCount(h int) QuerierOption { return algo.WithHubCount(h) }

// WithPruneThreshold sets ProbeSim's probe-pruning threshold.
func WithPruneThreshold(t float64) QuerierOption { return algo.WithPruneThreshold(t) }

// WithSampleCaps caps ExactSim's per-node sampling/exploration work.
func WithSampleCaps(maxSamplesPerNode int, maxExploreEdges int64) QuerierOption {
	return algo.WithSampleCaps(maxSamplesPerNode, maxExploreEdges)
}

// WithoutPiSquaredSampling disables ExactSim's π²-allocation (ablation).
func WithoutPiSquaredSampling() QuerierOption { return algo.WithoutPiSquaredSampling() }

// WithoutLocalExploit disables ExactSim's Algorithm-3 phase (ablation).
func WithoutLocalExploit() QuerierOption { return algo.WithoutLocalExploit() }

// NewDiagSampleIndex returns an empty diagonal sample index with the given
// memory budget in bytes (0 selects the 128 MiB default).
func NewDiagSampleIndex(budgetBytes int64) *DiagSampleIndex {
	return diag.NewSampleIndex(budgetBytes)
}

// WithDiagIndex attaches a shared diagonal sample index to ExactSim
// queriers; every querier sharing the index must agree on graph, decay
// factor and seed (mismatches bypass it).
func WithDiagIndex(ix *DiagSampleIndex) QuerierOption { return algo.WithDiagIndex(ix) }

// Result carries the score vector plus cost accounting of one ExactSim
// query; it is the Detail of an exactsim or exactsim-basic QueryResult.
type Result = core.Result

// Dataset and evaluation types.
type (
	// Dataset describes one Table-2 dataset stand-in.
	Dataset = dataset.Spec
	// PoolEntry and PoolResult belong to the §2 pooling protocol.
	PoolEntry = eval.PoolEntry
	// PoolResult reports pooled precision per algorithm.
	PoolResult = eval.PoolResult
)

// Re-exported constants.
const (
	// DefaultC is the paper's decay factor, 0.6.
	DefaultC = core.DefaultC
	// ExactEpsilon is ε_min = 10⁻⁷, the float-precision exactness target.
	ExactEpsilon = core.ExactEpsilon
)

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// DynamicFrom initializes a dynamic graph from an existing snapshot.
func DynamicFrom(g *Graph) *DynamicGraph { return graph.DynamicFrom(g) }

// LoadEdgeList reads a SNAP-style edge-list file.
func LoadEdgeList(path string, undirected bool) (*Graph, error) {
	return graph.LoadEdgeList(path, undirected)
}

// ReadEdgeList parses a SNAP-style edge list from a reader.
func ReadEdgeList(r io.Reader, undirected bool) (*Graph, error) {
	return graph.ReadEdgeList(r, undirected)
}

// WriteEdgeList emits g as a directed SNAP-style edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// SaveBinary / LoadBinary use the repository's binary graph format —
// a single-section snapshot container (see DESIGN.md §8). LoadBinary
// decodes into memory; OpenBinary (snapshot.go) mmaps zero-copy.
func SaveBinary(path string, g *Graph) error { return graph.SaveBinary(path, g) }

// LoadBinary reads a graph written by SaveBinary.
func LoadBinary(path string) (*Graph, error) { return graph.LoadBinary(path) }

// GraphChecksum returns g's identity checksum — the CRC64 of its
// encoded CSR section, the value snapshot diag spills bind to.
func GraphChecksum(g *Graph) uint64 { return g.Checksum() }

// Stats computes degree statistics for g.
func Stats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// Datasets returns the Table-2 registry (all eight stand-ins).
func Datasets() []Dataset { return dataset.All() }

// GenerateDataset generates the stand-in for a Table-2 key ("GQ", "HT",
// "WV", "HP", "DB", "IC", "IT", "TW") at the given scale in (0,1].
func GenerateDataset(key string, scale float64) (*Graph, error) {
	spec, err := dataset.ByKey(key)
	if err != nil {
		return nil, err
	}
	return spec.Generate(scale), nil
}

// Generators for custom experiments.

// GenerateBarabasiAlbert builds an undirected preferential-attachment graph.
func GenerateBarabasiAlbert(n, k int, seed uint64) *Graph {
	return gen.BarabasiAlbert(n, k, seed)
}

// GenerateDirectedScaleFree builds a directed power-law graph.
func GenerateDirectedScaleFree(n, m int, seed uint64) *Graph {
	return gen.DirectedScaleFree(n, m, 0.15, 0.70, 0.15, 1.0, 1.0, seed)
}

// GenerateRMAT builds a web-crawl-like Kronecker graph with 2^scale nodes.
func GenerateRMAT(scale, m int, seed uint64) *Graph {
	return gen.RMAT(scale, m, 0.57, 0.19, 0.19, 0.05, seed)
}

// Evaluation metrics (paper §4).

// MaxError is max_j |got(j) − truth(j)|.
func MaxError(got, truth []float64) float64 { return eval.MaxError(got, truth) }

// PrecisionAtK scores an approximate top-k against the true scores.
func PrecisionAtK(approx, truth []float64, k int, source NodeID) float64 {
	return eval.PrecisionAtK(approx, truth, k, source)
}

// TopKOf extracts the k best entries of a score vector, excluding source.
func TopKOf(scores []float64, k int, source NodeID) []Entry {
	return sparse.TopK(scores, k, source)
}

// Pool runs the paper's §2 pooling protocol over competing top-k results.
func Pool(g *Graph, c float64, source NodeID, k int, entries []PoolEntry,
	samples int, seed uint64) PoolResult {
	return eval.Pool(g, c, source, k, entries, samples, seed)
}

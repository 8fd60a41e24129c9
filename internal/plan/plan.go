// Package plan is the adaptive query planner behind Request.Algorithm ==
// "auto" and the service's one degradation policy: a per-epoch cost model
// mapping (epsilon, deadline budget, diag-index residency) to a concrete
// registry method and an effective epsilon, the ladder every cheaper plan
// is taken from, and the accuracy-tier ladder that anytime serving
// refines along.
//
// The planner's knowledge splits in two, and the split is the determinism
// argument (DESIGN §13):
//
//   - The STRICT half — requests that opted into neither partial nor
//     degraded answers — is a pure function of epsilon and the
//     epoch-static graph statistics. Two same-epoch replicas plan such a
//     request identically, so hedged duplicates still race bit-identical
//     answers and "auto" at default settings answers byte-for-byte what
//     the concrete method it reports would have.
//   - The FLEXIBLE half — requests with AllowPartial or AllowDegraded —
//     may be substituted a cheaper plan by two triggers: the queue's
//     overload signal (AllowDegraded only) and, for "auto", a remaining
//     deadline the calibrated cost model (a one-time microprobe refined
//     online from observed per-query latencies) says the plan will not
//     meet. Both step down one ladder (Substitute); those answers are
//     marked (Plan.Reason, Degraded/Partial), never silently substituted.
//
// Wall clocks and EWMA state are deliberate here: plan is NOT a kernel
// package (internal/lint), because its nondeterminism is confined to
// requests that asked for it.
package plan

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exactsim/exactsim/internal/algo"
	"github.com/exactsim/exactsim/internal/graph"
)

// Strict thresholds. These are the WHOLE input space of the strict
// planner besides the graph stats — keep them few, and keep the golden
// matrix in plan_test.go in sync.
const (
	// tightEpsilon: at or below this target, ExactSim's guarantees are
	// what the caller is paying for; no substitution.
	tightEpsilon = 0.005
	// largeN: below this node count every method is interactive and the
	// serving default (exactsim) wins on answer quality; the cost model
	// only starts discriminating above it.
	largeN = 50_000
	// powerLawSkew: max-in-degree over average degree at or above this
	// marks a power-law degree sequence — PRSim's cost analysis applies.
	powerLawSkew = 8
)

// Tier-ladder constants (see Tiers).
const (
	// coarsestEpsilon caps how coarse the first anytime tier may be.
	coarsestEpsilon = 0.064
	// tierStep is the per-tier epsilon refinement factor (×4 tighter per
	// rung, i.e. one power-of-two allowance quantization octave squared).
	tierStep = 4.0
)

// Reason strings are the enumerated, wire-stable explanations carried in
// Response.Plan.Reason. The first four name a strict choice; the last
// four name the trigger and the kind of step that substituted it.
const (
	ReasonTightEpsilon      = "tight-epsilon"
	ReasonLargePowerLaw     = "large-power-law"
	ReasonLargeFlat         = "large-flat"
	ReasonSmallGraphDefault = "small-graph-default"
	ReasonDeadlineDowngrade = "deadline-downgrade"
	ReasonDeadlineLoosen    = "deadline-loosen"
	ReasonOverloadDowngrade = "overload-downgrade"
	ReasonOverloadLoosen    = "overload-loosen"
)

// maxLoosenEpsilon caps epsilon loosening: a step never doubles epsilon
// past this.
const maxLoosenEpsilon = 0.1

// downgrades is the method half of the ladder, cheapest last: mc gives
// up the error bound entirely, which only a flexible request may accept.
var downgrades = [...]string{"prsim", "probesim", "mc"}

// probeSink receives the microprobe's scan checksum so the compiler
// cannot elide the timed loop.
var probeSink atomic.Int64

// Input is one request's planner-relevant shape. Deadline, QueueDwell
// and DiagResidentBytes are consulted only when Flexible.
type Input struct {
	// Algorithm is the requested method; empty asks the planner to
	// choose one (the service's "auto").
	Algorithm string
	// Epsilon is the request's error target; 0 means the service default
	// (the planner substitutes its base epsilon for decisions but the
	// caller keeps the 0 sentinel for cache identity).
	Epsilon float64
	// Deadline is the remaining budget (0 = none).
	Deadline time.Duration
	// QueueDwell is the smoothed queue sojourn — time the request will
	// likely spend waiting before a worker touches it.
	QueueDwell time.Duration
	// DiagResidentBytes is the diagonal sample index residency for the
	// current epoch — a warm index discounts ExactSim's estimated cost.
	DiagResidentBytes int64
	// Flexible opts an "auto" request into deadline fitting (AllowPartial
	// or AllowDegraded). Strict requests never leave the pure path.
	Flexible bool
	// Overloaded is the queue's overload signal, set only for requests
	// that allow degraded answers: such a request takes one step.
	Overloaded bool
}

// Decision is the planner's answer: the concrete method to run and the
// epsilon to run it at.
type Decision struct {
	// Algorithm is the chosen registry method.
	Algorithm string
	// Epsilon is the effective epsilon to run at. Equal to the request's
	// value (including the 0 "service default" sentinel) unless a
	// flexible plan loosened it.
	Epsilon float64
	// Reason is the enumerated explanation (Reason* constants).
	Reason string
	// EstimatedCost is the cost model's latency estimate for the chosen
	// plan; zero for strict decisions (the model is not consulted).
	EstimatedCost time.Duration
}

// Planner is one epoch's cost model. Construct one per graph generation
// (stats are epoch-static); Observe feeds completed-query latencies back
// in so estimates track the machine the epoch actually runs on.
type Planner struct {
	baseEpsilon float64

	// calibrate runs once, on first use: graph stats (the strict half's
	// entire world knowledge) plus the microprobe (flexible half only).
	calibrateOnce sync.Once
	g             *graph.Graph
	stats         graph.Stats
	// nsPerUnit is the microprobe-calibrated cost of one model work unit
	// (~ one adjacency-edge visit), in nanoseconds.
	nsPerUnit float64

	// adjust is the per-algorithm observed/estimated EWMA correction,
	// stored as math.Float64bits for lock-free reads on the query path.
	adjust [len(costModel)]atomic.Uint64
}

// New builds the planner for one graph generation. Calibration (an O(n)
// stats scan plus a bounded microprobe) is deferred to first use so graph
// updates stay cheap.
func New(g *graph.Graph, baseEpsilon float64) *Planner {
	if baseEpsilon <= 0 {
		baseEpsilon = algo.DefaultEpsilon
	}
	return &Planner{g: g, baseEpsilon: baseEpsilon}
}

// NewFromStats builds a planner with pinned stats and a fixed unit cost,
// skipping graph access and the microprobe — the constructor golden tests
// and benchmarks use, so decisions are reproducible on any machine.
func NewFromStats(st graph.Stats, baseEpsilon float64) *Planner {
	if baseEpsilon <= 0 {
		baseEpsilon = algo.DefaultEpsilon
	}
	p := &Planner{baseEpsilon: baseEpsilon, stats: st, nsPerUnit: 1}
	p.calibrateOnce.Do(func() {}) // mark calibrated
	return p
}

// calibrated ensures stats and nsPerUnit are populated.
func (p *Planner) calibrated() {
	p.calibrateOnce.Do(func() {
		p.stats = graph.ComputeStats(p.g)
		p.nsPerUnit = microprobe(p.g)
	})
}

// microprobe times a bounded adjacency scan — the memory-bound inner
// shape every registered method shares — and returns ns per visited
// edge, clamped to a sane band so a scheduler hiccup cannot poison the
// whole epoch's estimates.
func microprobe(g *graph.Graph) float64 {
	const probeNodes = 4096
	n := g.N()
	if n == 0 {
		return 1
	}
	if n > probeNodes {
		n = probeNodes
	}
	var units int64
	var sink int64
	start := time.Now()
	for v := 0; v < n; v++ {
		for _, u := range g.InNeighbors(int32(v)) {
			sink += int64(u)
			units++
		}
		units++ // the node visit itself
	}
	elapsed := time.Since(start)
	probeSink.Store(sink) // defeat dead-code elimination of the scan
	per := float64(elapsed.Nanoseconds()) / float64(units)
	if per < 0.1 {
		per = 0.1
	}
	if per > 100 {
		per = 100
	}
	return per
}

// Stats returns the epoch-static graph statistics the strict planner
// decides from.
func (p *Planner) Stats() graph.Stats {
	p.calibrated()
	return p.stats
}

// Plan maps one request to the plan that runs: for "auto" (an empty
// Algorithm) the strict choice, else the requested method and epsilon,
// then whatever Substitute makes of it.
func (p *Planner) Plan(in Input) Decision {
	p.calibrated()
	d := Decision{Algorithm: in.Algorithm, Epsilon: in.Epsilon}
	if in.Algorithm == "" {
		d = p.strict(in)
	}
	return p.Substitute(in, d)
}

// Substitute applies the two triggers to d, the plan asked for: an
// overloaded request takes one step, then a flexible "auto" request with
// a deadline keeps stepping until the estimate fits its budget. Callers
// look up the cache on d between planning and substitution, so a cached
// answer to the plan asked for preempts both triggers. A request neither
// trigger fires for comes back unchanged.
func (p *Planner) Substitute(in Input, d Decision) Decision {
	if in.Overloaded {
		d, _ = p.step(d, ReasonOverloadLoosen, ReasonOverloadDowngrade)
	}
	if in.Algorithm == "" && in.Flexible && in.Deadline > 0 {
		d = p.fit(in, d)
	}
	return d
}

// strict is the pure half: a function of epsilon and graph stats only.
// Changing anything here changes which answers "auto" serves — update
// the golden matrix and DESIGN §13 together with it.
func (p *Planner) strict(in Input) Decision {
	eps := in.Epsilon
	if eps == 0 {
		eps = p.baseEpsilon
	}
	out := Decision{Algorithm: "exactsim", Epsilon: in.Epsilon}
	switch {
	case eps <= tightEpsilon:
		out.Reason = ReasonTightEpsilon
	case p.stats.N >= largeN && p.skewed():
		// Power-law degree sequence at a loose target: PRSim's per-query
		// cost concentrates on the indexed hubs (PAPERS.md), beating
		// ExactSim's sampling for the same bound.
		out.Algorithm = "prsim"
		out.Reason = ReasonLargePowerLaw
	case p.stats.N >= largeN:
		// Large but flat: the hub index buys nothing; ProbeSim's
		// index-free probing is the cheapest error-bounded plan.
		out.Algorithm = "probesim"
		out.Reason = ReasonLargeFlat
	default:
		out.Reason = ReasonSmallGraphDefault
	}
	return out
}

// skewed reports a power-law-shaped degree sequence.
func (p *Planner) skewed() bool {
	return p.stats.AvgDegree > 0 &&
		float64(p.stats.MaxInDegree) >= powerLawSkew*p.stats.AvgDegree
}

// step is the one degradation ladder, and the only code that makes a
// plan cheaper: double the effective epsilon (one quantization octave —
// the chunk allowances are power-of-two sized, so octave steps stay
// cache-aligned) while the doubled value stays within maxLoosenEpsilon,
// else move to the next method of downgrades (a method not on it moves
// to the first). The reason names the trigger and the kind of step. mc
// at the cap has nowhere cheaper to go: d comes back unchanged, false.
func (p *Planner) step(d Decision, loosen, downgrade string) (Decision, bool) {
	if eps := p.effective(d.Epsilon); 2*eps <= maxLoosenEpsilon {
		d.Epsilon, d.Reason = 2*eps, loosen
		return d, true
	}
	next := downgrades[0]
	for i, alg := range downgrades {
		if alg == d.Algorithm {
			if i+1 == len(downgrades) {
				return d, false
			}
			next = downgrades[i+1]
			break
		}
	}
	d.Algorithm, d.Reason = next, downgrade
	return d, true
}

// fit is the deadline trigger: keep d when its estimate fits the
// remaining budget, otherwise step until one does. The estimate
// discounts ExactSim when the diag index is warm (residency) and charges
// expected queue dwell against the deadline.
func (p *Planner) fit(in Input, d Decision) Decision {
	budget := in.Deadline - in.QueueDwell
	if budget <= 0 {
		budget = in.Deadline / 2
	}
	// loosest is d's own method at the loosest epsilon reached — what
	// runs when nothing fits, so the anytime ladder can salvage what the
	// deadline allows. Until a step moves epsilon it is d, reason and all.
	loosest := d
	for {
		d.EstimatedCost = p.Estimate(d.Algorithm, d.Epsilon, in.DiagResidentBytes)
		if d.EstimatedCost <= budget {
			return d
		}
		next, ok := p.step(d, ReasonDeadlineLoosen, ReasonDeadlineDowngrade)
		if !ok {
			break
		}
		d = next
		if d.Algorithm == loosest.Algorithm {
			loosest = d
		}
	}
	loosest.EstimatedCost = p.Estimate(loosest.Algorithm, loosest.Epsilon, in.DiagResidentBytes)
	return loosest
}

// effective resolves the 0 "service default" epsilon sentinel.
func (p *Planner) effective(eps float64) float64 {
	if eps == 0 {
		return p.baseEpsilon
	}
	return eps
}

// Effective is the exported form of effective, for Plan blocks.
func (p *Planner) Effective(eps float64) float64 { return p.effective(eps) }

// ErrorDriven reports whether name's work is controlled by epsilon (and
// the anytime tier ladder therefore meaningful for it).
func ErrorDriven(name string) bool {
	c, ok := algo.Describe(name)
	return ok && c.ErrorDriven
}

// Tiers returns the accuracy ladder for an anytime evaluation of target:
// coarse→target, each rung ×tierStep tighter, first rung at most
// coarsestEpsilon, last rung exactly the target value (the 0 sentinel
// included — cache identity of the final answer must match the
// non-streaming path byte-for-byte). A target at or above the coarsest
// rung gets a single-rung ladder.
func (p *Planner) Tiers(target float64) []float64 {
	eff := p.effective(target)
	var ladder []float64
	for e := eff * tierStep; e <= coarsestEpsilon; e *= tierStep {
		ladder = append(ladder, e)
	}
	// Built tight→coarse; serve coarse→tight.
	sort.Sort(sort.Reverse(sort.Float64Slice(ladder)))
	return append(ladder, target)
}

// costModel maps each method to work units as a function of the graph
// and epsilon — coarse by design (the EWMA correction absorbs constant
// factors; the model only has to order the methods correctly and trend
// the right way in epsilon). Units ≈ adjacency-edge visits.
var costModel = [...]struct {
	name  string
	units func(st graph.Stats, eps float64) float64
}{
	// ExactSim: a local push over the graph plus π²-allocated sampling
	// whose volume grows as 1/ε².
	{"exactsim", func(st graph.Stats, eps float64) float64 {
		return float64(st.M) + 0.1/(eps*eps)
	}},
	// Basic variant: the same shape without the variance reduction.
	{"exactsim-basic", func(st graph.Stats, eps float64) float64 {
		return float64(st.M) + 1/(eps*eps)
	}},
	// MC: index answers from precomputed walks; per-query cost is the
	// walk budget of the source, independent of ε.
	{"mc", func(st graph.Stats, eps float64) float64 {
		return 20_000 // defaultWalkLength × defaultWalksPerNode
	}},
	// ParSim: L truncated iterations over the edge set.
	{"parsim", func(st graph.Stats, eps float64) float64 {
		return 50 * float64(st.M)
	}},
	// Linearization: solves per source against the index, ~n/ε.
	{"linearization", func(st graph.Stats, eps float64) float64 {
		return float64(st.N) / eps
	}},
	// PRSim: hub-indexed; residual work ~√m/ε on power-law graphs.
	{"prsim", func(st graph.Stats, eps float64) float64 {
		return math.Sqrt(float64(st.M)+1) / eps
	}},
	// ProbeSim: index-free probing, ~log(n)/ε² samples.
	{"probesim", func(st graph.Stats, eps float64) float64 {
		return math.Log(float64(st.N)+2) / (eps * eps)
	}},
	// Power method: full iteration to numerical fixpoint.
	{"powermethod", func(st graph.Stats, eps float64) float64 {
		return 100 * float64(st.M)
	}},
}

func modelIndex(name string) int {
	for i := range costModel {
		if costModel[i].name == name {
			return i
		}
	}
	return -1
}

// Estimate returns the cost model's latency estimate for running name at
// eps on this epoch's graph, corrected by the observed-latency EWMA. A
// warm diagonal index (resident bytes) discounts the ExactSim variants'
// sampling term — the chunks it would sample are already resident.
func (p *Planner) Estimate(name string, eps float64, diagResidentBytes int64) time.Duration {
	p.calibrated()
	i := modelIndex(name)
	if i < 0 {
		return 0
	}
	if eps <= 0 {
		eps = p.baseEpsilon
	}
	units := costModel[i].units(p.stats, eps)
	if diagResidentBytes > 0 && (name == "exactsim" || name == "exactsim-basic") {
		units *= 0.5
	}
	ns := units * p.nsPerUnit * p.adjustFor(i)
	return time.Duration(ns)
}

// Growth returns the cost model's work ratio for running name at `to`
// instead of `from` (clamped to ≥1): the multiplier the anytime ladder's
// deadline checkpoints scale the last tier's measured latency by to
// project the next tier's cost.
func (p *Planner) Growth(name string, from, to float64) float64 {
	p.calibrated()
	i := modelIndex(name)
	if i < 0 {
		return 1
	}
	f := costModel[i].units(p.stats, p.effective(from))
	t := costModel[i].units(p.stats, p.effective(to))
	if f <= 0 || t <= f {
		return 1
	}
	return t / f
}

// Observe feeds one completed query's latency back into the model: the
// per-algorithm EWMA correction converges estimates toward what this
// machine actually does. Safe for concurrent use from every worker.
func (p *Planner) Observe(name string, eps float64, d time.Duration) {
	p.calibrated()
	i := modelIndex(name)
	if i < 0 || d <= 0 {
		return
	}
	if eps <= 0 {
		eps = p.baseEpsilon
	}
	est := costModel[i].units(p.stats, eps) * p.nsPerUnit
	if est <= 0 {
		return
	}
	ratio := float64(d.Nanoseconds()) / est
	// Clamp wild outliers (a cache-cold first query, a GC pause): one
	// sample may pull the correction at most an order of magnitude.
	if ratio > 10 {
		ratio = 10
	}
	if ratio < 0.1 {
		ratio = 0.1
	}
	const alpha = 0.2
	for {
		old := p.adjust[i].Load()
		cur := math.Float64frombits(old)
		if cur == 0 {
			cur = 1
		}
		next := (1-alpha)*cur + alpha*ratio
		if p.adjust[i].CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (p *Planner) adjustFor(i int) float64 {
	v := math.Float64frombits(p.adjust[i].Load())
	if v == 0 {
		return 1
	}
	return v
}

// CostEstimate is one method's calibrated cost row on the capability
// surface (GET /v1/algorithms).
type CostEstimate struct {
	// Name is the registry method.
	Name string `json:"name"`
	// Units is the model's work-unit count at the service's base epsilon.
	Units float64 `json:"units"`
	// Nanos is Units × calibrated ns/unit × the observed-latency EWMA.
	Nanos int64 `json:"nanos"`
}

// Estimates returns the calibrated per-method cost rows at the base
// epsilon, in registry order.
func (p *Planner) Estimates() []CostEstimate {
	p.calibrated()
	out := make([]CostEstimate, 0, len(costModel))
	for _, name := range algo.Names() {
		i := modelIndex(name)
		if i < 0 {
			continue
		}
		units := costModel[i].units(p.stats, p.baseEpsilon)
		out = append(out, CostEstimate{
			Name:  name,
			Units: units,
			Nanos: int64(units * p.nsPerUnit * p.adjustFor(i)),
		})
	}
	return out
}

package exactsim

import (
	"context"
	"time"

	"github.com/exactsim/exactsim/internal/algo"
	"github.com/exactsim/exactsim/internal/plan"
)

// AlgorithmAuto routes a request through the adaptive query planner
// (internal/plan): the service picks the cheapest registered method whose
// guarantees cover the request's epsilon — and, for requests that
// opted into partial or degraded answers, its deadline budget — then
// echoes the plan that ran in Response.Plan. It is the service default.
//
// Determinism carve-out (DESIGN §13): a request that sets neither
// AllowPartial nor AllowDegraded is planned by a pure function of
// epsilon and epoch-static graph statistics, so "auto" answers
// bit-identically to the concrete method it reports, on every same-epoch
// replica.
const AlgorithmAuto = "auto"

// PlanInfo is the audit block an "auto"-routed Response carries: the plan
// that ran and why. Cache lines are keyed under the *planned* algorithm
// and epsilon, so two requests planned alike share an answer.
type PlanInfo struct {
	// Algorithm is the concrete registry method that ran.
	Algorithm string `json:"algorithm"`
	// EffectiveEpsilon is the error target the plan runs at, with the 0
	// "service default" sentinel resolved to its actual value.
	EffectiveEpsilon float64 `json:"effective_epsilon"`
	// Reason is the planner's enumerated explanation: the strict choice
	// (tight-epsilon, large-power-law, large-flat, small-graph-default),
	// or the trigger and kind of the step that substituted it
	// (overload-loosen, overload-downgrade, deadline-loosen,
	// deadline-downgrade), which always comes with Degraded set.
	Reason string `json:"reason"`
}

// MethodCaps describes one registered algorithm's capabilities — the
// static half of the /v1/algorithms capability surface.
type MethodCaps = algo.Caps

// Exactness classifies what a method's answers promise (exact,
// error_bounded, heuristic).
type Exactness = algo.Exactness

// Exactness classes, re-exported from the registry.
const (
	ExactnessExact        = algo.ExactnessExact
	ExactnessErrorBounded = algo.ExactnessErrorBounded
	ExactnessHeuristic    = algo.ExactnessHeuristic
)

// DescribeAlgorithm returns the capability row for a registered name.
func DescribeAlgorithm(name string) (MethodCaps, bool) { return algo.Describe(name) }

// AlgorithmCaps returns every registered method's capability row in
// registry order.
func AlgorithmCaps() []MethodCaps { return algo.AllCaps() }

// PlanEstimate is one method's calibrated cost row: the planner's work
// units at the service's base epsilon and their latency estimate on this
// machine (microprobe-calibrated, refined by observed query latencies).
type PlanEstimate = plan.CostEstimate

// PlanEstimates returns the current graph generation's calibrated
// per-method cost rows — the dynamic half of the capability surface.
func (s *Service) PlanEstimates() []PlanEstimate {
	return s.state.Load().planner.Estimates()
}

// substitute lets st's planner step asked, the plan the request asked
// for, down its ladder. The Service decides eligibility: the overload
// signal is read only for AllowDegraded requests, and only a flexible
// "auto" request (AllowPartial or AllowDegraded) weighs its remaining
// deadline, expected queue dwell and diag-index residency. A request
// that opted into neither comes back unchanged without touching the
// queue.
func (s *Service) substitute(ctx context.Context, st *graphState, req Request, in plan.Input, asked plan.Decision) plan.Decision {
	if !req.AllowDegraded && !req.AllowPartial {
		return asked
	}
	in.Overloaded = req.AllowDegraded && s.queue.overloaded()
	if dl, ok := ctx.Deadline(); ok && in.Algorithm == "" {
		in.Flexible = true
		if rem := time.Until(dl); rem > 0 {
			in.Deadline = rem
		}
		in.QueueDwell = s.queue.expectedDwell()
		if st.diagIdx != nil {
			in.DiagResidentBytes = st.diagIdx.Stats().ResidentBytes
		}
	}
	return st.planner.Substitute(in, asked)
}

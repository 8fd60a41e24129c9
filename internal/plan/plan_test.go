package plan

import (
	"math"
	"testing"
	"time"

	"github.com/exactsim/exactsim/internal/algo"
	"github.com/exactsim/exactsim/internal/graph"
)

// Synthetic epoch stats spanning the strict planner's whole decision
// space: below/above the largeN gate, skewed/flat degree sequences.
var (
	smallStats = graph.Stats{N: 1_000, M: 5_000, MaxInDegree: 50, AvgDegree: 5}
	// MaxInDegree 5000 ≥ powerLawSkew × AvgDegree 10 → skewed.
	largePowerLawStats = graph.Stats{N: 100_000, M: 1_000_000, MaxInDegree: 5_000, AvgDegree: 10}
	// MaxInDegree 40 < 8 × 10 → flat.
	largeFlatStats = graph.Stats{N: 100_000, M: 1_000_000, MaxInDegree: 40, AvgDegree: 10}
)

// TestPlannerGoldenMatrix pins the strict planner's entire input→output
// map. Every row here is an answer-identity promise: "auto" serves the
// bit-exact output of the method in the want column, so changing a row
// changes what users receive — update DESIGN §13 and the auto-conformance
// test alongside.
func TestPlannerGoldenMatrix(t *testing.T) {
	cases := []struct {
		name  string
		stats graph.Stats
		in    Input
		want  Decision
	}{
		{"small-default-eps", smallStats, Input{},
			Decision{Algorithm: "exactsim", Epsilon: 0, Reason: ReasonSmallGraphDefault}},
		{"small-loose-eps", smallStats, Input{Epsilon: 0.05},
			Decision{Algorithm: "exactsim", Epsilon: 0.05, Reason: ReasonSmallGraphDefault}},
		{"small-tight-eps", smallStats, Input{Epsilon: 0.001},
			Decision{Algorithm: "exactsim", Epsilon: 0.001, Reason: ReasonTightEpsilon}},
		{"tight-eps-boundary", smallStats, Input{Epsilon: 0.005},
			Decision{Algorithm: "exactsim", Epsilon: 0.005, Reason: ReasonTightEpsilon}},
		{"large-power-law", largePowerLawStats, Input{Epsilon: 0.02},
			Decision{Algorithm: "prsim", Epsilon: 0.02, Reason: ReasonLargePowerLaw}},
		{"large-power-law-default-eps", largePowerLawStats, Input{},
			Decision{Algorithm: "prsim", Epsilon: 0, Reason: ReasonLargePowerLaw}},
		{"large-power-law-tight", largePowerLawStats, Input{Epsilon: 0.002},
			Decision{Algorithm: "exactsim", Epsilon: 0.002, Reason: ReasonTightEpsilon}},
		{"large-flat", largeFlatStats, Input{Epsilon: 0.02},
			Decision{Algorithm: "probesim", Epsilon: 0.02, Reason: ReasonLargeFlat}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewFromStats(tc.stats, 0.01)
			got := p.Plan(tc.in)
			if got != tc.want {
				t.Fatalf("Plan(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

// TestPlannerStrictIgnoresRuntimeState: a strict (non-flexible) decision
// must be a pure function of epsilon and graph stats — deadline, queue
// dwell and index residency must not leak in, or two
// same-epoch replicas could plan one request differently and hedging
// would race non-identical answers.
func TestPlannerStrictIgnoresRuntimeState(t *testing.T) {
	p := NewFromStats(largePowerLawStats, 0.01)
	base := p.Plan(Input{Epsilon: 0.02})
	perturbed := []Input{
		{Epsilon: 0.02, Deadline: time.Nanosecond},
		{Epsilon: 0.02, Deadline: time.Hour, QueueDwell: time.Minute},
		{Epsilon: 0.02, DiagResidentBytes: 1 << 30},
	}
	for _, in := range perturbed {
		if got := p.Plan(in); got != base {
			t.Fatalf("strict Plan(%+v) = %+v, want %+v (runtime state leaked into the pure half)", in, got, base)
		}
	}
	// Observed latencies refine the flexible cost model only — strict
	// decisions must not move.
	for i := 0; i < 100; i++ {
		p.Observe("prsim", 0.02, time.Second)
	}
	if got := p.Plan(Input{Epsilon: 0.02}); got != base {
		t.Fatalf("strict Plan after Observe = %+v, want %+v", got, base)
	}
}

// TestPlannerFlexibleFit pins the deadline-fitting ladder: strict choice
// kept when it fits, epsilon loosened by octaves first, methods
// downgraded after.
func TestPlannerFlexibleFit(t *testing.T) {
	t.Run("fits-unchanged", func(t *testing.T) {
		p := NewFromStats(largeFlatStats, 0.01)
		// probesim at ε=0.02 ≈ 28.8µs of model time (nsPerUnit pinned at 1).
		d := p.Plan(Input{Epsilon: 0.02, Deadline: time.Millisecond, Flexible: true})
		if d.Algorithm != "probesim" || d.Reason != ReasonLargeFlat || d.Epsilon != 0.02 {
			t.Fatalf("fitting plan changed: %+v", d)
		}
		if d.EstimatedCost <= 0 || d.EstimatedCost > time.Millisecond {
			t.Fatalf("EstimatedCost %v out of range", d.EstimatedCost)
		}
	})
	t.Run("loosens-epsilon", func(t *testing.T) {
		// exactsim at ε=0.01: 100 + 0.1/1e-4 = 1100 units → 1100ns; at
		// ε=0.02 it is 350ns, under the 600ns budget.
		p := NewFromStats(graph.Stats{N: 1_000, M: 100, MaxInDegree: 10, AvgDegree: 0.1}, 0.01)
		d := p.Plan(Input{Epsilon: 0.01, Deadline: 600 * time.Nanosecond, Flexible: true})
		want := Decision{Algorithm: "exactsim", Epsilon: 0.02, Reason: ReasonDeadlineLoosen, EstimatedCost: 350}
		if d != want {
			t.Fatalf("Plan = %+v, want %+v", d, want)
		}
	})
	t.Run("downgrades-method", func(t *testing.T) {
		// exactsim never fits a 4µs budget on smallStats even at the
		// loosest ε (M alone is 5000 units); prsim at ε=0.08 does.
		p := NewFromStats(smallStats, 0.01)
		d := p.Plan(Input{Epsilon: 0.01, Deadline: 4 * time.Microsecond, Flexible: true})
		if d.Algorithm != "prsim" || d.Reason != ReasonDeadlineDowngrade {
			t.Fatalf("Plan = %+v, want prsim via %s", d, ReasonDeadlineDowngrade)
		}
		if d.Epsilon != 0.08 {
			t.Fatalf("downgrade kept ε=%v, want the loosened 0.08", d.Epsilon)
		}
	})
	t.Run("nothing-fits-keeps-unmoved-plan", func(t *testing.T) {
		// ε=0.08 cannot double within the cap and no method meets a 1ns
		// budget: the fallback runs the plan asked for, so its reason
		// must not claim a loosening that never happened.
		p := NewFromStats(smallStats, 0.01)
		d := p.Plan(Input{Epsilon: 0.08, Deadline: time.Nanosecond, Flexible: true})
		if d.Algorithm != "exactsim" || d.Epsilon != 0.08 || d.Reason != ReasonSmallGraphDefault {
			t.Fatalf("Plan = %+v, want exactsim at 0.08 for %s", d, ReasonSmallGraphDefault)
		}
		d = p.Plan(Input{Epsilon: 0.02, Deadline: time.Nanosecond, Flexible: true})
		if d.Algorithm != "exactsim" || d.Epsilon != 0.08 || d.Reason != ReasonDeadlineLoosen {
			t.Fatalf("Plan = %+v, want exactsim loosened to 0.08 for %s", d, ReasonDeadlineLoosen)
		}
	})
	t.Run("overload-step-first", func(t *testing.T) {
		// Both triggers: the overload step comes first and the fit
		// continues from its plan. exactsim costs 350ns at ε=0.02 (the
		// overload step) and 162.5ns at 0.04.
		p := NewFromStats(graph.Stats{N: 1_000, M: 100, MaxInDegree: 10, AvgDegree: 0.1}, 0.01)
		for _, tc := range []struct {
			deadline time.Duration
			want     Decision
		}{
			{time.Microsecond, Decision{Algorithm: "exactsim", Epsilon: 0.02, Reason: ReasonOverloadLoosen, EstimatedCost: 350}},
			{200 * time.Nanosecond, Decision{Algorithm: "exactsim", Epsilon: 0.04, Reason: ReasonDeadlineLoosen, EstimatedCost: 162}},
		} {
			d := p.Plan(Input{Epsilon: 0.01, Deadline: tc.deadline, Flexible: true, Overloaded: true})
			if d != tc.want {
				t.Fatalf("deadline %v: Plan = %+v, want %+v", tc.deadline, d, tc.want)
			}
		}
	})
	t.Run("strict-input-never-fitted", func(t *testing.T) {
		// The same impossible deadline without Flexible: the pure decision
		// stands, no cost estimate attached.
		p := NewFromStats(smallStats, 0.01)
		d := p.Plan(Input{Epsilon: 0.01, Deadline: 4 * time.Microsecond})
		want := Decision{Algorithm: "exactsim", Epsilon: 0.01, Reason: ReasonSmallGraphDefault}
		if d != want {
			t.Fatalf("Plan = %+v, want %+v", d, want)
		}
	})
}

// TestPlannerOverloadStep pins the one ladder as the overload trigger
// walks it: one step per request, epsilon doubled while the double stays
// within maxLoosenEpsilon (the 0 sentinel from the base epsilon), else
// the next method of prsim → probesim → mc, a method off that list
// stepping to prsim and mc going nowhere.
func TestPlannerOverloadStep(t *testing.T) {
	p := NewFromStats(smallStats, 0.01)
	cases := []struct {
		in   Input
		want Decision
	}{
		{Input{Algorithm: "exactsim", Epsilon: 0.02},
			Decision{Algorithm: "exactsim", Epsilon: 0.04, Reason: ReasonOverloadLoosen}},
		{Input{Algorithm: "exactsim"},
			Decision{Algorithm: "exactsim", Epsilon: 0.02, Reason: ReasonOverloadLoosen}},
		{Input{Algorithm: "exactsim", Epsilon: 0.05},
			Decision{Algorithm: "exactsim", Epsilon: 0.1, Reason: ReasonOverloadLoosen}},
		{Input{Algorithm: "exactsim", Epsilon: 0.08},
			Decision{Algorithm: "prsim", Epsilon: 0.08, Reason: ReasonOverloadDowngrade}},
		{Input{Algorithm: "exactsim-basic", Epsilon: 0.08},
			Decision{Algorithm: "prsim", Epsilon: 0.08, Reason: ReasonOverloadDowngrade}},
		{Input{Algorithm: "parsim", Epsilon: 0.08},
			Decision{Algorithm: "prsim", Epsilon: 0.08, Reason: ReasonOverloadDowngrade}},
		{Input{Algorithm: "linearization", Epsilon: 0.08},
			Decision{Algorithm: "prsim", Epsilon: 0.08, Reason: ReasonOverloadDowngrade}},
		{Input{Algorithm: "powermethod", Epsilon: 0.08},
			Decision{Algorithm: "prsim", Epsilon: 0.08, Reason: ReasonOverloadDowngrade}},
		{Input{Algorithm: "prsim", Epsilon: 0.08},
			Decision{Algorithm: "probesim", Epsilon: 0.08, Reason: ReasonOverloadDowngrade}},
		{Input{Algorithm: "probesim", Epsilon: 0.08},
			Decision{Algorithm: "mc", Epsilon: 0.08, Reason: ReasonOverloadDowngrade}},
		{Input{Algorithm: "mc", Epsilon: 0.08},
			Decision{Algorithm: "mc", Epsilon: 0.08}},
		// "auto": the strict choice takes the step.
		{Input{Epsilon: 0.02},
			Decision{Algorithm: "exactsim", Epsilon: 0.04, Reason: ReasonOverloadLoosen}},
	}
	for _, tc := range cases {
		in := tc.in
		in.Overloaded = true
		if got := p.Plan(in); got != tc.want {
			t.Errorf("Plan(%+v) = %+v, want %+v", in, got, tc.want)
		}
		// Without the signal a concrete request comes back unchanged.
		if tc.in.Algorithm != "" {
			want := Decision{Algorithm: tc.in.Algorithm, Epsilon: tc.in.Epsilon}
			if got := p.Plan(tc.in); got != want {
				t.Errorf("Plan(%+v) = %+v, want it unchanged", tc.in, got)
			}
		}
	}
}

// TestTiersGolden pins the anytime ladder shape: coarse→tight in
// ×tierStep rungs capped at coarsestEpsilon, terminal rung exactly the
// requested target (0 sentinel preserved — the final tier's cache key
// must equal the non-streaming request's).
func TestTiersGolden(t *testing.T) {
	p := NewFromStats(smallStats, 0.01)
	cases := []struct {
		target float64
		want   []float64
	}{
		{0, []float64{0.04, 0}},
		{0.01, []float64{0.04, 0.01}},
		{0.001, []float64{0.064, 0.016, 0.004, 0.001}},
		{0.05, []float64{0.05}},
		{0.2, []float64{0.2}},
	}
	for _, tc := range cases {
		got := p.Tiers(tc.target)
		if len(got) != len(tc.want) {
			t.Fatalf("Tiers(%v) = %v, want %v", tc.target, got, tc.want)
		}
		for i := range got {
			if i == len(got)-1 {
				if got[i] != tc.target {
					t.Fatalf("Tiers(%v) terminal rung %v, want the target verbatim", tc.target, got[i])
				}
				continue
			}
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Fatalf("Tiers(%v)[%d] = %v, want %v", tc.target, i, got[i], tc.want[i])
			}
			if got[i] > coarsestEpsilon+1e-12 {
				t.Fatalf("Tiers(%v)[%d] = %v coarser than the cap %v", tc.target, i, got[i], coarsestEpsilon)
			}
		}
	}
}

// TestCostModelCoversRegistry: every registered algorithm has a
// capability row and a cost-model row — a new registration without them
// would silently fall out of the planner and the /v1/algorithms surface.
func TestCostModelCoversRegistry(t *testing.T) {
	names := algo.Names()
	for _, name := range names {
		if _, ok := algo.Describe(name); !ok {
			t.Errorf("algorithm %q has no capability entry", name)
		}
		if modelIndex(name) < 0 {
			t.Errorf("algorithm %q has no cost-model entry", name)
		}
	}
	if len(costModel) != len(names) {
		t.Errorf("cost model has %d rows, registry has %d", len(costModel), len(names))
	}
	p := NewFromStats(smallStats, 0.01)
	ests := p.Estimates()
	if len(ests) != len(names) {
		t.Fatalf("Estimates() returned %d rows, want %d", len(ests), len(names))
	}
	for _, e := range ests {
		if e.Units <= 0 || e.Nanos <= 0 {
			t.Errorf("estimate for %q degenerate: %+v", e.Name, e)
		}
	}
}

// TestErrorDriven pins which methods the tier ladder applies to: the
// error-bounded ones whose work epsilon controls.
func TestErrorDriven(t *testing.T) {
	want := map[string]bool{
		"exactsim": true, "exactsim-basic": true, "linearization": true,
		"prsim": true, "probesim": true,
		"mc": false, "parsim": false, "powermethod": false,
	}
	for name, w := range want {
		if got := ErrorDriven(name); got != w {
			t.Errorf("ErrorDriven(%q) = %v, want %v", name, got, w)
		}
	}
	if ErrorDriven("no-such-method") {
		t.Error("unknown method reported error-driven")
	}
}

// TestObserveRefinesEstimates: observed latencies pull the estimate
// toward reality (EWMA), and Growth projects tier-to-tier cost ratios.
func TestObserveRefinesEstimates(t *testing.T) {
	p := NewFromStats(smallStats, 0.01)
	before := p.Estimate("exactsim", 0.01, 0)
	// Report the machine running 5× slower than the raw model.
	for i := 0; i < 50; i++ {
		p.Observe("exactsim", 0.01, 5*before)
	}
	after := p.Estimate("exactsim", 0.01, 0)
	if after <= 2*before {
		t.Fatalf("estimate did not converge toward observations: before %v, after %v", before, after)
	}
	// A warm diag index discounts the exactsim variants.
	if warm := p.Estimate("exactsim", 0.01, 1<<20); warm >= after {
		t.Fatalf("diag residency did not discount: %v >= %v", warm, after)
	}
	if g := p.Growth("exactsim", 0.064, 0.016); g <= 1 {
		t.Fatalf("Growth(0.064→0.016) = %v, want > 1", g)
	}
	// mc's cost is ε-independent: no growth across tiers.
	if g := p.Growth("mc", 0.064, 0.016); g != 1 {
		t.Fatalf("Growth(mc) = %v, want 1", g)
	}
}

// BenchmarkPlannerDecision measures the strict planning overhead added
// to every "auto" query — the acceptance bound is < 5µs/op.
func BenchmarkPlannerDecision(b *testing.B) {
	p := NewFromStats(largePowerLawStats, 0.01)
	in := Input{Epsilon: 0.02}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Plan(in)
	}
}

// BenchmarkPlannerDecisionFlexible includes the cost-model fit path.
func BenchmarkPlannerDecisionFlexible(b *testing.B) {
	p := NewFromStats(largePowerLawStats, 0.01)
	in := Input{Epsilon: 0.02, Deadline: time.Millisecond, Flexible: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Plan(in)
	}
}

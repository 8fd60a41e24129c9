package algo

import (
	"fmt"
	"math"

	"github.com/exactsim/exactsim/internal/core"
	"github.com/exactsim/exactsim/internal/diag"
)

// DefaultEpsilon is the registry's default additive-error target. It is a
// *serving* default — cheap enough that every algorithm (including the
// O(log n/ε²)-sampling baselines) answers interactively. Pass
// WithEpsilon(core.ExactEpsilon) for the paper's float-exact mode.
const DefaultEpsilon = 1e-2

// Config collects every knob any registered algorithm understands. One
// flat struct replaces the per-package Params zoo at the facade: each
// adapter reads the fields that apply to it and ignores the rest, so the
// same option list can configure any algorithm name.
type Config struct {
	// C is the SimRank decay factor in (0,1); 0 selects core.DefaultC.
	C float64
	// Epsilon is the additive error target in (0,1) for the error-driven
	// methods (ExactSim, Linearization, PRSim, ProbeSim); 0 selects
	// DefaultEpsilon.
	Epsilon float64
	// Seed drives every stochastic choice deterministically.
	Seed uint64
	// Workers bounds parallelism inside a single query or index build.
	Workers int
	// SampleFactor scales the theoretical sample counts of the sampling
	// methods; 0 selects 1.0 (the papers' constants).
	SampleFactor float64
	// Iterations is the level count for the iteration-driven methods:
	// ParSim's L (0 selects 50) and the power method's iteration count
	// (0 selects enough for ~1e-9 residual).
	Iterations int
	// WalkLength is MC's maximum walk length L; 0 selects 20.
	WalkLength int
	// WalksPerNode is MC's walks-per-node r; 0 selects 1000.
	WalksPerNode int
	// HubCount is PRSim's indexed-hub count; 0 selects PRSim's auto rule.
	HubCount int
	// PruneThreshold is ProbeSim's probe-pruning knob; 0 selects its
	// (1−√c)²·ε/4 default.
	PruneThreshold float64
	// MaxSamplesPerNode / MaxExploreEdges cap ExactSim's per-node work;
	// 0 selects the core defaults.
	MaxSamplesPerNode int
	MaxExploreEdges   int64
	// NoPiSquaredSampling / NoLocalExploit are ExactSim's §3.2 ablation
	// switches (harness Figure 9 / ablation-extra).
	NoPiSquaredSampling bool
	NoLocalExploit      bool
	// DiagIndex shares ExactSim's diagonal sample chunks across queries
	// and queriers (see core.Options.DiagIndex). Ignored by the other
	// algorithms.
	DiagIndex *diag.SampleIndex
	// Lender lends ExactSim's diagonal phase the idle CPUs of a query
	// pool (see core.Options.Lender). Only a Service sets it, and only
	// the ExactSim adapters read it.
	Lender *diag.Lender
}

// MC's default (L, r); shared by defaults() and the mc adapter's
// zero-guards so the two cannot diverge.
const (
	defaultWalkLength   = 20
	defaultWalksPerNode = 1000
)

func defaults() Config {
	return Config{
		C:            core.DefaultC,
		Epsilon:      DefaultEpsilon,
		Workers:      1,
		SampleFactor: 1,
		WalkLength:   defaultWalkLength,
		WalksPerNode: defaultWalksPerNode,
	}
}

// validate rejects non-finite and out-of-range knobs. NaN fails every
// ordered comparison, so plain "v <= 0" range checks would wave it
// through; every float is screened for NaN/Inf first.
func (c *Config) validate() error {
	for _, knob := range []struct {
		name string
		v    float64
	}{
		{"C", c.C}, {"Epsilon", c.Epsilon}, {"SampleFactor", c.SampleFactor},
		{"PruneThreshold", c.PruneThreshold},
	} {
		if math.IsNaN(knob.v) || math.IsInf(knob.v, 0) {
			return fmt.Errorf("algo: %s=%g is not finite", knob.name, knob.v)
		}
	}
	// Zero means "default" for every knob, including when an option set
	// it back to zero explicitly (e.g. WithEpsilon(0)).
	if c.C == 0 {
		c.C = core.DefaultC
	}
	if c.Epsilon == 0 {
		c.Epsilon = DefaultEpsilon
	}
	if c.C <= 0 || c.C >= 1 {
		return fmt.Errorf("algo: decay factor C=%g outside (0,1)", c.C)
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return fmt.Errorf("algo: Epsilon=%g outside (0,1)", c.Epsilon)
	}
	if c.SampleFactor < 0 {
		return fmt.Errorf("algo: negative SampleFactor %g", c.SampleFactor)
	}
	if c.PruneThreshold < 0 {
		return fmt.Errorf("algo: negative PruneThreshold %g", c.PruneThreshold)
	}
	for _, knob := range []struct {
		name string
		v    int
	}{
		{"Iterations", c.Iterations}, {"WalkLength", c.WalkLength},
		{"WalksPerNode", c.WalksPerNode}, {"HubCount", c.HubCount},
		{"MaxSamplesPerNode", c.MaxSamplesPerNode},
	} {
		if knob.v < 0 {
			return fmt.Errorf("algo: negative %s %d", knob.name, knob.v)
		}
	}
	if c.MaxExploreEdges < 0 {
		return fmt.Errorf("algo: negative MaxExploreEdges %d", c.MaxExploreEdges)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return nil
}

// Option customizes a Config built by New.
type Option func(*Config)

// Resolve applies opts over the defaults and validates, returning the
// effective Config without constructing a querier. The serving layer uses
// it to learn the base epsilon (and reject bad option sets early) that
// the query planner's decisions are anchored to.
func Resolve(opts ...Option) (Config, error) {
	cfg := defaults()
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// WithC sets the SimRank decay factor (paper: 0.6).
func WithC(c float64) Option { return func(cfg *Config) { cfg.C = c } }

// WithEpsilon sets the additive error target for the error-driven methods.
func WithEpsilon(eps float64) Option { return func(cfg *Config) { cfg.Epsilon = eps } }

// WithSeed fixes the random seed; equal seeds give identical answers.
func WithSeed(seed uint64) Option { return func(cfg *Config) { cfg.Seed = seed } }

// WithWorkers bounds parallelism within one query or index build.
func WithWorkers(w int) Option { return func(cfg *Config) { cfg.Workers = w } }

// WithSampleFactor scales the sampling methods' theoretical sample counts.
func WithSampleFactor(f float64) Option { return func(cfg *Config) { cfg.SampleFactor = f } }

// WithIterations sets the level count for ParSim and the power method.
func WithIterations(l int) Option { return func(cfg *Config) { cfg.Iterations = l } }

// WithWalks sets MC's (walk length, walks per node) grid point.
func WithWalks(length, perNode int) Option {
	return func(cfg *Config) { cfg.WalkLength, cfg.WalksPerNode = length, perNode }
}

// WithHubCount sets PRSim's indexed-hub count.
func WithHubCount(h int) Option { return func(cfg *Config) { cfg.HubCount = h } }

// WithPruneThreshold sets ProbeSim's probe-pruning threshold.
func WithPruneThreshold(t float64) Option { return func(cfg *Config) { cfg.PruneThreshold = t } }

// WithSampleCaps caps ExactSim's per-node sampling and exploration work
// (0 keeps a core default).
func WithSampleCaps(maxSamplesPerNode int, maxExploreEdges int64) Option {
	return func(cfg *Config) {
		cfg.MaxSamplesPerNode = maxSamplesPerNode
		cfg.MaxExploreEdges = maxExploreEdges
	}
}

// WithoutPiSquaredSampling disables ExactSim's π²-proportional sample
// allocation (ablation).
func WithoutPiSquaredSampling() Option {
	return func(cfg *Config) { cfg.NoPiSquaredSampling = true }
}

// WithoutLocalExploit disables ExactSim's Algorithm-3 deterministic
// exploitation (ablation).
func WithoutLocalExploit() Option {
	return func(cfg *Config) { cfg.NoLocalExploit = true }
}

// WithDiagIndex attaches a shared diagonal sample index to ExactSim
// queriers (both the Optimized and Basic variants); other algorithms
// ignore it. All queriers sharing one index must agree on graph, decay
// factor and seed — mismatched queriers fall back to uncached sampling.
func WithDiagIndex(ix *diag.SampleIndex) Option {
	return func(cfg *Config) { cfg.DiagIndex = ix }
}

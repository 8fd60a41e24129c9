package algo

import (
	"context"
	"time"

	"github.com/exactsim/exactsim/internal/core"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/lineariz"
	"github.com/exactsim/exactsim/internal/mc"
	"github.com/exactsim/exactsim/internal/parsim"
	"github.com/exactsim/exactsim/internal/powermethod"
	"github.com/exactsim/exactsim/internal/probesim"
	"github.com/exactsim/exactsim/internal/prsim"
	"github.com/exactsim/exactsim/internal/sparse"
)

func init() {
	Register("exactsim", newExactSim(true))
	Register("exactsim-basic", newExactSim(false))
	Register("mc", newMC)
	Register("parsim", newParSim)
	Register("linearization", newLinearization)
	Register("prsim", newPRSim)
	Register("probesim", newProbeSim)
	Register("powermethod", newPowerMethod)
}

// funcQuerier adapts a context-aware single-source function to Querier.
// All current adapters are built on it; the scores function must be safe
// for concurrent calls (every algorithm package keeps per-query state
// local and its graph/index immutable).
type funcQuerier struct {
	name string
	g    *graph.Graph
	// scores returns the dense score vector plus an optional detail
	// record for Result.Detail.
	scores func(ctx context.Context, source graph.NodeID) ([]float64, any, error)
}

func (q *funcQuerier) Name() string        { return q.name }
func (q *funcQuerier) Graph() *graph.Graph { return q.g }

func (q *funcQuerier) SingleSource(ctx context.Context, source graph.NodeID) (*Result, error) {
	if err := checkSource(q.g, source); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	scores, detail, err := q.scores(ctx, source)
	if err != nil {
		return nil, err
	}
	return &Result{
		Algorithm: q.name,
		Scores:    scores,
		QueryTime: time.Since(start),
		Detail:    detail,
	}, nil
}

func (q *funcQuerier) TopK(ctx context.Context, source graph.NodeID, k int) ([]sparse.Entry, *Result, error) {
	res, err := q.SingleSource(ctx, source)
	if err != nil {
		return nil, nil, err
	}
	return sparse.TopK(res.Scores, k, source), res, nil
}

// indexQuerier is a funcQuerier with a preprocessing phase; it implements
// the optional Index interface.
type indexQuerier struct {
	funcQuerier
	prep  time.Duration
	bytes int64
}

func (q *indexQuerier) PrepTime() time.Duration { return q.prep }
func (q *indexQuerier) IndexBytes() int64       { return q.bytes }

// newExactSim adapts core.Engine: optimized=true is the paper's ExactSim,
// false the Basic ablation variant. Result.Detail carries *core.Result.
func newExactSim(optimized bool) Factory {
	return func(_ context.Context, g *graph.Graph, cfg Config) (Querier, error) {
		name := "exactsim"
		if !optimized {
			name = "exactsim-basic"
		}
		eng, err := core.New(g, core.Options{
			C:                   cfg.C,
			Epsilon:             cfg.Epsilon,
			Optimized:           optimized,
			Workers:             cfg.Workers,
			Seed:                cfg.Seed,
			SampleFactor:        cfg.SampleFactor,
			MaxSamplesPerNode:   cfg.MaxSamplesPerNode,
			MaxExploreEdges:     cfg.MaxExploreEdges,
			NoPiSquaredSampling: cfg.NoPiSquaredSampling,
			NoLocalExploit:      cfg.NoLocalExploit,
			DiagIndex:           cfg.DiagIndex,
			Lender:              cfg.Lender,
		})
		if err != nil {
			return nil, err
		}
		return &funcQuerier{name: name, g: g,
			scores: func(ctx context.Context, source graph.NodeID) ([]float64, any, error) {
				res, err := eng.SingleSourceCtx(ctx, source)
				if err != nil {
					return nil, nil, err
				}
				return res.Scores, res, nil
			}}, nil
	}
}

func newMC(ctx context.Context, g *graph.Graph, cfg Config) (Querier, error) {
	// Zero means "default" for every Config knob, so WithWalks(l, 0) /
	// WithWalks(0, r) must not reach mc.Build literally: R=0 would make
	// every score 0/0 = NaN and L=0 zero-length walks.
	l, r := cfg.WalkLength, cfg.WalksPerNode
	if l == 0 {
		l = defaultWalkLength
	}
	if r == 0 {
		r = defaultWalksPerNode
	}
	ix, err := mc.BuildCtx(ctx, g, mc.Params{
		C: cfg.C, L: l, R: r, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &indexQuerier{
		funcQuerier: funcQuerier{name: "mc", g: g,
			scores: func(ctx context.Context, source graph.NodeID) ([]float64, any, error) {
				s, err := ix.SingleSourceCtx(ctx, source)
				return s, nil, err
			}},
		prep:  ix.PrepTime,
		bytes: ix.Bytes(),
	}, nil
}

func newParSim(_ context.Context, g *graph.Graph, cfg Config) (Querier, error) {
	l := cfg.Iterations
	if l == 0 {
		l = 50
	}
	eng := parsim.New(g, parsim.Params{C: cfg.C, L: l})
	return &funcQuerier{name: "parsim", g: g,
		scores: func(ctx context.Context, source graph.NodeID) ([]float64, any, error) {
			s, err := eng.SingleSourceCtx(ctx, source)
			return s, nil, err
		}}, nil
}

func newLinearization(ctx context.Context, g *graph.Graph, cfg Config) (Querier, error) {
	ix, err := lineariz.BuildCtx(ctx, g, lineariz.Params{
		C: cfg.C, Eps: cfg.Epsilon, SampleFactor: cfg.SampleFactor,
		Workers: cfg.Workers, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &indexQuerier{
		funcQuerier: funcQuerier{name: "linearization", g: g,
			scores: func(ctx context.Context, source graph.NodeID) ([]float64, any, error) {
				s, err := ix.SingleSourceCtx(ctx, source)
				return s, nil, err
			}},
		prep:  ix.PrepTime,
		bytes: ix.Bytes(),
	}, nil
}

func newPRSim(ctx context.Context, g *graph.Graph, cfg Config) (Querier, error) {
	ix, err := prsim.BuildCtx(ctx, g, prsim.Params{
		C: cfg.C, Eps: cfg.Epsilon, HubCount: cfg.HubCount,
		SampleFactor: cfg.SampleFactor, Workers: cfg.Workers, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &indexQuerier{
		funcQuerier: funcQuerier{name: "prsim", g: g,
			scores: func(ctx context.Context, source graph.NodeID) ([]float64, any, error) {
				s, err := ix.SingleSourceCtx(ctx, source)
				return s, nil, err
			}},
		prep:  ix.PrepTime,
		bytes: ix.Bytes(),
	}, nil
}

func newProbeSim(_ context.Context, g *graph.Graph, cfg Config) (Querier, error) {
	eng, err := probesim.NewChecked(g, probesim.Params{
		C: cfg.C, Eps: cfg.Epsilon, SampleFactor: cfg.SampleFactor,
		Threshold: cfg.PruneThreshold, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &funcQuerier{name: "probesim", g: g,
		scores: func(ctx context.Context, source graph.NodeID) ([]float64, any, error) {
			s, err := eng.SingleSourceCtx(ctx, source)
			return s, nil, err
		}}, nil
}

func newPowerMethod(ctx context.Context, g *graph.Graph, cfg Config) (Querier, error) {
	start := time.Now()
	mat, err := powermethod.ComputeCtx(ctx, g, powermethod.Options{
		C: cfg.C, L: cfg.Iterations, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &indexQuerier{
		funcQuerier: funcQuerier{name: "powermethod", g: g,
			scores: func(_ context.Context, source graph.NodeID) ([]float64, any, error) {
				// The all-pairs matrix is precomputed; a query is a row copy.
				return mat.SingleSource(source), nil, nil
			}},
		prep:  time.Since(start),
		bytes: mat.Bytes(),
	}, nil
}

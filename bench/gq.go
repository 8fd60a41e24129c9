package main

import (
	"context"
	"fmt"
	"os"
	"time"

	exactsim "github.com/exactsim/exactsim"
)

// groundtruth-gq: the paper's own use (§4.1). One caller in a closed loop
// asks a direct ExactSim Querier — no Service, no diagonal index — for
// distinct seeded sources of the GQ stand-in, and every answer is checked
// against the power method.
const (
	// gqEpsilon keeps one query at 95–160 ms on two cores, so a 25 s
	// window holds 150–250 queries; the diagonal phase is still >99% of
	// the time, as at the paper's tighter targets.
	gqEpsilon = 8e-3
	// gqMinQueries is the sample count the p90 needs: the window runs on
	// past its length on a host too slow to complete them in time.
	gqMinQueries = 10 * minBeyond
	// gqTopK is the k of the precision@k the paper reports.
	gqTopK = 50
)

var groundtruthGQ = workload{
	name:  "groundtruth-gq",
	setup: setupGQ,
}

type gqFixture struct {
	g       *exactsim.Graph
	q       exactsim.Querier
	sources []exactsim.NodeID
	window  time.Duration
	cache   string // ground-truth cache directory
	tr      *tracer
}

func setupGQ(seed uint64, window time.Duration, cacheDir string, tr *tracer) (fixture, error) {
	g, err := exactsim.GenerateDataset("GQ", 1)
	if err != nil {
		return nil, err
	}
	q, err := exactsim.NewQuerier("exactsim", g, exactsim.WithEpsilon(gqEpsilon), exactsim.WithWorkers(nproc))
	if err != nil {
		return nil, err
	}
	var sources []exactsim.NodeID
	for _, v := range newRand(seed, "gq/sources").Perm(g.N()) {
		if g.InDegree(exactsim.NodeID(v)) > 0 {
			sources = append(sources, exactsim.NodeID(v))
		}
	}
	// Warm pass: one untimed query fills the engine's scratch pools.
	if _, err := q.SingleSource(context.Background(), 0); err != nil {
		return nil, fmt.Errorf("warm query: %w", err)
	}
	return &gqFixture{g: g, q: q, sources: sources, window: window, cache: cacheDir, tr: tr}, nil
}

// run asks for one source after another until the queries have taken the
// window and numbered at least gqMinQueries, and checks each answer
// against the power method as it arrives; the checking is the caller's
// time, not the system's, so it counts neither toward the window nor
// toward goodput's denominator.
func (f *gqFixture) run(ctx context.Context) *outcome {
	out := &outcome{layer: map[string]float64{}}
	t, err := loadTruth(ctx, f.g, f.cache)
	if err != nil {
		out.violations = append(out.violations, fmt.Sprintf("ground truth: %v", err))
		return out
	}
	if t.buildTime > 0 {
		fmt.Fprintf(os.Stderr, "groundtruth-gq: power method took %.1fs (cached for later runs)\n", t.buildTime.Seconds())
	}
	var (
		k          kernel
		maxErr     float64
		precisions []float64
	)
	for i := 0; i < len(f.sources) && (out.span < f.window || i < gqMinQueries); i++ {
		src := f.sources[i]
		t0 := time.Now()
		qctx, end := f.tr.root(ctx, i, t0)
		top, res, err := f.q.TopK(qctx, src, gqTopK)
		t1 := time.Now()
		end()
		out.span += t1.Sub(t0)
		o := op{latency: t1.Sub(t0)}
		if err == nil {
			err = checkAnswer(res, top, src, f.g.N(), gqTopK, gqEpsilon)
		}
		if err == nil {
			f.tr.inProcess(qctx, "", t0, t1, k.observe(res))
			e, p := t.check(src, res.Scores, gqTopK)
			maxErr, precisions = max(maxErr, e), append(precisions, p)
			if !(e <= gqEpsilon) {
				err = fmt.Errorf("source %d: max error %g exceeds ε = %g", src, e, gqEpsilon)
			}
		}
		if err != nil {
			o.failed = true
			out.violations = append(out.violations, err.Error())
		} else {
			o.good = true
		}
		out.ops = append(out.ops, o)
	}
	out.heapMB = liveHeapMB()
	k.fill(out.layer)
	out.layer["core.max_err"] = maxErr
	out.layer["core.precision_at_50"] = mean(precisions)
	if f.tr != nil {
		out.timeBuild("exactsim", f.g, exactsim.WithEpsilon(gqEpsilon), exactsim.WithWorkers(nproc))
	}
	return out
}

func (f *gqFixture) close() {}

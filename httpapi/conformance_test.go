package httpapi_test

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/httpapi"
)

// conformanceCase mirrors internal/algo's registry conformance table: the
// per-algorithm options that make it accurate on a 250-node graph and the
// MaxError it must then achieve against power-method ground truth. Here
// the whole path runs over HTTP loopback — Client (Querier) → Server →
// Service — so it also proves the score vectors survive serialization.
type conformanceCase struct {
	opts []exactsim.QuerierOption
	tol  float64
}

func conformanceCases() map[string]conformanceCase {
	return map[string]conformanceCase{
		"exactsim": {[]exactsim.QuerierOption{exactsim.WithEpsilon(1e-3), exactsim.WithSeed(1)}, 1e-3},
		// Same 5σ rationale as the in-process table: the basic ablation's
		// capped sampling leaves ~2e-3 irreducible noise on D(source).
		"exactsim-basic": {[]exactsim.QuerierOption{exactsim.WithEpsilon(1e-3), exactsim.WithSeed(2)}, 1e-2},
		"powermethod":    {nil, 1e-8},
		"parsim":         {[]exactsim.QuerierOption{exactsim.WithIterations(100)}, 0.1},
		"mc":             {[]exactsim.QuerierOption{exactsim.WithWalks(20, 3000), exactsim.WithSeed(3)}, 0.1},
		"linearization":  {[]exactsim.QuerierOption{exactsim.WithEpsilon(0.02), exactsim.WithSeed(4)}, 0.1},
		"prsim":          {[]exactsim.QuerierOption{exactsim.WithEpsilon(0.02), exactsim.WithSeed(5)}, 0.1},
		"probesim":       {[]exactsim.QuerierOption{exactsim.WithEpsilon(0.05), exactsim.WithSeed(6)}, 0.1},
	}
}

// TestClientConformance is the registry conformance suite run through the
// HTTP transport: for every registered algorithm, an httpapi.Client used
// as an exactsim.Querier must answer with the same shape and accuracy a
// local querier does. The case table is keyed off Algorithms(), so a new
// algorithm without loopback coverage fails loudly.
func TestClientConformance(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(250, 3, 42)
	const source = 17
	pm, err := exactsim.NewQuerier("powermethod", g, exactsim.WithIterations(40))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := pm.SingleSource(context.Background(), source)
	if err != nil {
		t.Fatal(err)
	}
	cases := conformanceCases()

	for _, name := range exactsim.Algorithms() {
		cse, ok := cases[name]
		if !ok {
			t.Fatalf("registered algorithm %q has no loopback conformance case", name)
		}
		t.Run(name, func(t *testing.T) {
			svc, err := exactsim.NewService(g, exactsim.ServiceOptions{
				Workers:          2,
				DefaultAlgorithm: name,
				QuerierOptions:   cse.opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			ts := httptest.NewServer(httpapi.NewServer(svc, httpapi.ServerOptions{}))
			defer ts.Close()

			c, err := httpapi.NewClient(ts.URL, httpapi.WithAlgorithm(name))
			if err != nil {
				t.Fatal(err)
			}
			// The client IS a Querier — the interface assertion is the
			// point of this test.
			var q exactsim.Querier = c
			if q.Name() != name {
				t.Fatalf("Name() = %q, want %q", q.Name(), name)
			}
			if q.Graph() != nil {
				t.Fatal("remote querier materialized a local graph")
			}

			res, err := q.SingleSource(context.Background(), source)
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != name {
				t.Fatalf("Result.Algorithm = %q, want %q", res.Algorithm, name)
			}
			if len(res.Scores) != g.N() {
				t.Fatalf("got %d scores for n=%d", len(res.Scores), g.N())
			}
			if math.Abs(res.Scores[source]-1) > cse.tol {
				t.Fatalf("self-similarity %g not within %g of 1", res.Scores[source], cse.tol)
			}
			var maxErr float64
			for j, s := range res.Scores {
				if e := math.Abs(s - truth.Scores[j]); e > maxErr {
					maxErr = e
				}
			}
			if maxErr > cse.tol {
				t.Fatalf("MaxError %g above tolerance %g over the wire", maxErr, cse.tol)
			}

			top, topRes, err := q.TopK(context.Background(), source, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(top) != 10 {
				t.Fatalf("TopK returned %d entries", len(top))
			}
			if topRes == nil || len(topRes.Scores) != g.N() {
				t.Fatal("TopK did not return the underlying Result")
			}
			for i, e := range top {
				if e.Idx == source {
					t.Fatal("TopK includes the source")
				}
				if i > 0 && e.Val > top[i-1].Val {
					t.Fatal("TopK not sorted descending")
				}
			}

			// Out-of-range sources error uniformly — here the rejection
			// crosses the wire as CodeInvalidArgument.
			if _, err := q.SingleSource(context.Background(), -1); err == nil {
				t.Fatal("negative source accepted")
			}
			if _, err := q.SingleSource(context.Background(), int32(g.N())); err == nil {
				t.Fatal("source == n accepted")
			}
		})
	}
}

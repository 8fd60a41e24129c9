package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
)

func TestGeneratorsDeterministic(t *testing.T) {
	type inputs struct {
		even, poisson  []time.Duration
		ranks, uniform []int
		distinct       []int32
	}
	draw := func(seed uint64) inputs {
		in := inputs{
			even:     arrivals(newRand(seed, "a"), 10, 3*time.Second),
			poisson:  poisson(newRand(seed, "p"), 10, 3*time.Second),
			distinct: distinct(newRand(seed, "d"), 1000, 20),
		}
		z, r := newZipf(50, 1.0), newRand(seed, "z")
		u := newRand(seed, "u")
		for range 200 {
			in.ranks = append(in.ranks, z.draw(r))
			in.uniform = append(in.uniform, u.IntN(1000))
		}
		return in
	}
	same := func(a, b inputs) [5]bool {
		return [5]bool{slices.Equal(a.even, b.even), slices.Equal(a.poisson, b.poisson),
			slices.Equal(a.ranks, b.ranks), slices.Equal(a.uniform, b.uniform), slices.Equal(a.distinct, b.distinct)}
	}
	s1 := draw(7)
	if same(s1, draw(7)) != [5]bool{true, true, true, true, true} {
		t.Fatalf("the same seed gave different inputs (even, poisson, zipf, uniform, distinct): %v", same(s1, draw(7)))
	}
	if same(s1, draw(8)) != [5]bool{} {
		t.Fatalf("different seeds gave identical inputs (even, poisson, zipf, uniform, distinct): %v", same(s1, draw(8)))
	}
	for name, due := range map[string][]time.Duration{"arrivals": s1.even, "poisson": s1.poisson} {
		if len(due) != 30 || !slices.IsSorted(due) || due[0] < 0 || due[len(due)-1] >= 3*time.Second {
			t.Fatalf("%s: want 30 sorted offsets in [0, 3s), got %v", name, due)
		}
	}
	// Constant-rate gaps have no spread; Poisson gaps are exponential,
	// with a standard deviation equal to their mean.
	for _, c := range []struct {
		name   string
		gen    func(*rand.Rand, float64, time.Duration) []time.Duration
		lo, hi float64
	}{{"arrivals", arrivals, 0, 1e-6}, {"poisson", poisson, 0.9, 1.1}} {
		due := c.gen(newRand(7, "cv"), 100, 100*time.Second)
		var gaps []float64
		for i := 1; i < len(due); i++ {
			gaps = append(gaps, float64(due[i]-due[i-1]))
		}
		m := mean(gaps)
		var ss float64
		for _, g := range gaps {
			ss += (g - m) * (g - m)
		}
		if cv := math.Sqrt(ss/float64(len(gaps))) / m; cv < c.lo || cv > c.hi {
			t.Errorf("%s: gap coefficient of variation %.3f, want in [%g, %g]", c.name, cv, c.lo, c.hi)
		}
	}
	seen := map[int32]bool{}
	for _, v := range s1.distinct {
		if seen[v] || v < 0 || v >= 1000 {
			t.Fatalf("distinct: repeated or out-of-range value %d in %v", v, s1.distinct)
		}
		seen[v] = true
	}
	// Rank 0 of a zipf(1) over 50 carries 1/H(50) ≈ 22% of the mass.
	if c := countOf(s1.ranks, 0); c < 25 || c > 70 {
		t.Fatalf("zipf: rank 0 drawn %d of 200 times", c)
	}
}

func countOf(xs []int, v int) int {
	n := 0
	for _, x := range xs {
		if x == v {
			n++
		}
	}
	return n
}

// A server that stalls on its first request delays every request queued
// behind it; an open loop must charge that wait to them, timing each from
// when it was due, not from when it got through.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	var server sync.Mutex
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	lat, lag := openLoop(context.Background(), time.Now(), due, func(_ context.Context, i int, _ time.Time) {
		server.Lock()
		defer server.Unlock()
		if i == 0 {
			time.Sleep(stall)
		} else {
			time.Sleep(time.Millisecond)
		}
	})
	for i := 1; i < len(due); i++ {
		if want := stall - due[i]; lat[i] < want {
			t.Errorf("request %d due at %v: latency %v, want at least %v (queued behind the stall)", i, due[i], lat[i], want)
		}
	}
	if slices.Max(lag) > 50*time.Millisecond {
		t.Errorf("generator lagged %v; the stall must not hold the generator back", slices.Max(lag))
	}
}

// The in-process network carries requests and multi-megabyte answers, as
// the fleet's hops do, and a closed server refuses new ones.
func TestMemNet(t *testing.T) {
	mem := newMemNet()
	body := strings.Repeat("0.123456789,", 1<<18)
	srv := mem.serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in, _ := io.ReadAll(r.Body)
		w.Write(in)
		io.WriteString(w, body)
	}))
	client := &http.Client{Transport: mem.transport()}
	for i := range 2 {
		res, err := client.Post(srv.URL, "text/plain", strings.NewReader("ping"))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil || string(got) != "ping"+body {
			t.Fatalf("request %d: read %d bytes (err %v), want %d", i, len(got), err, 4+len(body))
		}
	}
	srv.Close()
	if _, err := client.Get(srv.URL); err == nil {
		t.Error("request to a closed server succeeded")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reverse order: the helper sorts
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0: refused
	}{
		{100, 0.9, 90}, {99, 0.9, 0}, {100, 0.95, 0}, {200, 0.95, 190},
		{20, 0.5, 10}, {19, 0.5, 0}, {1000, 0.99, 990},
	} {
		got, err := percentile(xs(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples: got %g, want a refusal", 100*c.q, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples: got %g, %v; want %g", 100*c.q, c.n, got, err, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("got %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("got %g %g %g, want 1 2 4", q1, med, q3)
	}
}

// A wrong score must fail the run: the invariant checks catch a broken
// vector, and the ground-truth check catches a plausible but wrong one.
func TestWrongScoreFailsRun(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(200, 3, 1)
	tr, err := loadTruth(context.Background(), g, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const src = 17
	good := tr.row(src)
	top := exactsim.TopKOf(good, 5, src)
	if err := checkAnswer(&exactsim.QueryResult{Scores: good}, top, src, g.N(), 5, 1e-6); err != nil {
		t.Fatalf("the exact answer fails the checks: %v", err)
	}
	broken := func(edit func(s []float64)) []float64 {
		s := slices.Clone(good)
		edit(s)
		return s
	}
	for name, scores := range map[string][]float64{
		"self score":     broken(func(s []float64) { s[src] = 0.5 }),
		"negative score": broken(func(s []float64) { s[3] = -0.1 }),
		"score above c":  broken(func(s []float64) { s[3] = 0.9 }),
		"NaN score":      broken(func(s []float64) { s[3] = math.NaN() }),
	} {
		if err := checkAnswer(&exactsim.QueryResult{Scores: scores}, nil, src, g.N(), 0, 1e-6); err == nil {
			t.Errorf("%s: checks passed", name)
		}
	}
	stale := slices.Clone(top)
	stale[0], stale[1] = stale[1], stale[0]
	if err := checkAnswer(&exactsim.QueryResult{Scores: good}, stale, src, g.N(), 5, 1e-6); err == nil {
		t.Error("a top-k list out of order passed")
	}

	// Off by 2ε in one answer: every invariant holds, only the truth
	// knows, and the run must fail that operation.
	cache := t.TempDir()
	f := &gqFixture{g: g, sources: []exactsim.NodeID{3, src, 42}, window: time.Minute, cache: cache,
		q: &fakeQuerier{g: g, truth: tr, wrong: src}}
	out := f.run(context.Background())
	if len(out.ops) != 3 || out.ops[0].failed || !out.ops[1].failed || out.ops[1].good || out.ops[2].failed {
		t.Fatalf("ops: %+v, want only the second failed", out.ops)
	}
	var rec record
	rec.account(out)
	if rec.Correct || rec.Failed != 1 || len(rec.Violations) != 1 {
		t.Fatalf("record: correct=%v failed=%d violations=%v", rec.Correct, rec.Failed, rec.Violations)
	}
}

// fakeQuerier answers with the ground truth, except for one source whose
// best score it lowers by 2ε.
type fakeQuerier struct {
	g     *exactsim.Graph
	truth *truth
	wrong exactsim.NodeID
}

func (q *fakeQuerier) Name() string           { return "fake" }
func (q *fakeQuerier) Graph() *exactsim.Graph { return q.g }

func (q *fakeQuerier) SingleSource(_ context.Context, src exactsim.NodeID) (*exactsim.QueryResult, error) {
	scores := q.truth.row(src)
	if src == q.wrong {
		scores[exactsim.TopKOf(scores, 1, src)[0].Idx] -= 2 * gqEpsilon
	}
	return &exactsim.QueryResult{Scores: scores}, nil
}

func (q *fakeQuerier) TopK(ctx context.Context, src exactsim.NodeID, k int) ([]exactsim.Entry, *exactsim.QueryResult, error) {
	res, err := q.SingleSource(ctx, src)
	if err != nil {
		return nil, nil, err
	}
	return exactsim.TopKOf(res.Scores, k, src), res, nil
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	// request 1: root [0,100]; client hop [10,90] with a router [20,80]
	// whose two hedged hops [30,60] and [40,70] overlap.
	tr.spans = []span{
		{Req: 1, ID: 1, Name: spanRequest, Start: 0, End: 100},
		{Req: 1, ID: 2, Parent: 1, Name: spanClient, Start: 10, End: 90},
		{Req: 1, ID: 3, Parent: 2, Name: spanRouter, Start: 20, End: 80},
		{Req: 1, ID: 4, Parent: 3, Name: spanHop, Start: 30, End: 60},
		{Req: 1, ID: 5, Parent: 3, Name: spanHop, Start: 40, End: 70},
	}
	rt := tr.breakdown()
	if len(rt) != 1 {
		t.Fatalf("got %d requests", len(rt))
	}
	want := map[string]time.Duration{spanRequest: 20, spanClient: 20, spanRouter: 20, spanHop: 60}
	for name, d := range want {
		if rt[0].self[name] != d {
			t.Errorf("self(%s) = %d, want %d", name, rt[0].self[name], d)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := boundSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := slices.Clone(base)
		for i := range out {
			out[i] += d
		}
		return out
	}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{shift(0), "same"},
		{shift(20), "worse"},
		{shift(-20), "better"},
		{[]float64{60, 140, 60, 140, 60, 140, 100, 100, 60, 140}, "unresolved"},
	} {
		if v := judge(lower, base, c.change); v.verdict != c.want {
			t.Errorf("change %v: verdict %s, want %s", c.change, v.verdict, c.want)
		}
	}
	higher := boundSpec{Name: "goodput_qps", Better: "higher", Bound: 0.1}
	if v := judge(higher, base, shift(-20)); v.verdict != "worse" {
		t.Errorf("goodput down 20%%: verdict %s, want worse", v.verdict)
	}
	// Precision is bounded in absolute terms: 0.02 lower is worse, though
	// only 2% lower.
	precision := boundSpec{Name: "core.precision_at_50", Better: "higher", Bound: 0.01, Absolute: true}
	near := []float64{0.990, 0.991, 0.989, 0.990, 0.992, 0.988, 0.990, 0.991, 0.989, 0.990}
	dropped := slices.Clone(near)
	for i := range dropped {
		dropped[i] -= 0.02
	}
	if v := judge(precision, near, dropped); v.verdict != "worse" {
		t.Errorf("precision down 0.02: verdict %s, want worse", v.verdict)
	}
	if v := judge(precision, near, near); v.verdict != "same" {
		t.Errorf("precision unchanged: verdict %s, want same", v.verdict)
	}
}

// BENCHMARK.json and the program must agree on every name and unit.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, workloadNames())
	}
	same := func(kind string, got []named, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/internal/plan"
)

const (
	// A run builds its system at least setupRuns times and until it has
	// spent setupMin doing so; setup_s is the median, and the last build
	// serves the timed window. Cheap setups repeat more, which keeps one
	// garbage collection from moving their median.
	setupRuns = 3
	setupMin  = time.Second
	// drainLimit bounds how long the calls of a window may outlive it
	// before they are cancelled and count as failed.
	drainLimit = 60 * time.Second
	// settleLimit bounds how long a finished window waits for abandoned
	// work to drain before the heap is read.
	settleLimit = 10 * time.Second
)

// nproc is the CPU budget of the whole run: GOMAXPROCS, the service
// workers summed over all replicas, and the kernel's worker count.
var nproc = runtime.GOMAXPROCS(0)

// workload is one set of inputs the benchmark runs; BENCHMARK.json says
// why each exists.
type workload struct {
	name string
	// setup builds the system under test for one run of window seconds
	// from seed; cacheDir holds the ground-truth cache, and tr is nil in
	// untraced runs.
	setup func(seed uint64, window time.Duration, cacheDir string, tr *tracer) (fixture, error)
}

// fixture is one built system, ready for its timed window.
type fixture interface {
	// run drives the timed window, checks every answer, and reports.
	run(ctx context.Context) *outcome
	close()
}

// op is one operation's outcome.
type op struct {
	latency time.Duration
	// good: a correct, unstamped answer within the latency limit.
	good bool
	// failed: a check violation, or an error the workload does not
	// sanction (only overload-churn-db sanctions sheds and deadline hits).
	failed bool
}

// outcome is what a timed window produced.
type outcome struct {
	ops []op
	// span is the goodput denominator: from the window's start to the last
	// answer of an open loop, the summed query time of a closed one.
	span time.Duration
	// lags is how late the generator launched each open-loop call.
	lags []time.Duration
	// violations lists every failed check, worded for a human.
	violations []string
	// heapMB is the live heap after the window, once the system is idle.
	heapMB float64
	// layer holds the per-layer metrics the fixture measured itself.
	layer map[string]float64
}

// ledger collects per-operation results from concurrent calls.
type ledger struct {
	mu         sync.Mutex
	violations []string
}

func (l *ledger) violate(format string, args ...any) {
	l.mu.Lock()
	l.violations = append(l.violations, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// openLoop starts call(i) at each due offset after start, whether or not
// earlier calls have finished, and waits for all of them. Latency runs
// from the due time, so a stall that delays later calls is charged to
// them too; lag is how late the generator itself launched each call.
func openLoop(ctx context.Context, start time.Time, due []time.Duration, call func(ctx context.Context, i int, due time.Time)) (lat, lag []time.Duration) {
	lat = make([]time.Duration, len(due))
	lag = make([]time.Duration, len(due))
	var wg sync.WaitGroup
	for i, off := range due {
		at := start.Add(off)
		time.Sleep(time.Until(at))
		lag[i] = time.Since(at)
		wg.Add(1)
		go func() {
			defer wg.Done()
			call(ctx, i, at)
			lat[i] = time.Since(at)
		}()
	}
	wg.Wait()
	return lat, lag
}

// runContext is the parent context of a window's calls: no deadline (a
// deadline would travel to the servers as a request timeout), cancelled
// only when the calls outlive the window by drainLimit.
func runContext(window time.Duration) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	t := time.AfterFunc(window+drainLimit, cancel)
	return ctx, func() {
		t.Stop()
		cancel()
	}
}

// record is the full result of one workload run: the reported metrics
// plus every diagnostic, as written by -out and read by compare.
type record struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Host       hostInfo          `json:"host"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Violations []string          `json:"violations,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	// Layer holds per-layer measurements that need no spans; untraced
	// runs record them here for diagnosis.
	Layer map[string]metric `json:"layer,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, for every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"goodput_qps", "1/s"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the metrics a traced run reports, for every workload; a
// layer a workload never calls reads 0.
var perLayer = []metricSpec{
	{"core.forward_ms", "ms"}, {"core.diag_ms", "ms"}, {"core.backward_ms", "ms"},
	{"core.samples", "count"}, {"core.dnodes", "count"},
	{"core.max_err", "score"}, {"core.precision_at_50", "ratio"},
	{"diag.hit_rate", "ratio"}, {"diag.resident_mb", "MiB"}, {"diag.evictions", "count"},
	{"algo.build_ms", "ms"},
	{"plan.share_exactsim", "ratio"}, {"plan.share_prsim", "ratio"}, {"plan.share_probesim", "ratio"},
	{"plan.loosen_rate", "ratio"}, {"plan.downgrade_rate", "ratio"},
	{"service.queue_wait_ms", "ms"}, {"service.hit_ms", "ms"}, {"service.cache_hit_rate", "ratio"},
	{"service.shed_rate", "ratio"}, {"service.codel_drop_rate", "ratio"},
	{"service.deadline_rejected_rate", "ratio"}, {"service.stamped_rate", "ratio"},
	{"service.update_ms", "ms"},
	{"http.self_ms", "ms"}, {"http.resp_bytes", "B"}, {"http.retry_rate", "ratio"},
	{"router.self_ms", "ms"}, {"router.hedge_rate", "ratio"}, {"router.retry_rate", "ratio"},
	{"router.shed_rate", "ratio"}, {"router.replica_skew", "ratio"},
	{"gen.lag_p99_ms", "ms"}, {"trace.overhead_pct", "%"}, {"trace.attributed_pct", "%"},
}

// runWorkload runs w once: untraced, it builds the system setupRuns times
// and measures the end-to-end metrics over the last build's window;
// traced, it builds the system once with the trace wrappers installed,
// traces every other operation of the window, and reports the per-layer
// metrics.
func runWorkload(w workload, seed uint64, window time.Duration, traced bool, cacheDir, spansPath string) (*record, error) {
	rec := &record{
		Workload: w.name, Seed: seed, Seconds: int(window / time.Second), Trace: traced,
		Host: hostInfo{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: nproc},
		Metrics: map[string]metric{},
	}
	if !traced {
		var setups []float64
		var f fixture
		for begin := time.Now(); len(setups) < setupRuns || time.Since(begin) < setupMin; {
			if f != nil {
				f.close()
			}
			collect()
			start := time.Now()
			var err error
			if f, err = w.setup(seed, window, cacheDir, nil); err != nil {
				return nil, fmt.Errorf("%s setup: %w", w.name, err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		out := measure(f, window)
		rec.account(out)
		_, setup, _ := quartiles(setups)
		e2e, err := endToEndMetrics(out, setup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rec.Metrics = withUnits(endToEnd, e2e)
		rec.Layer = withUnits(perLayer, out.layer)
		return rec, nil
	}

	tr := newTracer()
	collect()
	f, err := w.setup(seed, window, cacheDir, tr)
	if err != nil {
		return nil, fmt.Errorf("%s traced setup: %w", w.name, err)
	}
	out := measure(f, window)
	rec.account(out)
	layer, err := layerMetrics(out, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec.Metrics = withUnits(perLayer, layer)
	if spansPath == "" {
		spansPath = filepath.Join(cacheDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", w.name, len(tr.snapshot()), spansPath)
	return rec, nil
}

// measure runs f's window and releases f.
func measure(f fixture, window time.Duration) *outcome {
	collect()
	ctx, cancel := runContext(window)
	defer cancel()
	defer f.close()
	return f.run(ctx)
}

// collect runs one full collection before each build and before the
// window, so the garbage of earlier builds is not collected on their
// clock. One cycle only: sync.Pool contents, the kernel's warm scratch,
// survive it in the pools' victim caches.
func collect() { runtime.GC() }

// liveHeapMB is the live heap in MiB once the system has gone idle. Two
// collections: the first only moves sync.Pool contents (the kernel's
// per-query scratch) into the pools' victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// settle waits, up to settleLimit, until idle reports true: work a window
// started and its caller abandoned (hedge losers, requests past their
// deadline) finishes before the heap is read.
func settle(idle func() bool) {
	for deadline := time.Now().Add(settleLimit); time.Now().Before(deadline) && !idle(); {
		time.Sleep(10 * time.Millisecond)
	}
}

// warmQueries answers reqs on svc one after another, as a set-up's warm
// pass. Service.Warm submits its sources as one Batch, and on a slow host
// the queue sheds some of those background requests as full; a single
// query at a time never waits in the queue.
func warmQueries(svc *exactsim.Service, reqs []exactsim.Request) error {
	for _, req := range reqs {
		if resp := svc.Query(context.Background(), req); resp.Err != nil {
			return fmt.Errorf("warming source %d: %v", req.Source, resp.Err)
		}
	}
	return nil
}

// servicesIdle reports whether no service has a query queued or computing.
func servicesIdle(svcs ...*exactsim.Service) bool {
	for _, s := range svcs {
		if st := s.Stats(); st.QueueDepth > 0 || st.InFlight > 0 {
			return false
		}
	}
	return true
}

func (r *record) account(out *outcome) {
	r.Attempted += len(out.ops)
	for _, o := range out.ops {
		if o.failed {
			r.Failed++
		}
	}
	r.Violations = append(r.Violations, out.violations...)
	r.Correct = len(r.Violations) == 0
}

// latencies returns every operation's latency in milliseconds.
func (o *outcome) latencies() []float64 {
	out := make([]float64, len(o.ops))
	for i, op := range o.ops {
		out[i] = ms(op.latency)
	}
	return out
}

func endToEndMetrics(out *outcome, setup float64) (map[string]float64, error) {
	good := 0
	for _, o := range out.ops {
		if o.good {
			good++
		}
	}
	p50, err := percentile(out.latencies(), 0.5)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	p90, err := percentile(out.latencies(), 0.9)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	return map[string]float64{
		"setup_s":        setup,
		"latency_p50_ms": p50,
		"latency_p90_ms": p90,
		"goodput_qps":    float64(good) / out.span.Seconds(),
		"heap_live_mb":   out.heapMB,
	}, nil
}

// layerMetrics completes the fixture's own per-layer measurements with
// the ones only spans give: self times, attribution and tracing overhead.
func layerMetrics(out *outcome, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	for k, v := range out.layer {
		m[k] = v
	}
	if len(out.lags) > 0 {
		// A validity check, not a tail estimate: no minBeyond rule.
		lags := make([]float64, len(out.lags))
		for i, l := range out.lags {
			lags[i] = ms(l)
		}
		m["gen.lag_p99_ms"] = rankOf(lags, nearestRank(len(lags), 0.99))
	}

	var httpSelf, routerSelf, respBytes []float64
	var rootSelf, root time.Duration
	for _, rt := range tr.breakdown() {
		root += rt.root
		rootSelf += rt.self[spanRequest]
		if rt.total[spanClient] > 0 || rt.total[spanServer] > 0 {
			h := rt.self[spanClient] + rt.self[spanHop] + rt.self[spanServer]
			httpSelf = append(httpSelf, ms(h))
		}
		if rt.total[spanRouter] > 0 {
			routerSelf = append(routerSelf, ms(rt.self[spanRouter]))
		}
	}
	for _, s := range tr.snapshot() {
		if s.Name == spanClient && s.Bytes > 0 {
			respBytes = append(respBytes, float64(s.Bytes))
		}
	}
	if len(respBytes) > 0 {
		m["http.resp_bytes"] = mean(respBytes)
	}
	if len(httpSelf) > 0 {
		_, m["http.self_ms"], _ = quartiles(httpSelf)
	}
	if len(routerSelf) > 0 {
		_, m["router.self_ms"], _ = quartiles(routerSelf)
	}
	if root > 0 {
		m["trace.attributed_pct"] = 100 * (1 - float64(rootSelf)/float64(root))
	}

	var on, off []float64
	for i, l := range out.latencies() {
		if sampled(i) {
			on = append(on, l)
		} else {
			off = append(off, l)
		}
	}
	traced, err := percentile(on, 0.5)
	if err != nil {
		return nil, fmt.Errorf("traced latency: %w", err)
	}
	untraced, err := percentile(off, 0.5)
	if err != nil {
		return nil, fmt.Errorf("untraced latency: %w", err)
	}
	m["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
	return m, nil
}

// served is the goodput denominator of an open loop: from the window's
// start to the last answer in hand.
func served(due, lat []time.Duration) time.Duration {
	var end time.Duration
	for i := range due {
		end = max(end, due[i]+lat[i])
	}
	return end
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// withUnits attaches units to the named values; a metric with no value
// reads 0.
func withUnits(specs []metricSpec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
	return out
}

// serviceDelta is the change of a Service's monotonic counters over a
// window, for the per-layer rates.
type serviceDelta struct {
	queries, hits, sheds, codel, rejected int64
}

func deltaOf(before, after exactsim.ServiceStats) serviceDelta {
	return serviceDelta{
		queries:  after.Queries - before.Queries,
		hits:     after.CacheHits - before.CacheHits,
		sheds:    after.ShedQueries - before.ShedQueries,
		codel:    after.CoDelDrops - before.CoDelDrops,
		rejected: after.DeadlineRejected - before.DeadlineRejected,
	}
}

func (d *serviceDelta) add(o serviceDelta) {
	d.queries += o.queries
	d.hits += o.hits
	d.sheds += o.sheds
	d.codel += o.codel
	d.rejected += o.rejected
}

func (d serviceDelta) fill(m map[string]float64) {
	if d.queries == 0 {
		return
	}
	q := float64(d.queries)
	m["service.cache_hit_rate"] = float64(d.hits) / q
	m["service.shed_rate"] = float64(d.sheds) / q
	m["service.codel_drop_rate"] = float64(d.codel) / q
	m["service.deadline_rejected_rate"] = float64(d.rejected) / q
}

// diagDelta accumulates the diagonal index's lookups over a window. The
// index lives per graph epoch, so a window spanning updates adds one
// delta per epoch.
type diagDelta struct {
	hits, misses, evictions int64
	resident                int64
}

func (d *diagDelta) add(before, after exactsim.ServiceStats) {
	d.hits += after.DiagHits - before.DiagHits
	d.misses += after.DiagMisses - before.DiagMisses
	d.evictions += after.DiagEvictions - before.DiagEvictions
	d.resident = after.DiagResidentBytes
}

func (d diagDelta) fill(m map[string]float64) {
	if looked := d.hits + d.misses; looked > 0 {
		m["diag.hit_rate"] = float64(d.hits) / float64(looked)
	}
	m["diag.resident_mb"] = float64(d.resident) / (1 << 20)
	m["diag.evictions"] = float64(d.evictions)
}

// kernel collects the kernel's per-query detail of in-process answers.
type kernel struct {
	mu                      sync.Mutex
	forward, diag, backward []float64
	samples, dnodes         []float64
}

// observe records res's kernel detail and returns its phase durations
// for the trace (nil when res carries none).
func (k *kernel) observe(res *exactsim.QueryResult) []time.Duration {
	if res == nil {
		return nil
	}
	d, ok := res.Detail.(*exactsim.Result)
	if !ok {
		return nil
	}
	k.mu.Lock()
	k.forward = append(k.forward, ms(d.ForwardTime))
	k.diag = append(k.diag, ms(d.DiagTime))
	k.backward = append(k.backward, ms(d.BackwardTime))
	k.samples = append(k.samples, float64(d.TotalSamples))
	k.dnodes = append(k.dnodes, float64(d.DNodes))
	k.mu.Unlock()
	return []time.Duration{d.ForwardTime, d.DiagTime, d.BackwardTime}
}

func (k *kernel) fill(m map[string]float64) {
	if len(k.diag) == 0 {
		return
	}
	_, m["core.forward_ms"], _ = quartiles(k.forward)
	_, m["core.diag_ms"], _ = quartiles(k.diag)
	_, m["core.backward_ms"], _ = quartiles(k.backward)
	_, m["core.samples"], _ = quartiles(k.samples)
	_, m["core.dnodes"], _ = quartiles(k.dnodes)
}

// plans tallies the planner's decisions over "auto" answers.
type plans struct {
	mu                                   sync.Mutex
	n, exactsim, prsim, probesim, loosen int
	downgrade                            int
}

func (p *plans) observe(pi *exactsim.PlanInfo) {
	if pi == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n++
	switch pi.Algorithm {
	case "exactsim":
		p.exactsim++
	case "prsim":
		p.prsim++
	case "probesim":
		p.probesim++
	}
	switch pi.Reason {
	case plan.ReasonDeadlineLoosen:
		p.loosen++
	case plan.ReasonDeadlineDowngrade:
		p.downgrade++
	}
}

func (p *plans) fill(m map[string]float64) {
	if p.n == 0 {
		return
	}
	n := float64(p.n)
	m["plan.share_exactsim"] = float64(p.exactsim) / n
	m["plan.share_prsim"] = float64(p.prsim) / n
	m["plan.share_probesim"] = float64(p.probesim) / n
	m["plan.loosen_rate"] = float64(p.loosen) / n
	m["plan.downgrade_rate"] = float64(p.downgrade) / n
}

// timeBuild times one querier construction, the algo layer's cost; a
// failed build is a violation.
func (o *outcome) timeBuild(name string, g *exactsim.Graph, opts ...exactsim.QuerierOption) {
	start := time.Now()
	if _, err := exactsim.NewQuerier(name, g, opts...); err != nil {
		o.violations = append(o.violations, fmt.Sprintf("building %s: %v", name, err))
		return
	}
	o.layer["algo.build_ms"] = ms(time.Since(start))
}

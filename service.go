package exactsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exactsim/exactsim/internal/algo"
	"github.com/exactsim/exactsim/internal/diag"
	"github.com/exactsim/exactsim/internal/plan"
)

// ErrServiceClosed is returned by Query and Batch after Close (as a
// Response.Err with CodeClosed; errors.Is against this sentinel works).
var ErrServiceClosed = errors.New("exactsim: service closed")

// ServiceOptions configures a Service. The zero value is usable: it serves
// with one worker per CPU, a 1024-entry result cache, the "exactsim"
// algorithm and no default deadline.
type ServiceOptions struct {
	// Workers is the size of the query worker pool — the maximum number of
	// queries computing concurrently. 0 selects GOMAXPROCS. While fewer
	// than min(Workers, GOMAXPROCS) queries compute, an ExactSim query's
	// diagonal phase borrows the idle CPUs as helpers and hands each back
	// when a new query starts (DESIGN §5); answers are bit-identical
	// either way.
	Workers int
	// QueueDepth bounds queries waiting for a worker. Submissions beyond
	// it are shed class-aware (background first, interactive last) with a
	// retryable unavailable carrying a retry_after_ms hint — never
	// blocked, so an overloaded service answers fast instead of growing
	// an unbounded line. 0 selects 4×Workers.
	QueueDepth int
	// CacheSize bounds the complete single-source answers each graph
	// generation keeps, keyed by (algorithm, source, ε), least recently
	// used dropped first. 0 selects 1024; negative keeps none, though
	// concurrent requests for one key still share one computation.
	CacheSize int
	// MaxQueriers bounds the built (algorithm, ε) queriers each graph
	// generation keeps — each can hold a full index, so the set must not
	// grow with every distinct client-supplied epsilon. Least recently
	// used queriers are dropped beyond the bound (in-flight queries keep
	// theirs; the structures are immutable). 0 selects 64.
	MaxQueriers int
	// DefaultAlgorithm answers requests with an empty Algorithm field.
	// Empty selects AlgorithmAuto: the adaptive planner picks the
	// cheapest registered method whose guarantees cover the request (the
	// Response.Plan block shows the choice). Name a concrete algorithm to
	// pin every defaulted request to it instead.
	DefaultAlgorithm string
	// DefaultTimeout, when positive, bounds every query that has no
	// earlier deadline of its own; exceeding it surfaces as
	// CodeDeadlineExceeded (errors.Is context.DeadlineExceeded).
	DefaultTimeout time.Duration
	// DiagIndexBytes is the memory budget of the per-epoch diagonal
	// sample index shared by every ExactSim querier of one graph
	// generation — the cache that amortizes the Diagonal phase (the
	// dominant single-source cost) across queries with distinct sources.
	// 0 selects the 128 MiB default; negative disables the index. Each
	// Update starts the new epoch with a fresh, empty index, so a chunk
	// sampled on an old graph can never answer on a new one.
	DiagIndexBytes int64
	// QuerierOptions are applied to every querier the service constructs,
	// before the per-request epsilon. Use them to pin C, seeds, worker
	// counts or sampling constants service-wide.
	QuerierOptions []QuerierOption
	// SnapshotWriteWrap, when non-nil, wraps the file writer that
	// SaveSnapshot/SaveSnapshotKeep stream the container through. It
	// exists for fault injection — exactsimd's -fault flag plugs
	// internal/fault's torn-write/corruption wrapper in here so chaos
	// runs exercise the quarantine boot path with real damaged files.
	// Write faults can only ever cost the snapshot (the container
	// checksum catches them on open), never answer correctness.
	SnapshotWriteWrap func(io.Writer) io.Writer

	// QueueTarget is the CoDel sojourn target of the priority queue:
	// once queued jobs dwell above it for a full QueueWindow, the queue
	// enters its dropping state and sheds oldest-first until dwell
	// recovers. 0 selects 5ms; negative disables age-based drops (the
	// overflow shed and deadline rejection still apply).
	QueueTarget time.Duration
	// QueueWindow is the CoDel interval: how long dwell must stay above
	// QueueTarget before drops begin, and the sliding horizon of the
	// overload signal that steps AllowDegraded requests down the
	// planner's ladder. 0 selects 100ms.
	QueueWindow time.Duration
}

func (o *ServiceOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.MaxQueriers <= 0 {
		o.MaxQueriers = 64
	}
	if o.DefaultAlgorithm == "" {
		o.DefaultAlgorithm = AlgorithmAuto
	}
	if o.QueueTarget == 0 {
		o.QueueTarget = defaultQueueTarget
	}
	if o.QueueWindow <= 0 {
		o.QueueWindow = defaultQueueWindow
	}
}

// Request names one single-source (or top-k) SimRank query. It is the
// wire request of the query protocol: plain JSON-taggable fields only, so
// the same struct serves in-process calls, the HTTP API and any future
// transport.
type Request struct {
	// Algorithm is a registry name (see Algorithms); empty selects the
	// service default.
	Algorithm string `json:"algorithm,omitempty"`
	// Source is the query node.
	Source NodeID `json:"source"`
	// K, when positive, additionally extracts the top-k entries.
	K int `json:"k,omitempty"`
	// Epsilon overrides the error target for this request; 0 keeps the
	// service-wide default. Distinct epsilons get distinct queriers and
	// distinct cache lines.
	Epsilon float64 `json:"epsilon,omitempty"`
	// NoCache bypasses the result cache for this request (both lookup and
	// fill) — for callers that need a fresh computation, e.g. right after
	// graph updates elsewhere.
	NoCache bool `json:"no_cache,omitempty"`
	// Priority is the request's overload class (interactive > batch >
	// background); empty means interactive. Under pressure lower classes
	// queue behind higher ones and are shed first; Warm traffic defaults
	// to background.
	Priority Priority `json:"priority,omitempty"`
	// AllowDegraded opts this request into degraded answers: while the
	// service's overload signal fires, the plan takes one step down the
	// planner's ladder (epsilon doubled while it stays within 0.1, else
	// the next cheaper method), and an "auto" plan may also step to fit
	// the remaining deadline. Such answers are marked Response.Degraded.
	// Requests that opt into neither this nor AllowPartial are never
	// substituted — their answers stay bit-exact under any load.
	AllowDegraded bool `json:"allow_degraded,omitempty"`
	// AllowPartial opts this request into anytime serving: the worker
	// evaluates an accuracy-tier ladder (coarse→target epsilon) with
	// deadline checkpoints, and a deadline that fires mid-refinement
	// returns the best answer so far (Response.Partial, with the achieved
	// epsilon reported) instead of deadline_exceeded. It also lets an
	// "auto" plan weigh the remaining deadline budget. Requests that do
	// not opt in keep the strict contract: the target accuracy or a
	// coded error, nothing between.
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// Response carries one request's outcome. Err is per-request and
// structured (a batch can mix successes and failures); the whole struct
// round-trips through JSON, which is what lets the HTTP transport reuse
// it unchanged.
type Response struct {
	// Request echoes the (normalized) request this answers.
	Request Request `json:"request"`
	// Result is the full single-source result; shared with the cache, so
	// treat Result.Scores as read-only.
	Result *QueryResult `json:"result,omitempty"`
	// TopK is populated when Request.K > 0.
	TopK []Entry `json:"top_k,omitempty"`
	// CacheHit reports whether Result came from the answer cache, or from
	// a concurrent request's computation of the same key. Serialized even
	// when false — the §6 wire examples show it explicitly.
	CacheHit bool `json:"cache_hit"`
	// GraphEpoch is the graph generation this response was computed on.
	// Epochs start at 1 and increment on every Service.Update; a response
	// is internally consistent on its epoch even when an update lands
	// mid-query.
	GraphEpoch uint64 `json:"graph_epoch"`
	// Degraded marks an answer computed by a different plan than the one
	// asked for — a looser effective epsilon or a cheaper method, as the
	// echoed Request shows — because the overload signal fired on an
	// AllowDegraded request, or an "auto" plan stepped to fit the
	// deadline of an AllowPartial or AllowDegraded request. For "auto",
	// the plan asked for is the planner's strict choice. Never set on
	// requests that opted into neither.
	Degraded bool `json:"degraded,omitempty"`
	// Plan is the planner's audit block, present exactly when the request
	// was routed through AlgorithmAuto: the concrete method that ran, the
	// effective epsilon it ran at, and the enumerated decision reason.
	// The echoed Request carries the same algorithm, so the answer is
	// cached — and deduplicated — under the planned key.
	Plan *PlanInfo `json:"plan,omitempty"`
	// Partial marks a best-so-far answer: the request set AllowPartial,
	// its deadline fired mid-refinement, and Result holds the coarsest
	// completed tier instead of the target. AchievedEpsilon reports the
	// error bound actually met. Intermediate records of a streaming query
	// are Partial too — only the terminal record is the full answer.
	Partial bool `json:"partial,omitempty"`
	// AchievedEpsilon is the error target Result actually satisfies; set
	// only on Partial responses (a full answer achieves the requested
	// target by definition).
	AchievedEpsilon float64 `json:"achieved_epsilon,omitempty"`
	// Err is the per-request error, nil on success. Cancelled queries
	// report CodeCanceled/CodeDeadlineExceeded (matching the context
	// sentinels under errors.Is).
	Err *Error `json:"error,omitempty"`
}

// WarmRequest asks a Service to pre-compute a set of single-source
// queries so later traffic starts warm: each pre-computed source fills the
// result cache, and — more importantly — populates the epoch's diagonal
// sample index with the chunk cells its touched nodes need, cells that
// queries from *other* sources share. It is part of the wire protocol
// (POST /v1/warm in httpapi).
type WarmRequest struct {
	// Algorithm and Epsilon select the querier to warm; empty/zero keep
	// the service defaults.
	Algorithm string  `json:"algorithm,omitempty"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	// Sources are the query nodes to pre-compute. When empty, the
	// TopDegree highest in-degree nodes are warmed instead: π mass
	// concentrates on high in-degree hubs, so hub queries accumulate the
	// fattest sample allowances — exactly the chunk cells that dominate
	// every other query's Diagonal phase.
	Sources []NodeID `json:"sources,omitempty"`
	// TopDegree is the hub count used when Sources is empty; 0 selects 32.
	TopDegree int `json:"top_degree,omitempty"`
}

// WarmResponse reports one Warm call's outcome.
type WarmResponse struct {
	// Warmed / Failed count the pre-computed sources by outcome.
	Warmed int `json:"warmed"`
	Failed int `json:"failed"`
	// GraphEpoch is the generation current when the pass finished — the
	// one left (at least partially) warm. An Update mid-warm moves it.
	GraphEpoch uint64 `json:"graph_epoch"`
	// Err is set only when the call failed wholesale (closed service,
	// invalid request); per-source failures just count toward Failed.
	Err *Error `json:"error,omitempty"`
}

// DefaultWarmTopDegree is the hub count warmed by a WarmRequest that names
// neither sources nor a TopDegree. Exported so transports can bound the
// effective fan-out of a default request (httpapi holds it against
// MaxBatch).
const DefaultWarmTopDegree = 32

// ServiceStats is a point-in-time snapshot: monotonic counters plus the
// gauges a load balancer wants when deciding where to send traffic.
type ServiceStats struct {
	// Queries is the number of requests answered (including failures).
	Queries int64 `json:"queries"`
	// CacheHits counts requests served from the answer cache, or by
	// another request's computation of the same key.
	CacheHits int64 `json:"cache_hits"`
	// Errors counts requests that returned a non-nil Err.
	Errors int64 `json:"errors"`
	// CachedResults is the number of answers the current graph generation
	// keeps.
	CachedResults int `json:"cached_results"`
	// QueueDepth is the number of queries waiting for a worker right now.
	QueueDepth int `json:"queue_depth"`
	// InFlight is the number of queries computing on workers right now.
	InFlight int `json:"in_flight"`
	// CPUsLent counts the helpers lent so far: idle worker CPUs that
	// joined a running ExactSim query's diagonal phase.
	CPUsLent int64 `json:"cpus_lent"`
	// Queriers is the number of built (algorithm, ε) queriers the current
	// graph generation keeps; builds still running do not count.
	Queriers int `json:"queriers"`
	// GraphEpoch is the current graph generation (starts at 1).
	GraphEpoch uint64 `json:"graph_epoch"`
	// Diagonal sample index gauges for the current epoch (all zero when
	// the index is disabled). Hits/misses count chunk and exploration
	// lookups since the epoch began; resident/budget bytes describe the
	// index's footprint against its eviction threshold. A load balancer
	// reads DiagHitRate to tell a warm instance from a cold one.
	DiagIndexEnabled  bool    `json:"diag_index_enabled"`
	DiagHits          int64   `json:"diag_hits"`
	DiagMisses        int64   `json:"diag_misses"`
	DiagHitRate       float64 `json:"diag_hit_rate"`
	DiagEvictions     int64   `json:"diag_evictions"`
	DiagChunks        int     `json:"diag_chunks"`
	DiagExplores      int     `json:"diag_explores"`
	DiagResidentBytes int64   `json:"diag_resident_bytes"`
	DiagBudgetBytes   int64   `json:"diag_budget_bytes"`
	// Overload-control gauges. ShedQueries counts requests rejected (or
	// evicted) by the full priority queue; CoDelDrops counts age-based
	// head drops (sojourn over target for a window); DeadlineRejected
	// counts queries answered deadline_exceeded before any work because
	// their budget was already spent on arrival or in the queue;
	// DegradedQueries counts successful answers stamped Degraded (by the
	// overload or the deadline trigger). BrownoutActive reports whether
	// the overload signal is currently firing; QueueSojournMicros is the
	// smoothed queue dwell the retry_after_ms hints are sized from.
	ShedQueries        int64 `json:"shed_queries"`
	CoDelDrops         int64 `json:"codel_drops"`
	DeadlineRejected   int64 `json:"deadline_rejected"`
	DegradedQueries    int64 `json:"degraded_queries"`
	BrownoutActive     bool  `json:"brownout_active"`
	QueueSojournMicros int64 `json:"queue_sojourn_us"`
	// Planner gauges. AutoPlanned counts requests routed through
	// AlgorithmAuto; PartialResults counts best-so-far answers served at
	// a deadline (AllowPartial requests whose ladder was cut short).
	AutoPlanned    int64 `json:"auto_planned"`
	PartialResults int64 `json:"partial_results"`
	// PanicsRecovered counts panics contained by recover() instead of
	// killing the process — worker panics, querier-build panics, and (in
	// the HTTP servers' view of this struct) handler panics. Nonzero
	// means an algorithm or handler has a bug; the process absorbed it.
	PanicsRecovered int64 `json:"panics_recovered"`
	// LastPanic is the headline of the most recent recovered panic ("" =
	// never). The full stack goes to the process log, not the wire.
	LastPanic string `json:"last_panic"`
}

// graphState is one immutable graph generation. Queries capture the
// current state once at entry and use it throughout, so an Update landing
// mid-query never mixes epochs inside one response. The diagonal sample
// index and the memos live here — not on the Service — so epoch isolation
// is structural: a query can only ever reach the caches of the generation
// it captured, and a dropped generation takes them with it.
type graphState struct {
	g       *Graph
	epoch   uint64
	diagIdx *DiagSampleIndex // nil when DiagIndexBytes < 0
	// planner is this generation's adaptive query planner: the cost
	// model is calibrated against this epoch's graph stats, so — like
	// the diag index — a plan can only ever be made from the generation
	// the query captured.
	planner *plan.Planner
	// queriers holds the built queriers, bounded by MaxQueriers; answers
	// holds complete answers, bounded by CacheSize. Each runs one
	// computation per key at a time.
	queriers *memo[querierKey, built]
	answers  *memo[answerKey, *QueryResult]
}

// Service is a concurrent SimRank query front-end over a live graph: a
// bounded worker pool executing Querier calls, per-query deadlines with
// cancellation honored inside the algorithms' computation loops, and
// epoch-based graph generations — Update installs a new snapshot under
// the next epoch without downtime (the paper's index-free property is
// what makes this cheap: no index maintenance, just fresh queriers on the
// new snapshot). Each generation owns its caches: an LRU of complete
// single-source answers keyed by (algorithm, source, ε), and lazily built
// queriers keyed by (algorithm, ε), each computed once per key however
// many requests ask for it at the same time.
//
// Queriers are shared across workers — the underlying engines are
// immutable after construction, so concurrent queries are safe (verified
// by the race-detector tests).
//
// Synchronization discipline (one per field group, audited in PR 8):
// monotonic stats counters are atomics read lock-free by Stats; each
// mutable flag lives under exactly one named mutex (updateMu, closeMu)
// and is never also touched atomically; state is an atomic pointer
// swapped only under updateMu, and the memos it points to lock
// themselves. Keep new fields in one of these groups rather than
// inventing a mixed idiom.
type Service struct {
	opts ServiceOptions

	// state is the current graph generation; swapped atomically by Update.
	state atomic.Pointer[graphState]
	// updateMu serializes Update calls so epochs are strictly increasing.
	updateMu sync.Mutex

	// queue is the class-aware priority queue feeding the worker pool
	// (see overload.go): bounded like the old jobs channel, but drained
	// interactive-first, shed class-aware on overflow, and CoDel-dropped
	// when standing dwell exceeds QueueTarget.
	queue   *serviceQueue
	workers sync.WaitGroup

	// buildCtx outlives individual requests: index builds run under it
	// (cancelled only by Close), so one short-deadline request cannot
	// abort-and-retry-forever a long build that later requests need.
	buildCtx    context.Context
	cancelBuild context.CancelFunc

	// closeMu guards the closed flag (the queue has its own internal
	// closed state; pushes after close are rejected, never a panic).
	closeMu sync.RWMutex
	closed  bool

	// graphCloser, when set (OpenSnapshot), releases the mmap'd mapping
	// backing the initial graph after the workers drain on Close.
	// snapshots counts in-progress Snapshot streams; Close waits for it
	// before releasing the mapping they may be reading (entries are
	// added under closeMu.RLock with the closed flag checked, so Close
	// cannot miss one).
	graphCloser io.Closer
	snapshots   sync.WaitGroup

	queries   atomic.Int64
	cacheHits atomic.Int64
	errors    atomic.Int64

	// lender counts min(Workers, GOMAXPROCS) CPUs: a worker holds one
	// while it executes a job, and ExactSim's diagonal phase borrows the
	// idle ones. Its held count is the InFlight gauge.
	lender *diag.Lender

	// deadlineRejected counts expired-on-arrival answers (budget gone
	// before any work); degradedQueries counts successful Degraded
	// answers. Both are monotonic wire gauges.
	deadlineRejected atomic.Int64
	degradedQueries  atomic.Int64

	// autoPlanned counts requests routed through AlgorithmAuto;
	// partialResults counts best-so-far answers served at a deadline.
	autoPlanned    atomic.Int64
	partialResults atomic.Int64

	// baseEpsilon is the effective service-wide error target resolved
	// from QuerierOptions at construction — the value the planner's
	// decisions (and the 0-epsilon request sentinel) are anchored to.
	baseEpsilon float64

	// panics counts worker/build panics contained by recover(); lastPanic
	// keeps the most recent one's headline + stack for diagnosis. A panic
	// inside an algorithm must cost one CodeInternal response, never the
	// process.
	panics    atomic.Int64
	lastPanic atomic.Pointer[string]
}

// answerKey identifies one complete single-source answer. Epsilon is
// part of the key because the same (algorithm, source) pair answers
// differently at different error targets; 0 means "service default".
type answerKey struct {
	algorithm string
	source    NodeID
	epsilon   float64
}

// querierKey identifies one constructed querier. Unlike answerKey it has
// no source field — a querier answers every source — and the distinct
// type keeps a future edit from accidentally fragmenting the querier memo
// per source.
type querierKey struct {
	algorithm string
	epsilon   float64
}

// built is the outcome of one querier build.
type built struct {
	q   Querier
	err error
}

type serviceJob struct {
	ctx  context.Context
	st   *graphState
	req  Request
	resp chan Response
	// emit, when non-nil, receives each intermediate refinement of an
	// anytime (tier-ladder) evaluation, on the worker goroutine, before
	// the final answer lands on resp. The submitter must keep waiting on
	// resp unconditionally — it owns whatever emit writes to.
	emit func(Response)
	// pri is the validated queue class (Priority.rank); enq timestamps
	// admission, feeding sojourn accounting and CoDel; deadline records
	// whether ctx bounds the wait — only deadline-bearing jobs are
	// eligible for CoDel age drops.
	pri      int
	enq      time.Time
	deadline bool
}

// NewService starts a query service over g (graph epoch 1).
func NewService(g *Graph, opts ServiceOptions) (*Service, error) {
	return newService(g, opts, nil)
}

// newService is NewService with an optional pre-warmed diagonal sample
// index for epoch 1 — the snapshot-restore path (OpenSnapshot) hands
// the spilled index straight into the first graph generation, so the
// warmth survives the process boundary.
func newService(g *Graph, opts ServiceOptions, restoredIdx *DiagSampleIndex) (*Service, error) {
	if g == nil {
		return nil, Errorf(CodeInvalidArgument, "exactsim: nil graph")
	}
	opts.normalize()
	if opts.DefaultAlgorithm != AlgorithmAuto && !KnownAlgorithm(opts.DefaultAlgorithm) {
		return nil, Errorf(CodeNotFound, "exactsim: unknown default algorithm %q (have auto, %v)",
			opts.DefaultAlgorithm, Algorithms())
	}
	// Resolve the effective base config once: bad querier options fail
	// the constructor instead of every first query, and the planner
	// learns the base epsilon its decisions anchor to.
	baseCfg, err := algo.Resolve(opts.QuerierOptions...)
	if err != nil {
		return nil, Errorf(CodeInvalidArgument, "exactsim: %v", err)
	}
	buildCtx, cancelBuild := context.WithCancel(context.Background())
	s := &Service{
		opts:        opts,
		buildCtx:    buildCtx,
		cancelBuild: cancelBuild,
		baseEpsilon: baseCfg.Epsilon,
		lender:      diag.NewLender(min(opts.Workers, runtime.GOMAXPROCS(0))),
	}
	s.queue = newServiceQueue(opts.QueueDepth, opts.QueueTarget, opts.QueueWindow, s.dropJob)
	st := s.newState(g, 1)
	if restoredIdx != nil && s.opts.DiagIndexBytes >= 0 {
		st.diagIdx = restoredIdx
	}
	s.state.Store(st)
	for w := 0; w < opts.Workers; w++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// newState assembles one graph generation, with its own empty memos and,
// when indexing is enabled, its own empty diagonal sample index.
func (s *Service) newState(g *Graph, epoch uint64) *graphState {
	st := &graphState{g: g, epoch: epoch, planner: plan.New(g, s.baseEpsilon),
		queriers: newMemo[querierKey, built](s.opts.MaxQueriers),
		answers:  newMemo[answerKey, *QueryResult](s.opts.CacheSize)}
	if s.opts.DiagIndexBytes >= 0 {
		st.diagIdx = NewDiagSampleIndex(s.opts.DiagIndexBytes)
	}
	return st
}

// Update installs g as the next graph generation and returns its epoch.
// In-flight queries finish consistently on the epoch they started with;
// new queries see g immediately, with the new generation's empty caches,
// so nothing computed on an older graph can answer them. Update on a
// closed service returns CodeClosed.
func (s *Service) Update(g *Graph) (uint64, error) {
	if g == nil {
		return 0, Errorf(CodeInvalidArgument, "exactsim: nil graph")
	}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return 0, ToError(ErrServiceClosed)
	}
	s.updateMu.Lock()
	st := s.newState(g, s.state.Load().epoch+1)
	s.state.Store(st)
	s.updateMu.Unlock()
	s.closeMu.RUnlock()
	return st.epoch, nil
}

// Query answers one request, blocking until a worker finishes it or ctx
// ends. The per-request deadline (ctx, tightened by DefaultTimeout) is
// live inside the algorithm's iteration loops, so a timeout interrupts
// even a single long-running ExactSim query mid-computation.
func (s *Service) Query(ctx context.Context, req Request) Response {
	resp := s.query(ctx, req, nil)
	s.count(resp)
	return resp
}

// QueryStream answers one request as a refinement sequence: emit receives
// each intermediate accuracy tier (Partial responses, coarse→target,
// called sequentially on a worker goroutine before QueryStream returns),
// and the returned Response is the terminal record — bit-identical to
// what Query would have answered for the same request. Cache hits and
// non-error-driven algorithms skip straight to the terminal record.
func (s *Service) QueryStream(ctx context.Context, req Request, emit func(Response)) Response {
	if emit == nil {
		emit = func(Response) {}
	}
	resp := s.query(ctx, req, emit)
	s.count(resp)
	return resp
}

func (s *Service) count(resp Response) {
	s.queries.Add(1)
	if resp.CacheHit {
		s.cacheHits.Add(1)
	}
	if resp.Err != nil {
		s.errors.Add(1)
	}
}

func (s *Service) query(ctx context.Context, req Request, emit func(Response)) Response {
	// Reject before the cache lookup: a closed service answers nothing,
	// not even cached results.
	s.closeMu.RLock()
	closed := s.closed
	s.closeMu.RUnlock()
	st := s.state.Load()
	if closed {
		return s.fail(st, req, ToError(ErrServiceClosed))
	}
	if err := s.normalizeRequest(&req, st); err != nil {
		return s.fail(st, req, err)
	}

	// One pipeline: plan ("auto" only), look up the cache on the plan
	// asked for, let the planner substitute a cheaper one, then cache,
	// single-flight and execute under the plan that runs. The request is
	// rewritten at each step, so every later stage keys on the plan in
	// force and two alike-planned requests share one answer.
	auto := req.Algorithm == AlgorithmAuto
	in := plan.Input{Algorithm: req.Algorithm, Epsilon: req.Epsilon}
	if auto {
		in.Algorithm = ""
		s.autoPlanned.Add(1)
	}
	asked := st.planner.Plan(in)
	req.Algorithm = asked.Algorithm
	ran := asked
	var resp Response
	// A cached answer to the plan asked for preempts substitution: a hit
	// is cheaper than any degraded plan.
	if res, ok := s.cached(st, req); ok {
		resp = s.respond(st, req, res, true)
	} else {
		ran = s.substitute(ctx, st, req, in, asked)
		req.Algorithm, req.Epsilon = ran.Algorithm, ran.Epsilon
		resp = s.compute(ctx, st, req, emit)
	}
	return s.stampDegraded(st, resp, auto, asked, ran)
}

// cached looks req up in st's answers (never for NoCache requests).
func (s *Service) cached(st *graphState, req Request) (*QueryResult, bool) {
	if req.NoCache {
		return nil, false
	}
	return st.answers.get(answerKey{algorithm: req.Algorithm, source: req.Source, epsilon: req.Epsilon})
}

// compute answers req under the plan that runs, through st's answer
// memo: concurrent queries for the same cold key elect one leader to
// compute; the rest wait on it (or their own context) instead of
// duplicating the work across the pool — N clients asking for the same
// cold key would otherwise saturate the pool with N copies of the same
// expensive computation (cache stampede). NoCache requests bypass the
// memo, both lookup and fill.
func (s *Service) compute(ctx context.Context, st *graphState, req Request, emit func(Response)) Response {
	if req.NoCache {
		return s.dispatch(ctx, st, req, emit)
	}
	key := answerKey{algorithm: req.Algorithm, source: req.Source, epsilon: req.Epsilon}
	if emit != nil {
		// Streaming requests want the refinement sequence, which another
		// leader's single answer cannot provide — they bypass the
		// single-flight (the cache pre-check in query still
		// short-circuits warm keys straight to the terminal record), and
		// only fill the memo.
		resp := s.dispatch(ctx, st, req, emit)
		if complete(resp) {
			st.answers.put(key, resp.Result)
		}
		return resp
	}
	for {
		if res, ok := st.answers.get(key); ok {
			return s.respond(st, req, res, true)
		}
		e, leader := st.answers.claim(key)
		if leader {
			resp := s.dispatch(ctx, st, req, nil)
			st.answers.finish(e, resp.Result, complete(resp))
			return resp
		}
		res, ok, err := e.wait(ctx)
		if err != nil {
			return s.fail(st, req, ToError(err))
		}
		if ok {
			// Served by the leader's computation: a hit as far as this
			// request is concerned.
			return s.respond(st, req, res, true)
		}
		// The leader failed (its deadline, a build error) or answered
		// Partial (its deadline is not ours): loop and retry, perhaps as
		// leader.
	}
}

// complete reports whether resp is an answer the memo may keep and share:
// it succeeded and met its target accuracy. A Partial tier never enters
// the memo.
func complete(resp Response) bool {
	return resp.Err == nil && !resp.Partial
}

// stampDegraded is the pipeline's one exit. An answer whose plan differs
// from the one asked for, in method or in effective epsilon, is stamped
// Degraded and — if it succeeded; a substitute that still failed
// degraded nobody's accuracy — counted in degraded_queries. An "auto"
// answer gets its Plan block, naming the plan that ran. Intermediate
// stream records carry neither: the terminal record is the auditable
// answer.
func (s *Service) stampDegraded(st *graphState, resp Response, auto bool, asked, ran plan.Decision) Response {
	eps := st.planner.Effective(ran.Epsilon)
	if ran.Algorithm != asked.Algorithm || eps != st.planner.Effective(asked.Epsilon) {
		resp.Degraded = true
		if resp.Err == nil {
			s.degradedQueries.Add(1)
		}
	}
	if auto {
		resp.Plan = &PlanInfo{Algorithm: ran.Algorithm, EffectiveEpsilon: eps, Reason: ran.Reason}
	}
	return resp
}

// normalizeRequest is the single request-validation point of the Service
// boundary (Query, QueryStream, Batch and Warm all funnel through it):
// defaults applied, then every field screened with a coded
// invalid_argument/not_found before any dispatch — no per-algorithm
// ad-hoc handling downstream.
func (s *Service) normalizeRequest(req *Request, st *graphState) *Error {
	if req.Algorithm == "" {
		req.Algorithm = s.opts.DefaultAlgorithm
	}
	if req.Algorithm != AlgorithmAuto && !KnownAlgorithm(req.Algorithm) {
		return Errorf(CodeNotFound,
			"exactsim: unknown algorithm %q (have auto, %v)", req.Algorithm, Algorithms())
	}
	if req.K < 0 {
		return Errorf(CodeInvalidArgument, "exactsim: negative k %d", req.K)
	}
	if req.Source < 0 || int(req.Source) >= st.g.N() {
		return Errorf(CodeInvalidArgument,
			"exactsim: source %d out of range [0,%d)", req.Source, st.g.N())
	}
	// Epsilon is part of the querier and cache keys, so screen it here:
	// a NaN key would never match itself and leak a querier slot per
	// request (0 is the "service default" sentinel).
	if math.IsNaN(req.Epsilon) || math.IsInf(req.Epsilon, 0) ||
		req.Epsilon < 0 || req.Epsilon >= 1 {
		return Errorf(CodeInvalidArgument,
			"exactsim: epsilon %g outside (0,1) (0 = service default)", req.Epsilon)
	}
	if _, ok := req.Priority.rank(); !ok {
		return Errorf(CodeInvalidArgument,
			"exactsim: unknown priority %q (have %q, %q, %q)",
			req.Priority, PriorityInteractive, PriorityBatch, PriorityBackground)
	}
	return nil
}

// deadlineSpent reports whether ctx's deadline has already passed on the
// wall clock. Deliberately stricter than ctx.Err(): the runtime timer
// that cancels a context can fire milliseconds late on a loaded
// scheduler, and an admission check that waited for it would execute
// work whose budget is provably gone.
func deadlineSpent(ctx context.Context) bool {
	dl, ok := ctx.Deadline()
	return ok && !time.Now().Before(dl)
}

// dispatch queues one request on the worker pool and waits for its
// response under ctx (tightened by DefaultTimeout). A request whose
// budget is already spent — or that the overflowing queue sheds — is
// answered immediately instead of occupying a slot; it never blocks
// the submitter.
func (s *Service) dispatch(ctx context.Context, st *graphState, req Request, emit func(Response)) Response {
	if s.opts.DefaultTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.DefaultTimeout)
		defer cancel()
	}

	// Expired-on-arrival rejection: a query that cannot meet its deadline
	// must not cost a queue slot, let alone a worker.
	if err := ctx.Err(); err != nil || deadlineSpent(ctx) {
		if err == nil {
			err = context.DeadlineExceeded
		}
		if errors.Is(err, context.DeadlineExceeded) {
			s.deadlineRejected.Add(1)
		}
		return s.fail(st, req, ToError(err))
	}

	pri, _ := req.Priority.rank() // validated in query()
	_, hasDeadline := ctx.Deadline()
	job := &serviceJob{ctx: ctx, st: st, req: req, resp: make(chan Response, 1), emit: emit,
		pri: pri, enq: time.Now(), deadline: hasDeadline}
	switch s.queue.push(job) {
	case pushClosed:
		return s.fail(st, req, ToError(ErrServiceClosed))
	case pushShed:
		return s.fail(st, req, s.shedError(req.Priority))
	}

	if emit != nil || req.AllowPartial {
		// Streaming and anytime requests wait for the worker
		// unconditionally: the worker owns emit (returning early would
		// race its writes) and a deadline firing mid-ladder must come
		// back as the best-so-far answer, not as the submitter's
		// ctx error. This cannot hang — every pushed job is answered
		// exactly once (a worker executes it, dropJob ejects it, or the
		// closing queue drains it), and the algorithms observe ctx
		// internally, so a dead context still ends the wait promptly.
		return <-job.resp
	}
	select {
	case resp := <-job.resp:
		return resp
	case <-ctx.Done():
		// The worker that picks the job up will see the dead context and
		// drop it without computing.
		return s.fail(st, req, ToError(ctx.Err()))
	}
}

// dropJob answers a job the queue ejected (overflow shed or CoDel age
// drop) with a retryable unavailable carrying the retry_after_ms hint.
// It runs on whichever goroutine triggered the drop; the response
// channel is buffered, so the send never blocks even when the
// submitter already gave up on its context.
func (s *Service) dropJob(job *serviceJob, reason queueDropReason) {
	var err *Error
	switch reason {
	case dropCoDel:
		err = Errorf(CodeUnavailable,
			"exactsim: %s query dropped: queue dwell over target (CoDel)",
			job.req.Priority.display())
	default:
		err = Errorf(CodeUnavailable,
			"exactsim: %s query shed: queue full", job.req.Priority.display())
	}
	err.RetryAfterMillis = s.queue.retryAfterMillis()
	job.resp <- s.fail(job.st, job.req, err)
}

// shedError is the answer for a request the full queue rejected at the
// door (as opposed to a queued victim it evicted).
func (s *Service) shedError(pri Priority) *Error {
	err := Errorf(CodeUnavailable,
		"exactsim: %s query shed: queue full", pri.display())
	err.RetryAfterMillis = s.queue.retryAfterMillis()
	return err
}

// Batch answers many requests concurrently through the worker pool and
// returns responses in request order. Each response carries its own Err;
// Batch itself only fails fast on a closed service or a dead context.
// Submission is bounded by QueueDepth in-flight goroutines, and stops as
// soon as ctx ends: the remaining requests are answered in place with the
// context's error code instead of each paying a goroutine to discover it.
// The bound is the queue's, not the pool's: a submitter receives its
// answer, and frees its slot, before the worker that sent the answer is
// back for the next job, so at times the queue alone holds every
// submission in flight, and one more would be shed as "queue full".
func (s *Service) Batch(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	sem := make(chan struct{}, s.opts.QueueDepth)
	var wg sync.WaitGroup
	for i := 0; i < len(reqs); i++ {
		// The explicit Err check makes a pre-cancelled context
		// deterministic (select would pick randomly between the two ready
		// cases and sometimes spawn one more goroutine).
		if ctx.Err() != nil {
			s.failRemaining(ctx, reqs, out, i)
			break
		}
		select {
		case sem <- struct{}{}:
			// select picks randomly among ready cases, so a slot can win
			// the race against an already-dead context; re-check so an
			// expired batch never submits more work to the pool.
			if ctx.Err() != nil {
				<-sem
				s.failRemaining(ctx, reqs, out, i)
				wg.Wait()
				return out
			}
		case <-ctx.Done():
			s.failRemaining(ctx, reqs, out, i)
			wg.Wait()
			return out
		}
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = s.Query(ctx, req)
		}(i, reqs[i])
	}
	wg.Wait()
	return out
}

// Warm pre-computes the requested sources through the regular query path
// (worker pool, cache fills, diagonal index fills) and reports how many
// completed. Warming is cumulative and idempotent — already-cached sources
// are hits, not recomputations — and an Update mid-warm simply leaves the
// new epoch partially warmed (the warmed chunks of the old epoch are
// unreachable by construction). Callers bound the work with ctx.
func (s *Service) Warm(ctx context.Context, wr WarmRequest) WarmResponse {
	st := s.state.Load()
	s.closeMu.RLock()
	closed := s.closed
	s.closeMu.RUnlock()
	if closed {
		return WarmResponse{GraphEpoch: st.epoch, Err: ToError(ErrServiceClosed)}
	}
	if wr.TopDegree < 0 {
		return WarmResponse{GraphEpoch: st.epoch, Err: Errorf(CodeInvalidArgument,
			"exactsim: negative top_degree %d", wr.TopDegree)}
	}
	sources := wr.Sources
	if len(sources) == 0 {
		k := wr.TopDegree
		if k == 0 {
			k = DefaultWarmTopDegree
		}
		sources = topInDegreeSources(st.g, k)
	}
	reqs := make([]Request, len(sources))
	for i, src := range sources {
		// Warming is optional work by definition: it rides the background
		// class so a warm pass can never crowd out user-facing queries.
		reqs[i] = Request{Algorithm: wr.Algorithm, Source: src, Epsilon: wr.Epsilon,
			Priority: PriorityBackground}
	}
	var out WarmResponse
	for _, resp := range s.Batch(ctx, reqs) {
		if resp.Err != nil {
			out.Failed++
		} else {
			out.Warmed++
		}
	}
	// Report the epoch current *after* the pass — queries run on whatever
	// generation is live when they execute, so an Update mid-warm means
	// the final epoch is the (partially) warmed one, not the epoch the
	// hub selection saw.
	out.GraphEpoch = s.state.Load().epoch
	return out
}

// topInDegreeSources picks the k highest in-degree nodes (ties broken by
// lower id, via the TopK ordering contract) — the cheap structural proxy
// for high-π nodes.
func topInDegreeSources(g *Graph, k int) []NodeID {
	deg := make([]float64, g.N())
	for v := range deg {
		deg[v] = float64(g.InDegree(NodeID(v)))
	}
	entries := TopKOf(deg, k, -1)
	sources := make([]NodeID, len(entries))
	for i, e := range entries {
		sources[i] = e.Idx
	}
	return sources
}

// failRemaining answers reqs[from:] with ctx's error, keeping the
// counters consistent with the path where each would have gone through
// Query.
func (s *Service) failRemaining(ctx context.Context, reqs []Request, out []Response, from int) {
	st := s.state.Load()
	cerr := ToError(ctx.Err())
	for j := from; j < len(reqs); j++ {
		out[j] = Response{Request: reqs[j], GraphEpoch: st.epoch, Err: cerr}
		s.count(out[j])
	}
}

func (s *Service) worker() {
	defer s.workers.Done()
	for {
		job, ok := s.queue.pop()
		if !ok {
			return
		}
		// A deadline that expired while the job queued is answered here,
		// without computing: queued-but-expired work executing anyway is
		// exactly the overload death spiral this layer exists to break.
		if err := job.ctx.Err(); err != nil || deadlineSpent(job.ctx) {
			if err == nil {
				err = context.DeadlineExceeded
			}
			if errors.Is(err, context.DeadlineExceeded) {
				s.deadlineRejected.Add(1)
			}
			job.resp <- s.fail(job.st, job.req, ToError(err))
			continue
		}
		// The CPU goes back before the answer does, so a caller holding
		// its answer never reads itself in in_flight.
		s.lender.Hold()
		resp := s.execute(job.ctx, job.st, job.req, job.emit)
		s.lender.Release()
		job.resp <- resp
	}
}

func (s *Service) execute(ctx context.Context, st *graphState, req Request, emit func(Response)) (resp Response) {
	// A panicking algorithm costs its request a CodeInternal response,
	// not the process its life: the worker must survive to drain the
	// queue, and a fleet replica must stay pollable so the router can
	// keep routing around the poisoned query. The stack is captured into
	// stats (panics_recovered / last_panic) and the process log.
	defer func() {
		if v := recover(); v != nil {
			resp = s.fail(st, req, s.recordPanic("query", v))
		}
	}()
	// Anytime serving: error-driven algorithms asked to stream, or to
	// allow a partial answer under a deadline, refine along the accuracy
	// tier ladder instead of computing the target in one shot.
	_, hasDeadline := ctx.Deadline()
	if plan.ErrorDriven(req.Algorithm) && (emit != nil || (req.AllowPartial && hasDeadline)) {
		if tiers := st.planner.Tiers(req.Epsilon); len(tiers) > 1 {
			return s.executeLadder(ctx, st, req, emit, tiers)
		}
	}
	q, err := s.querier(ctx, st, req.Algorithm, req.Epsilon)
	if err != nil {
		return s.fail(st, req, ToError(err))
	}
	start := time.Now()
	res, err := q.SingleSource(ctx, req.Source)
	if err != nil {
		return s.fail(st, req, ToError(err))
	}
	st.planner.Observe(req.Algorithm, req.Epsilon, time.Since(start))
	return s.respond(st, req, res, false)
}

// executeLadder evaluates req coarse→target along tiers (the last tier is
// req.Epsilon verbatim, so the terminal answer — and the memo entry it
// fills — is byte-identical to the one-shot path). Intermediate tiers go
// to emit as Partial records; a deadline firing mid-ladder ships the best
// completed tier for AllowPartial requests and the plain coded error for
// everyone else (the strict contract survives streaming).
func (s *Service) executeLadder(ctx context.Context, st *graphState, req Request, emit func(Response), tiers []float64) Response {
	var (
		best    *QueryResult
		bestEps float64 // resolved epsilon best satisfies
		lastDur time.Duration
		lastEps float64 // raw tier value lastDur was measured at
	)
	bestSoFar := func(err error) bool {
		return best != nil && req.AllowPartial &&
			(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled))
	}
	for i, tier := range tiers {
		// Deadline checkpoint: before paying for a tighter tier, project
		// its cost from the last tier's measured latency scaled by the
		// cost model's growth ratio (×1.2 margin). A projection that
		// overshoots the remaining budget ships best-so-far now instead
		// of burning the remainder on work that cannot finish.
		if best != nil && req.AllowPartial {
			if dl, ok := ctx.Deadline(); ok {
				need := time.Duration(1.2 * float64(lastDur) * st.planner.Growth(req.Algorithm, lastEps, tier))
				if time.Until(dl) < need {
					return s.partial(st, req, best, bestEps)
				}
			}
		}
		q, err := s.querier(ctx, st, req.Algorithm, tier)
		if err != nil {
			if bestSoFar(err) {
				return s.partial(st, req, best, bestEps)
			}
			return s.fail(st, req, ToError(err))
		}
		start := time.Now()
		res, err := q.SingleSource(ctx, req.Source)
		if err != nil {
			if bestSoFar(err) {
				return s.partial(st, req, best, bestEps)
			}
			return s.fail(st, req, ToError(err))
		}
		dur := time.Since(start)
		st.planner.Observe(req.Algorithm, tier, dur)
		best, bestEps = res, st.planner.Effective(tier)
		lastDur, lastEps = dur, tier
		if i == len(tiers)-1 {
			break
		}
		if emit != nil {
			r := s.respond(st, req, res, false)
			r.Partial = true
			r.AchievedEpsilon = bestEps
			emit(r)
		}
	}
	return s.respond(st, req, best, false)
}

// partial ships the best completed tier at a deadline: a success-shaped
// answer flagged Partial with the error bound it actually met — the
// anytime contract's alternative to deadline_exceeded.
func (s *Service) partial(st *graphState, req Request, res *QueryResult, achieved float64) Response {
	resp := s.respond(st, req, res, false)
	resp.Partial = true
	resp.AchievedEpsilon = achieved
	s.partialResults.Add(1)
	return resp
}

// recordPanic converts a recovered panic value into the CodeInternal
// error the caller answers with, bumping the panics_recovered gauge and
// keeping the headline in last_panic. The full stack goes to the process
// log — it is operator material, too big (and too revealing) for a wire
// gauge.
func (s *Service) recordPanic(where string, v any) *Error {
	s.panics.Add(1)
	head := fmt.Sprintf("%s panic: %v", where, v)
	s.lastPanic.Store(&head)
	log.Printf("exactsim: recovered %s\n%s", head, debug.Stack())
	return Errorf(CodeInternal, "exactsim: recovered %s", head)
}

func (s *Service) respond(st *graphState, req Request, res *QueryResult, hit bool) Response {
	resp := Response{Request: req, Result: res, CacheHit: hit, GraphEpoch: st.epoch}
	if req.K > 0 {
		resp.TopK = TopKOf(res.Scores, req.K, req.Source)
	}
	return resp
}

func (s *Service) fail(st *graphState, req Request, err *Error) Response {
	return Response{Request: req, GraphEpoch: st.epoch, Err: err}
}

// querier returns st's shared querier for (algorithm, ε). The first
// request for a key leads its build, which runs under the service's
// lifetime context — deliberately NOT the request's: a short per-request
// deadline must not abort (and so force endless retries of) an index
// build that later requests need. Every request waits on the build under
// its own ctx, so a worker is released at its request's deadline even
// while the build continues. A failed build is forgotten, so a later
// request retries it.
func (s *Service) querier(ctx context.Context, st *graphState, algorithm string, epsilon float64) (Querier, error) {
	e, leader := st.queriers.claim(querierKey{algorithm: algorithm, epsilon: epsilon})
	if leader {
		go s.build(st, e)
	}
	b, _, err := e.wait(ctx)
	if err != nil {
		return nil, err
	}
	return b.q, b.err
}

// build constructs the querier e's key names over st's graph and
// finishes e, keeping it only when the build succeeded. Every querier of one
// generation shares that generation's diagonal sample index: queriers
// differing only in ε draw identical chunk streams, so one warm index
// serves them all.
func (s *Service) build(st *graphState, e *memoEntry[querierKey, built]) {
	var b built
	// The recover runs before finish, so the waiters of a panicked build
	// see its CodeInternal error, and the key is forgotten so a later
	// request can retry the build.
	defer func() {
		if v := recover(); v != nil {
			b = built{err: s.recordPanic("querier build", v)}
		}
		st.queriers.finish(e, b, b.err == nil)
	}()
	opts := append([]QuerierOption(nil), s.opts.QuerierOptions...)
	if e.key.epsilon != 0 {
		opts = append(opts, WithEpsilon(e.key.epsilon))
	}
	if st.diagIdx != nil {
		opts = append(opts, WithDiagIndex(st.diagIdx))
	}
	// ExactSim queriers borrow the workers' idle CPUs; the other
	// algorithms never read the field.
	opts = append(opts, func(cfg *algo.Config) { cfg.Lender = s.lender })
	b.q, b.err = NewQuerierCtx(s.buildCtx, e.key.algorithm, st.g, opts...)
}

// Stats returns a snapshot of the service counters and gauges.
func (s *Service) Stats() ServiceStats {
	st := s.state.Load()
	sheds, codelDrops, sojourn := s.queue.dropStats()
	out := ServiceStats{
		Queries:            s.queries.Load(),
		CacheHits:          s.cacheHits.Load(),
		Errors:             s.errors.Load(),
		CachedResults:      st.answers.len(),
		QueueDepth:         s.queue.depth(),
		InFlight:           s.lender.Running(),
		CPUsLent:           s.lender.Lent(),
		Queriers:           st.queriers.len(),
		GraphEpoch:         st.epoch,
		ShedQueries:        sheds,
		CoDelDrops:         codelDrops,
		DeadlineRejected:   s.deadlineRejected.Load(),
		DegradedQueries:    s.degradedQueries.Load(),
		BrownoutActive:     s.queue.overloaded(),
		QueueSojournMicros: sojourn.Microseconds(),
		AutoPlanned:        s.autoPlanned.Load(),
		PartialResults:     s.partialResults.Load(),
		PanicsRecovered:    s.panics.Load(),
	}
	if p := s.lastPanic.Load(); p != nil {
		out.LastPanic = *p
	}
	if st.diagIdx != nil {
		ds := st.diagIdx.Stats()
		out.DiagIndexEnabled = true
		out.DiagHits = ds.Hits
		out.DiagMisses = ds.Misses
		if looked := ds.Hits + ds.Misses; looked > 0 {
			out.DiagHitRate = float64(ds.Hits) / float64(looked)
		}
		out.DiagEvictions = ds.Evictions
		out.DiagChunks = ds.Chunks
		out.DiagExplores = ds.Explores
		out.DiagResidentBytes = ds.ResidentBytes
		out.DiagBudgetBytes = ds.BudgetBytes
	}
	return out
}

// Graph returns the current graph generation's snapshot.
func (s *Service) Graph() *Graph { return s.state.Load().g }

// Epoch returns the current graph epoch (starts at 1, incremented by
// every Update).
func (s *Service) Epoch() uint64 { return s.state.Load().epoch }

// DefaultAlgorithm returns the algorithm answering requests with an empty
// Algorithm field — AlgorithmAuto unless ServiceOptions pinned a concrete
// method.
func (s *Service) DefaultAlgorithm() string { return s.opts.DefaultAlgorithm }

// Closed reports whether Close has been called. Transports use it for
// readiness: a closed service rejects every query, so it must stop
// advertising itself to routers.
func (s *Service) Closed() bool {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	return s.closed
}

// Close stops the workers, aborts in-flight index builds and rejects
// further queries. It blocks until in-flight queries finish; Close is
// idempotent.
func (s *Service) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.queue.close()
	s.closeMu.Unlock()
	s.cancelBuild()
	s.workers.Wait()
	if s.graphCloser != nil {
		// Snapshot-opened services own their graph's mmap'd mapping;
		// release it only after every in-flight query AND snapshot
		// stream has drained. The graph (and slices derived from it)
		// must not be used after Close.
		s.snapshots.Wait()
		s.graphCloser.Close()
	}
}

package exactsim

import (
	"context"
	"errors"
	"io"
	"runtime"
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

// defaultWarmTopDegree is the hub count warmed by a WarmRequest that
// names neither sources nor a TopDegree.
const defaultWarmTopDegree = 32

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

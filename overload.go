package exactsim

import (
	"context"
	"math"
	"sync"
	"time"
)

// Priority is a request's overload class. Under pressure the Service
// sheds classes in reverse order — background first, interactive last —
// so pre-warming and clone traffic can never crowd out a user-facing
// query. The zero value ("") means interactive: unmarked traffic is
// assumed to have a human waiting on it.
type Priority string

const (
	// PriorityInteractive is user-facing traffic: served first, shed
	// last. Empty Priority fields normalize to this class.
	PriorityInteractive Priority = "interactive"
	// PriorityBatch is throughput traffic (offline batches, analytics):
	// served after interactive, shed before it.
	PriorityBatch Priority = "batch"
	// PriorityBackground is optional work — Warm prefetch, clone-driven
	// fills — shed first whenever anything else wants the slot.
	PriorityBackground Priority = "background"
)

// Rank maps a Priority onto its queue class (0 = most urgent). The
// second result is false for unknown class names, which the Service
// rejects as invalid_argument rather than guessing a class; a router
// ranks them 0 and leaves the rejection to the replica.
func (p Priority) Rank() (int, bool) {
	switch p {
	case "", PriorityInteractive:
		return 0, true
	case PriorityBatch:
		return 1, true
	case PriorityBackground:
		return 2, true
	}
	return 0, false
}

// display is the class name with the zero value spelled out.
func (p Priority) display() Priority {
	if p == "" {
		return PriorityInteractive
	}
	return p
}

// Expired is the admission rule every tier applies before it does work
// for a request: the protocol error for a context that is done, or whose
// deadline has already passed on the wall clock (deadline_exceeded), and
// nil while budget remains. The wall-clock half is deliberately stricter
// than ctx.Err(): the runtime timer that cancels a context can fire
// milliseconds late on a loaded scheduler, and a tier that waited for it
// would do work whose budget is provably gone.
func Expired(ctx context.Context) *Error {
	if err := ctx.Err(); err != nil {
		return ToError(err)
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return ToError(context.DeadlineExceeded)
	}
	return nil
}

// numPriorities is the queue class count (rank 0..numPriorities-1).
const numPriorities = 3

const (
	// defaultQueueTarget is the CoDel sojourn target: queueing above this
	// for a full window means the pool is behind, not merely bursty.
	defaultQueueTarget = 5 * time.Millisecond
	// defaultQueueWindow is the CoDel interval — how long sojourn must
	// stay above target before head drops begin, and the sliding horizon
	// of the overload signal.
	defaultQueueWindow = 100 * time.Millisecond
)

// queueDropReason says why the queue ejected a job without running it.
type queueDropReason int

const (
	// dropShed: the queue was full and this job was the cheapest loss
	// (either the incoming job, or a queued lower-class victim evicted to
	// make room for a more urgent arrival).
	dropShed queueDropReason = iota
	// dropCoDel: sojourn time stayed over target for a full window, so
	// the queue is standing, not bursting — oldest-first drops shorten it
	// (dropping from the tail would keep serving stale work forever).
	// Only deadline-bearing jobs are eligible: a caller with no deadline
	// asked to wait however long it takes, so ejecting it would turn a
	// slow answer into a wrong one.
	dropCoDel
)

// serviceQueue replaces the single FIFO jobs channel: three bounded
// per-class FIFOs drained strictly by class (interactive before batch
// before background), with class-aware shedding on overflow and
// CoDel-style age-based head drop once standing sojourn exceeds the
// target for a window. All state is guarded by mu; onDrop is invoked
// outside the lock and must answer the job (exactly once — a dropped job
// is no longer reachable by any worker).
type serviceQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	capacity int
	closed   bool
	classes  [numPriorities][]*serviceJob
	size     int

	target time.Duration // CoDel sojourn target; <=0 disables age drops
	window time.Duration // CoDel interval / overload horizon

	// CoDel control-law state (Nichols & Jacobson): first-above-target
	// timestamp, whether we are in the dropping state, and the next drop
	// time advancing as window/sqrt(dropCount).
	aboveSince time.Time
	dropping   bool
	dropNext   time.Time
	dropCount  int

	// lastShed timestamps the most recent overflow shed — together with
	// the dropping state it forms the "sustained overload" signal.
	lastShed time.Time

	// sojournEWMA smooths observed queue dwell (α = 1/8); it sizes the
	// retry_after_ms hint shed responses carry.
	sojournEWMA time.Duration

	sheds      int64
	codelDrops int64

	onDrop func(*serviceJob, queueDropReason)
}

func newServiceQueue(capacity int, target, window time.Duration, onDrop func(*serviceJob, queueDropReason)) *serviceQueue {
	q := &serviceQueue{capacity: capacity, target: target, window: window, onDrop: onDrop}
	q.cond = sync.NewCond(&q.mu)
	return q
}

type pushVerdict int

const (
	pushOK pushVerdict = iota
	pushShed
	pushClosed
)

// push enqueues job, shedding class-aware on overflow: a full queue
// evicts the newest job of the lowest class strictly below the incoming
// one (background loses its slot to batch, both lose to interactive);
// when nothing queued is lower, the incoming job itself is shed. The
// submitter learns its own fate from the verdict; an evicted victim is
// answered through onDrop.
func (q *serviceQueue) push(job *serviceJob) pushVerdict {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return pushClosed
	}
	var victim *serviceJob
	if q.size >= q.capacity {
		q.lastShed = time.Now()
		q.sheds++
		for c := numPriorities - 1; c > job.pri; c-- {
			if n := len(q.classes[c]); n > 0 {
				victim = q.classes[c][n-1]
				q.classes[c][n-1] = nil
				q.classes[c] = q.classes[c][:n-1]
				q.size--
				break
			}
		}
		if victim == nil {
			q.mu.Unlock()
			return pushShed
		}
	}
	q.classes[job.pri] = append(q.classes[job.pri], job)
	q.size++
	q.cond.Signal()
	q.mu.Unlock()
	if victim != nil {
		q.onDrop(victim, dropShed)
	}
	return pushOK
}

// pop blocks until a job is available (or the queue is closed and
// drained) and returns the head of the highest-priority nonempty class.
// Dequeue is where CoDel acts: the popped job's sojourn feeds the
// control law, and when a drop fires the victim is the oldest
// deadline-bearing job of the least-urgent nonempty class — work whose
// loss hurts least and whose caller bounded its wait anyway. The popped
// job itself is dropped only when nothing cheaper is droppable and it
// carries a deadline of its own; when the whole backlog is unbounded
// waiters, the control law stays armed but no job is lost.
func (q *serviceQueue) pop() (*serviceJob, bool) {
	q.mu.Lock()
	for {
		for q.size == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.size == 0 {
			q.mu.Unlock()
			return nil, false
		}
		job := q.dequeueLocked(0)
		now := time.Now()
		sojourn := now.Sub(job.enq)
		q.observeLocked(sojourn)
		if !q.codelDropLocked(sojourn, now) {
			q.mu.Unlock()
			return job, true
		}
		if victim := q.codelVictimLocked(job.pri + 1); victim != nil {
			q.codelDrops++
			q.mu.Unlock()
			q.onDrop(victim, dropCoDel)
			return job, true
		}
		if job.deadline {
			q.codelDrops++
			q.mu.Unlock()
			q.onDrop(job, dropCoDel)
			q.mu.Lock()
			continue
		}
		q.mu.Unlock()
		return job, true
	}
}

// codelVictimLocked removes and returns the oldest deadline-bearing job
// of the least-urgent nonempty class at or below minClass urgency; nil
// when nothing queued there is droppable (deadline-free callers wait out
// any backlog — CoDel never ejects them).
func (q *serviceQueue) codelVictimLocked(minClass int) *serviceJob {
	for c := numPriorities - 1; c >= minClass; c-- {
		cls := q.classes[c]
		for i, job := range cls {
			if !job.deadline {
				continue
			}
			copy(cls[i:], cls[i+1:])
			cls[len(cls)-1] = nil
			q.classes[c] = cls[:len(cls)-1]
			q.size--
			return job
		}
	}
	return nil
}

// dequeueLocked removes and returns the head (oldest) job of the first
// nonempty class at or below minClass urgency; nil when none.
func (q *serviceQueue) dequeueLocked(minClass int) *serviceJob {
	for c := minClass; c < numPriorities; c++ {
		cls := q.classes[c]
		if len(cls) == 0 {
			continue
		}
		job := cls[0]
		cls[0] = nil
		if len(cls) == 1 {
			q.classes[c] = nil // release the drifting backing array
		} else {
			q.classes[c] = cls[1:]
		}
		q.size--
		return job
	}
	return nil
}

// observeLocked folds one dequeued sojourn into the EWMA (α = 1/8).
func (q *serviceQueue) observeLocked(sojourn time.Duration) {
	if q.sojournEWMA == 0 {
		q.sojournEWMA = sojourn
		return
	}
	q.sojournEWMA += (sojourn - q.sojournEWMA) / 8
}

// codelDropLocked runs the CoDel control law on one dequeue: drops begin
// after sojourn stays above target for a full window and then accelerate
// as window/sqrt(count) until a below-target dequeue resets the state.
func (q *serviceQueue) codelDropLocked(sojourn time.Duration, now time.Time) bool {
	if q.target <= 0 {
		return false
	}
	if sojourn < q.target {
		q.aboveSince = time.Time{}
		q.dropping = false
		q.dropCount = 0
		return false
	}
	if q.aboveSince.IsZero() {
		q.aboveSince = now
		return false
	}
	if !q.dropping {
		if now.Sub(q.aboveSince) < q.window {
			return false
		}
		q.dropping = true
		q.dropCount = 1
		q.dropNext = now.Add(codelInterval(q.window, 1))
		return true
	}
	if now.Before(q.dropNext) {
		return false
	}
	q.dropCount++
	q.dropNext = now.Add(codelInterval(q.window, q.dropCount))
	return true
}

// codelInterval is the inter-drop spacing: window/sqrt(count), so the
// drop rate ramps gently instead of cliff-dropping the queue.
func codelInterval(window time.Duration, count int) time.Duration {
	return time.Duration(float64(window) / math.Sqrt(float64(count)))
}

// overloaded is the overload signal (the brownout_active gauge, and the
// planner's overload trigger for AllowDegraded requests): the queue is
// in the CoDel dropping state, or an overflow shed happened within the
// last window. Both mean demand has exceeded capacity for a sustained
// stretch, not one burst.
func (q *serviceQueue) overloaded() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropping || (!q.lastShed.IsZero() && time.Since(q.lastShed) <= q.window)
}

// retryAfter sizes the retry_after_ms hint on shed responses: twice the
// smoothed sojourn (the backlog should have moved by then), floored at
// the sojourn target (10ms when age drops are off), capped at 1s.
func (q *serviceQueue) retryAfter() time.Duration {
	q.mu.Lock()
	hint := 2 * q.sojournEWMA
	floor := q.target
	q.mu.Unlock()
	if floor <= 0 {
		floor = 10 * time.Millisecond
	}
	return min(max(hint, floor), time.Second)
}

// expectedDwell is the planner's queue-pressure input: the smoothed
// sojourn a newly admitted job should expect to wait before a worker
// touches it. Flexible "auto" plans charge it against the request's
// deadline budget, so a request arriving behind a standing backlog is
// planned as if its deadline were already that much shorter.
func (q *serviceQueue) expectedDwell() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sojournEWMA
}

// depth reports the queued job count.
func (q *serviceQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// dropStats snapshots the shed/CoDel counters and the smoothed sojourn.
func (q *serviceQueue) dropStats() (sheds, codelDrops int64, sojourn time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sheds, q.codelDrops, q.sojournEWMA
}

// close wakes every waiting worker; queued jobs are still drained (pop
// keeps returning them until the queue empties), matching the channel
// semantics this queue replaced. Pushes after close report pushClosed.
func (q *serviceQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
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
	// pri is the validated queue class (Priority.Rank); enq timestamps
	// admission, feeding sojourn accounting and CoDel; deadline records
	// whether ctx bounds the wait — only deadline-bearing jobs are
	// eligible for CoDel age drops.
	pri      int
	enq      time.Time
	deadline bool
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
	if err := s.admit(ctx); err != nil {
		return s.fail(st, req, err)
	}

	pri, _ := req.Priority.Rank() // validated in query()
	_, hasDeadline := ctx.Deadline()
	job := &serviceJob{ctx: ctx, st: st, req: req, resp: make(chan Response, 1), emit: emit,
		pri: pri, enq: time.Now(), deadline: hasDeadline}
	switch s.queue.push(job) {
	case pushClosed:
		return s.fail(st, req, ToError(ErrServiceClosed))
	case pushShed:
		return s.fail(st, req, s.shedError(req.Priority, dropShed))
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

// admit applies the admission rule (Expired) to a job's context: at the
// door, before the job costs a queue slot, and again when a worker pops
// it, for budgets that died in the queue. Each deadline rejection counts
// in deadline_rejected.
func (s *Service) admit(ctx context.Context) *Error {
	e := Expired(ctx)
	if e != nil && e.Code == CodeDeadlineExceeded {
		s.deadlineRejected.Add(1)
	}
	return e
}

// dropJob answers a job the queue ejected (overflow shed or CoDel age
// drop). It runs on whichever goroutine triggered the drop; the response
// channel is buffered, so the send never blocks even when the submitter
// already gave up on its context.
func (s *Service) dropJob(job *serviceJob, reason queueDropReason) {
	job.resp <- s.fail(job.st, job.req, s.shedError(job.req.Priority, reason))
}

// shedError is the answer to a request the full queue turned away at the
// door, or to a queued job it ejected: a retryable unavailable carrying
// the retry_after_ms hint.
func (s *Service) shedError(pri Priority, reason queueDropReason) *Error {
	what := "shed: queue full"
	if reason == dropCoDel {
		what = "dropped: queue dwell over target (CoDel)"
	}
	return Errorf(CodeUnavailable, "exactsim: %s query %s", pri.display(), what).
		WithRetryAfter(s.queue.retryAfter())
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
		if err := s.admit(job.ctx); err != nil {
			job.resp <- s.fail(job.st, job.req, err)
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

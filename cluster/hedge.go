package cluster

import (
	"sort"
	"sync"
	"time"
)

// latencyTracker keeps a sliding window of recent successful query
// latencies and answers quantile questions about them — the signal that
// decides when a request has become a straggler worth hedging. A fixed
// ring buffer bounds both memory and the horizon: old traffic stops
// influencing the hedge delay after windowSize fresh samples.
type latencyTracker struct {
	mu     sync.Mutex
	buf    []time.Duration
	next   int
	filled bool

	// quantile cache: recomputed lazily every recomputeEvery records
	// instead of sorting the window on every query's hot path.
	sinceSort int
	sorted    []time.Duration
}

const (
	// trackerWindow is the sample window; big enough that one burst of
	// fast cache hits doesn't erase the tail, small enough to adapt when
	// the fleet's latency regime shifts.
	trackerWindow = 512
	// trackerMinSamples gates hedging until the tracker has seen enough
	// traffic to know what "slow" means; before that no hedge fires.
	trackerMinSamples = 16
	// trackerRecompute bounds how stale the cached sorted window may be.
	trackerRecompute = 32
)

func newLatencyTracker() *latencyTracker {
	return &latencyTracker{buf: make([]time.Duration, 0, trackerWindow)}
}

// record adds one observed latency.
func (t *latencyTracker) record(d time.Duration) {
	t.mu.Lock()
	if len(t.buf) < trackerWindow {
		t.buf = append(t.buf, d)
	} else {
		t.buf[t.next] = d
		t.next = (t.next + 1) % trackerWindow
		t.filled = true
	}
	t.sinceSort++
	t.mu.Unlock()
}

// quantile returns the q-quantile (0 < q < 1) of the window and true, or
// 0 and false while fewer than trackerMinSamples latencies have been
// recorded. The sorted view is cached and refreshed at most every
// trackerRecompute records.
func (t *latencyTracker) quantile(q float64) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) < trackerMinSamples {
		return 0, false
	}
	if t.sorted == nil || t.sinceSort >= trackerRecompute {
		t.sorted = append(t.sorted[:0], t.buf...)
		sort.Slice(t.sorted, func(i, j int) bool { return t.sorted[i] < t.sorted[j] })
		t.sinceSort = 0
	}
	idx := int(q * float64(len(t.sorted)))
	if idx >= len(t.sorted) {
		idx = len(t.sorted) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return t.sorted[idx], true
}

// samples reports how many latencies are currently in the window.
func (t *latencyTracker) samples() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

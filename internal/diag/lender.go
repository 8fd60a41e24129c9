package diag

import "sync/atomic"

// Lender lends the idle CPUs of a query worker pool to the diagonal phase
// of the queries running on it. A worker holds one CPU while it executes
// a query (Hold, Release). When BatchCtx starts with a Lender attached it
// borrows every idle CPU for a helper goroutine, which takes units from
// the same schedule as the run's own workers. A helper gives its CPU back
// at its next unit boundary once a query started after it wants the CPU,
// and otherwise when the run ends; BatchCtx joins every helper before it
// returns. A unit always runs whole on one goroutine and chunk meet counts
// merge as integers, so lending decides which goroutine runs a unit, never
// what the unit computes. Safe for concurrent use.
type Lender struct {
	cpus int64
	// state packs the queries holding a CPU (the high 32 bits) and the
	// helpers lent right now (the low 32 bits) into one word, so a borrow
	// or a reclaim reads both at once.
	state atomic.Int64
	// lent counts every helper ever lent.
	lent atomic.Int64
}

// heldOne is one query's share of Lender.state.
const heldOne = 1 << 32

// NewLender returns a lender over cpus CPUs (at least one).
func NewLender(cpus int) *Lender { return &Lender{cpus: int64(max(cpus, 1))} }

// Hold marks one more query computing. It never waits: a query started
// while helpers hold the idle CPUs takes one back at the helpers' next
// unit boundary.
func (l *Lender) Hold() { l.state.Add(heldOne) }

// Release ends one Hold.
func (l *Lender) Release() { l.state.Add(-heldOne) }

// Running reports the queries holding a CPU now.
func (l *Lender) Running() int { return int(l.state.Load() >> 32) }

// Lent reports how many helpers have been lent in total.
func (l *Lender) Lent() int64 { return l.lent.Load() }

// busy is the CPUs held by queries plus those lent to helpers in state s.
func busy(s int64) int64 { return s>>32 + s&(heldOne-1) }

// borrow takes an idle CPU for one helper, or reports false when every
// CPU is held or lent.
func (l *Lender) borrow() bool {
	for s := l.state.Load(); busy(s) < l.cpus; s = l.state.Load() {
		if l.state.CompareAndSwap(s, s+1) {
			l.lent.Add(1)
			return true
		}
	}
	return false
}

// reclaimed is a helper's check at a unit boundary: while queries and
// helpers together hold more CPUs than there are, it gives the calling
// helper's CPU back and reports true. One query over the count sends
// exactly one helper home.
func (l *Lender) reclaimed() bool {
	for s := l.state.Load(); busy(s) > l.cpus; s = l.state.Load() {
		if l.state.CompareAndSwap(s, s-1) {
			return true
		}
	}
	return false
}

// giveBack returns a helper's CPU when its run ends.
func (l *Lender) giveBack() { l.state.Add(-1) }

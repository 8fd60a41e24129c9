package exactsim

import (
	"container/list"
	"context"
	"sync"
)

// memo is a bounded LRU of single-flight entries: the Service's one
// mechanism for "compute a keyed value once, keep the recent ones". The
// first caller to claim a key leads: it computes the value and finishes
// the entry, while later claimants wait on it under their own contexts.
// A value the leader keeps joins the LRU, which holds at most cap of
// them; an entry still computing stays outside it, so it is never
// evicted. A value the leader does not keep (a failure, or an answer
// good only for its own caller) still reaches its waiters, and the key
// is forgotten, so the next claim leads again. Capacity ≤ 0 keeps
// nothing, yet waiters still receive their leader's value. Safe for
// concurrent use.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    list.List // kept entries; front = most recently used
	items map[K]*memoEntry[K, V]
}

// memoEntry is one key's value, or the promise of it while its leader
// computes.
type memoEntry[K comparable, V any] struct {
	key  K
	done chan struct{} // closed once val and keep are set
	val  V
	keep bool
	el   *list.Element // position in the LRU once kept
}

func newMemo[K comparable, V any](capacity int) *memo[K, V] {
	return &memo[K, V]{cap: capacity, items: make(map[K]*memoEntry[K, V])}
}

// get returns key's kept value, refreshing its recency.
func (m *memo[K, V]) get(key K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.items[key]; ok && e.el != nil {
		m.ll.MoveToFront(e.el)
		return e.val, true
	}
	var zero V
	return zero, false
}

// claim returns key's entry and whether the caller leads it. A leader
// must finish the entry; anyone else waits on it. Claiming a kept entry
// refreshes its recency.
func (m *memo[K, V]) claim(key K) (*memoEntry[K, V], bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.items[key]; ok {
		if e.el != nil {
			m.ll.MoveToFront(e.el)
		}
		return e, false
	}
	e := &memoEntry[K, V]{key: key, done: make(chan struct{})}
	m.items[key] = e
	return e, true
}

// finish hands the leader's value to e's waiters. A kept value joins the
// LRU, evicting the least recently used beyond capacity; otherwise the
// key is forgotten.
func (m *memo[K, V]) finish(e *memoEntry[K, V], val V, keep bool) {
	m.mu.Lock()
	e.val, e.keep = val, keep
	if keep && m.cap > 0 {
		e.el = m.ll.PushFront(e)
		for m.ll.Len() > m.cap {
			old := m.ll.Remove(m.ll.Back()).(*memoEntry[K, V])
			delete(m.items, old.key)
		}
	} else {
		delete(m.items, e.key)
	}
	m.mu.Unlock()
	close(e.done)
}

// put keeps val under key unless the key is present: kept already, or
// computing under a leader who will finish it.
func (m *memo[K, V]) put(key K, val V) {
	if e, leader := m.claim(key); leader {
		m.finish(e, val, true)
	}
}

// len reports the kept entries.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// wait blocks until e's leader finishes it, or ctx ends, and returns the
// leader's value and whether the leader chose to keep it.
func (e *memoEntry[K, V]) wait(ctx context.Context) (V, bool, error) {
	select {
	case <-e.done:
		return e.val, e.keep, nil
	case <-ctx.Done():
		var zero V
		return zero, false, ctx.Err()
	}
}

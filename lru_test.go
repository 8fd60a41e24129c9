package exactsim

import (
	"context"
	"errors"
	"testing"
)

// TestMemoFailureForgotten: a value the leader does not keep still
// reaches its waiters, flagged, and the key is forgotten, so the next
// claim leads.
func TestMemoFailureForgotten(t *testing.T) {
	m := newMemo[string, int](4)
	e, leader := m.claim("k")
	if !leader {
		t.Fatal("first claim does not lead")
	}
	w, leader := m.claim("k")
	if leader || w != e {
		t.Fatal("second claim of a computing key is not a waiter on its entry")
	}
	m.finish(e, 7, false)
	if v, keep, err := w.wait(context.Background()); err != nil || v != 7 || keep {
		t.Fatalf("waiter got (%d, %v, %v), want the leader's 7, not kept", v, keep, err)
	}
	if _, ok := m.get("k"); ok || m.len() != 0 {
		t.Fatalf("a failure was kept: %d entries", m.len())
	}
	if _, leader := m.claim("k"); !leader {
		t.Fatal("the claim after a failure does not lead")
	}
}

// TestMemoComputingNeverEvicted: capacity pressure evicts only finished
// entries; one still computing keeps its waiters and its key.
func TestMemoComputingNeverEvicted(t *testing.T) {
	m := newMemo[string, int](1)
	e, _ := m.claim("slow")
	m.put("a", 1)
	m.put("b", 2)
	if w, leader := m.claim("slow"); leader || w != e {
		t.Fatal("a computing entry was evicted")
	}
	if _, ok := m.get("a"); ok {
		t.Fatal("capacity 1 kept the older of two finished entries")
	}
	m.finish(e, 3, true)
	if v, ok := m.get("slow"); !ok || v != 3 || m.len() != 1 {
		t.Fatalf("finished entry: %d, %v with %d kept; want 3 kept alone", v, ok, m.len())
	}
}

// TestMemoZeroCapacity: capacity ≤ 0 keeps nothing, yet the leader's
// value still reaches its waiters.
func TestMemoZeroCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		m := newMemo[string, int](capacity)
		e, _ := m.claim("k")
		w, leader := m.claim("k")
		if leader {
			t.Fatalf("cap %d: a computing key was claimed twice", capacity)
		}
		m.finish(e, 5, true)
		if v, keep, err := w.wait(context.Background()); err != nil || v != 5 || !keep {
			t.Fatalf("cap %d: waiter got (%d, %v, %v), want the leader's 5", capacity, v, keep, err)
		}
		m.put("p", 6)
		if m.len() != 0 {
			t.Fatalf("cap %d keeps %d entries", capacity, m.len())
		}
		if _, leader := m.claim("k"); !leader {
			t.Fatalf("cap %d: a finished key was kept", capacity)
		}
	}
}

// TestMemoPutNeverReplaces: put leaves a present key alone, kept or
// still computing.
func TestMemoPutNeverReplaces(t *testing.T) {
	m := newMemo[string, int](4)
	m.put("k", 1)
	m.put("k", 2)
	if v, _ := m.get("k"); v != 1 {
		t.Fatalf("put replaced a kept value: %d", v)
	}
	e, _ := m.claim("c")
	m.put("c", 9)
	m.finish(e, 4, true)
	if v, _ := m.get("c"); v != 4 {
		t.Fatalf("put replaced a computing entry: %d", v)
	}
}

// TestMemoGetRefreshesRecency: a get moves its key to the front, so the
// next eviction takes the other one.
func TestMemoGetRefreshesRecency(t *testing.T) {
	m := newMemo[string, int](2)
	m.put("a", 1)
	m.put("b", 2)
	m.get("a")
	m.put("c", 3)
	if _, ok := m.get("a"); !ok {
		t.Fatal("the refreshed key was evicted")
	}
	if _, ok := m.get("b"); ok {
		t.Fatal("the least recently used key survived")
	}
}

// TestMemoWaitHonorsContext: a waiter gives up at its own context's end
// while the leader computes.
func TestMemoWaitHonorsContext(t *testing.T) {
	m := newMemo[string, int](1)
	m.claim("k")
	w, _ := m.claim("k")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := w.wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait under a dead context: %v", err)
	}
}

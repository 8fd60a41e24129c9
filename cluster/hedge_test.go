package cluster

import (
	"testing"
	"time"
)

func TestLatencyTrackerGatesUntilWarm(t *testing.T) {
	tr := newLatencyTracker()
	for i := 0; i < trackerMinSamples-1; i++ {
		tr.record(time.Millisecond)
		if _, ok := tr.quantile(0.95); ok {
			t.Fatalf("quantile available after only %d samples", i+1)
		}
	}
	tr.record(time.Millisecond)
	if _, ok := tr.quantile(0.95); !ok {
		t.Fatalf("quantile unavailable after %d samples", trackerMinSamples)
	}
}

func TestLatencyTrackerQuantiles(t *testing.T) {
	tr := newLatencyTracker()
	// 90 fast, 10 slow: p50 must look fast, p99 slow.
	for i := 0; i < 90; i++ {
		tr.record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		tr.record(100 * time.Millisecond)
	}
	p50, ok := tr.quantile(0.50)
	if !ok || p50 != time.Millisecond {
		t.Fatalf("p50 = %v ok=%v", p50, ok)
	}
	p99, ok := tr.quantile(0.99)
	if !ok || p99 != 100*time.Millisecond {
		t.Fatalf("p99 = %v ok=%v", p99, ok)
	}
}

func TestLatencyTrackerWindowSlides(t *testing.T) {
	tr := newLatencyTracker()
	// Fill the window with slow samples, then overwrite it entirely with
	// fast ones: the old regime must age out.
	for i := 0; i < trackerWindow; i++ {
		tr.record(time.Second)
	}
	for i := 0; i < trackerWindow+trackerRecompute; i++ {
		tr.record(time.Millisecond)
	}
	p99, ok := tr.quantile(0.99)
	if !ok || p99 != time.Millisecond {
		t.Fatalf("p99 after regime change = %v ok=%v", p99, ok)
	}
	if got := tr.samples(); got != trackerWindow {
		t.Fatalf("window holds %d samples, want %d", got, trackerWindow)
	}
}

func TestHedgeBudgetDefaultFundsConfiguredRate(t *testing.T) {
	// The Options default ties the earn rate to the hedge quantile: at
	// quantile q, ~((1-q)) of queries hedge, and each of the other ~q
	// earns 2×(1-q) — income ≈ 2× spend, so the configured hedge rate
	// self-funds at steady state instead of silently starving.
	var o Options
	o.HedgeQuantile = 0.95
	o.normalize()
	if got, want := o.HedgeBudgetRatio, 2*(1-0.95); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("defaulted HedgeBudgetRatio = %v, want %v", got, want)
	}
	if o.HedgeBudgetBurst != 16 {
		t.Fatalf("defaulted HedgeBudgetBurst = %d, want 16", o.HedgeBudgetBurst)
	}
}

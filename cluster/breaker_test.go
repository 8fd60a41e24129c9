package cluster_test

import (
	"context"
	"strings"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/cluster"
)

// breakerFleetOptions: manual polls, no hedging, no client-level retries
// — each router attempt is exactly one HTTP exchange, so the breaker's
// failure count maps 1:1 to failed attempts and the tests are
// deterministic.
func breakerFleetOptions(threshold int, cooldown time.Duration) cluster.Options {
	opts := manualPollOptions()
	opts.DisableHedging = true
	opts.ClientRetries = -1
	opts.BreakerThreshold = threshold
	opts.BreakerCooldown = cooldown
	return opts
}

func victimState(t *testing.T, r *cluster.Router, url string) (cluster.BackendStats, cluster.FleetStats) {
	t.Helper()
	st := r.Stats()
	for _, b := range st.Backends {
		if b.URL == url {
			return b, st
		}
	}
	t.Fatalf("backend %s missing from fleet stats", url)
	return cluster.BackendStats{}, st
}

// tripBreaker sends queries across a source spread until the victim's
// breaker has tripped. Every query must still succeed — the point of
// the breaker is that the surviving replica absorbs the traffic. It
// watches the trip count, not the state: the query that trips the
// breaker fails over to a replica computing a cold answer, and under
// -race that can outlast a short cooldown, so the state may already read
// half-open when the query returns.
func tripBreaker(t *testing.T, r *cluster.Router, victimURL string) {
	t.Helper()
	ctx := context.Background()
	before, _ := victimState(t, r, victimURL)
	for src := 0; src < 120; src++ {
		resp := r.Query(ctx, exactsim.Request{Source: exactsim.NodeID(src)})
		if resp.Err != nil {
			t.Fatalf("source %d lost while breaker forming: %v", src, resp.Err)
		}
		if bs, _ := victimState(t, r, victimURL); bs.BreakerTrips > before.BreakerTrips {
			return
		}
	}
	t.Fatal("breaker never tripped across 120 queries against a dead backend")
}

// TestRouterBreakerTripsAndPollRecovery: a flapping replica (membership
// still healthy — polls are withheld) trips its circuit breaker after
// BreakerThreshold consecutive transport failures; while open, queries
// skip it at pick() time instead of burning a failed attempt, and the
// rest of the fleet answers everything. A clean membership poll then
// closes the breaker immediately — long before the 10s cooldown — so a
// re-admitted replica is not benched twice.
func TestRouterBreakerTripsAndPollRecovery(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(200, 3, 21)
	svcOpts := exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	}
	members, urls := startFleet(t, g, 2, svcOpts)

	r, err := cluster.New(urls, breakerFleetOptions(3, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.HealthyBackends != 2 {
		t.Fatalf("precondition: %d healthy backends", st.HealthyBackends)
	}

	const victim = 1
	members[victim].gate.down.Store(true)
	tripBreaker(t, r, urls[victim])

	bs, fs := victimState(t, r, urls[victim])
	if bs.BreakerState != "open" {
		t.Fatalf("breaker state %q right after tripping, want open", bs.BreakerState)
	}
	if !bs.Healthy {
		t.Fatal("breaker test leaked into membership: victim ejected without a poll")
	}
	if bs.BreakerTrips < 1 || fs.BreakerTrips < 1 {
		t.Fatalf("trips not counted: backend=%d fleet=%d", bs.BreakerTrips, fs.BreakerTrips)
	}

	// With the breaker open, traffic flows without failed attempts:
	// pick() skips the victim outright.
	ctx := context.Background()
	skipsBefore := fs.BreakerSkips
	servedBefore := members[victim].svc.Stats().Queries
	for src := 0; src < 40; src++ {
		if resp := r.Query(ctx, exactsim.Request{Source: exactsim.NodeID(src)}); resp.Err != nil {
			t.Fatalf("source %d with breaker open: %v", src, resp.Err)
		}
	}
	bs, fs = victimState(t, r, urls[victim])
	if bs.BreakerState != "open" {
		t.Fatalf("breaker state %q mid-cooldown, want open", bs.BreakerState)
	}
	if fs.BreakerSkips <= skipsBefore {
		t.Fatal("open breaker never skipped the victim at pick() time")
	}
	if served := members[victim].svc.Stats().Queries; served != servedBefore {
		t.Fatalf("victim served %d queries through an open breaker", served-servedBefore)
	}

	// The replica recovers and a clean poll re-proves the transport: the
	// breaker must close NOW, not after the 10s cooldown.
	members[victim].gate.down.Store(false)
	r.Poll(ctx)
	bs, _ = victimState(t, r, urls[victim])
	if bs.BreakerState != "closed" {
		t.Fatalf("breaker state %q after clean poll, want closed", bs.BreakerState)
	}
	for src := 0; src < 60; src++ {
		if resp := r.Query(ctx, exactsim.Request{Source: exactsim.NodeID(src)}); resp.Err != nil {
			t.Fatalf("source %d after recovery: %v", src, resp.Err)
		}
	}
	if members[victim].svc.Stats().Queries == servedBefore {
		t.Fatal("recovered victim received no traffic")
	}
}

// TestRouterBreakerHalfOpenRecovery: with no membership poll at all, an
// open breaker recovers through its own half-open probe — cooldown
// elapses, one query is allowed through, it succeeds, the breaker
// closes, and traffic returns to the replica.
func TestRouterBreakerHalfOpenRecovery(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(200, 3, 23)
	svcOpts := exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	}
	members, urls := startFleet(t, g, 2, svcOpts)

	const cooldown = 150 * time.Millisecond
	r, err := cluster.New(urls, breakerFleetOptions(3, cooldown))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const victim = 0
	members[victim].gate.down.Store(true)
	tripBreaker(t, r, urls[victim])
	servedBefore := members[victim].svc.Stats().Queries

	// Replica comes back; NO poll happens. After the cooldown the next
	// query owned by the victim rides the half-open probe and closes it.
	members[victim].gate.down.Store(false)
	time.Sleep(cooldown + 50*time.Millisecond)

	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for src := 0; src < 40; src++ {
			if resp := r.Query(ctx, exactsim.Request{Source: exactsim.NodeID(src)}); resp.Err != nil {
				t.Fatalf("source %d during half-open recovery: %v", src, resp.Err)
			}
		}
		if bs, _ := victimState(t, r, urls[victim]); bs.BreakerState == "closed" {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	bs, _ := victimState(t, r, urls[victim])
	if bs.BreakerState != "closed" {
		t.Fatalf("breaker state %q, probe recovery never closed it", bs.BreakerState)
	}
	if members[victim].svc.Stats().Queries == servedBefore {
		t.Fatal("victim served nothing after half-open recovery")
	}
}

// TestRouterAllBreakersOpen: when every healthy replica's breaker is
// open the router answers unavailable immediately with the distinct
// breaker message — operators can tell "fleet-wide transport flap" from
// "fleet saturated" in one glance.
func TestRouterAllBreakersOpen(t *testing.T) {
	g := exactsim.GenerateBarabasiAlbert(150, 3, 29)
	svcOpts := exactsim.ServiceOptions{
		Workers:        2,
		QuerierOptions: []exactsim.QuerierOption{exactsim.WithEpsilon(0.1), exactsim.WithSeed(1)},
	}
	members, urls := startFleet(t, g, 1, svcOpts)

	r, err := cluster.New(urls, breakerFleetOptions(3, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := context.Background()
	members[0].gate.down.Store(true)
	// Three failed attempts trip the only breaker; these queries fail
	// with the transport error (there is no second replica to absorb).
	for i := 0; i < 3; i++ {
		if resp := r.Query(ctx, exactsim.Request{Source: 1}); resp.Err == nil {
			t.Fatal("query against the dead sole replica succeeded")
		}
	}
	resp := r.Query(ctx, exactsim.Request{Source: 1})
	if resp.Err == nil || resp.Err.Code != exactsim.CodeUnavailable {
		t.Fatalf("want unavailable, got %+v", resp)
	}
	if !strings.Contains(resp.Err.Error(), "circuit breakers open") {
		t.Fatalf("error %q does not carry the breaker diagnosis", resp.Err)
	}
	if st := r.Stats(); st.Shed != 0 {
		t.Fatalf("breaker rejection miscounted as shed (%d)", st.Shed)
	}
}

package cluster

import (
	"time"

	exactsim "github.com/exactsim/exactsim"
)

// FleetStats is the router's aggregated view of the fleet. It embeds an
// exactsim.ServiceStats whose counters and gauges are *sums* across the
// replicas' last-polled stats (GraphEpoch is the fleet max, DiagHitRate
// is recomputed from the summed hit/miss counters), so GET /v1/stats on
// a router decodes into the same ServiceStats shape clients already
// read — httpapi.Client.Stats works against a router unchanged — while
// the extra fields carry the fleet-level story.
type FleetStats struct {
	exactsim.ServiceStats

	// Backends is the per-replica detail, ordered as registered.
	Backends []BackendStats `json:"backends"`

	// HealthyBackends counts replicas currently admitted by membership.
	HealthyBackends int `json:"healthy_backends"`

	// RouterQueries / RouterErrors count requests through this router
	// (the embedded Queries/Errors sums are fleet-wide and include
	// traffic from other routers and direct clients).
	RouterQueries int64 `json:"router_queries"`
	RouterErrors  int64 `json:"router_errors"`
	// Retries counts failed attempts absorbed by the next ring
	// candidate; Hedged counts hedge launches, HedgeWins the hedges
	// whose answer arrived first; Shed counts queries rejected early
	// because every healthy replica was saturated.
	Retries   int64 `json:"retries"`
	Hedged    int64 `json:"hedged"`
	HedgeWins int64 `json:"hedge_wins"`
	// BackendRetries sums the same-replica retries each backend client
	// sends on its own (Options.ClientRetries), inside one of the
	// router's attempts; Retries does not count them.
	BackendRetries int64 `json:"backend_retries"`
	// HedgeSuppressed counts hedge timers that fired but found the hedge
	// token budget empty — speculative double-sends the router declined
	// because recent traffic had not banked enough successes.
	HedgeSuppressed int64 `json:"hedge_suppressed"`
	Shed            int64 `json:"shed"`
	// BreakerSkips counts attempts answered instantly from an open
	// circuit breaker instead of touching the wire; BreakerTrips sums
	// closed→open transitions across backends.
	BreakerSkips int64 `json:"breaker_skips"`
	BreakerTrips int64 `json:"breaker_trips"`
	// FailOpenPicks counts queries routed with every backend
	// poll-ejected (fail-open panic routing: the health prober may be
	// the failing component, so the ring is walked anyway).
	FailOpenPicks int64 `json:"fail_open_picks"`
	// HedgeDelayNanos is the current straggler threshold (0 until the
	// latency tracker has enough samples).
	HedgeDelayNanos int64 `json:"hedge_delay_ns"`
}

// BackendStats is one replica's slice of the fleet view.
type BackendStats struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// RouterInFlight is this router's in-wire query count against the
	// replica (the bounded-load signal).
	RouterInFlight int64 `json:"router_in_flight"`
	// Ejections counts healthy→unhealthy membership transitions.
	Ejections int64 `json:"ejections"`
	// BreakerState is the circuit breaker's current state: "closed",
	// "open", or "half-open" (cooldown elapsed, probe pending/in flight).
	BreakerState string `json:"breaker_state"`
	// BreakerTrips counts closed→open transitions.
	BreakerTrips int64 `json:"breaker_trips"`
	// LastPollError is the most recent poll failure ("" when the last
	// poll succeeded).
	LastPollError string `json:"last_poll_error,omitempty"`
	// Stats is the replica's last successfully polled snapshot (zero
	// before the first success).
	Stats exactsim.ServiceStats `json:"stats"`
}

// Stats assembles the fleet view from membership state and the latest
// poll snapshots — no network round trips, so it is cheap enough for a
// load balancer to scrape aggressively.
func (r *Router) Stats() FleetStats {
	backends := r.snapshot()
	out := FleetStats{
		RouterQueries:   r.queries.Load(),
		RouterErrors:    r.errors.Load(),
		Retries:         r.retries.Load(),
		Hedged:          r.hedged.Load(),
		HedgeWins:       r.hedgeWins.Load(),
		HedgeSuppressed: r.hedgeSuppressed.Load(),
		Shed:            r.shed.Load(),
		BreakerSkips:    r.breakerSkips.Load(),
		FailOpenPicks:   r.failOpen.Load(),
		Backends:        make([]BackendStats, 0, len(backends)),
	}
	now := time.Now()
	if d, ok := r.hedgeDelay(); ok {
		out.HedgeDelayNanos = d.Nanoseconds()
	}
	for _, b := range backends {
		bs := BackendStats{
			URL:            b.url,
			Healthy:        b.healthy.Load(),
			RouterInFlight: b.inflight.Load(),
			Ejections:      b.ejections.Load(),
		}
		bs.BreakerState, bs.BreakerTrips = b.brk.state(now, r.opts.BreakerCooldown)
		out.BreakerTrips += bs.BreakerTrips
		out.BackendRetries += b.client.RetryStats().Retries
		if msg := b.lastPollErr.Load(); msg != nil {
			bs.LastPollError = *msg
		}
		if st := b.stats.Load(); st != nil {
			bs.Stats = *st
			agg := &out.ServiceStats
			agg.Queries += st.Queries
			agg.CacheHits += st.CacheHits
			agg.Errors += st.Errors
			agg.CachedResults += st.CachedResults
			agg.QueueDepth += st.QueueDepth
			agg.InFlight += st.InFlight
			agg.CPUsLent += st.CPUsLent
			agg.Queriers += st.Queriers
			if st.GraphEpoch > agg.GraphEpoch {
				agg.GraphEpoch = st.GraphEpoch
			}
			agg.DiagIndexEnabled = agg.DiagIndexEnabled || st.DiagIndexEnabled
			agg.DiagHits += st.DiagHits
			agg.DiagMisses += st.DiagMisses
			agg.DiagEvictions += st.DiagEvictions
			agg.DiagChunks += st.DiagChunks
			agg.DiagExplores += st.DiagExplores
			agg.DiagResidentBytes += st.DiagResidentBytes
			agg.DiagBudgetBytes += st.DiagBudgetBytes
			// Overload counters sum across replicas; BrownoutActive ORs
			// (any replica degrading is fleet news) and the sojourn gauge
			// takes the worst replica — the one retry hints come from.
			agg.ShedQueries += st.ShedQueries
			agg.CoDelDrops += st.CoDelDrops
			agg.DeadlineRejected += st.DeadlineRejected
			agg.DegradedQueries += st.DegradedQueries
			agg.BrownoutActive = agg.BrownoutActive || st.BrownoutActive
			if st.QueueSojournMicros > agg.QueueSojournMicros {
				agg.QueueSojournMicros = st.QueueSojournMicros
			}
			agg.AutoPlanned += st.AutoPlanned
			agg.PartialResults += st.PartialResults
			agg.PanicsRecovered += st.PanicsRecovered
			if agg.LastPanic == "" {
				agg.LastPanic = st.LastPanic
			}
		}
		if bs.Healthy {
			out.HealthyBackends++
		}
		out.Backends = append(out.Backends, bs)
	}
	if looked := out.DiagHits + out.DiagMisses; looked > 0 {
		out.DiagHitRate = float64(out.DiagHits) / float64(looked)
	}
	return out
}

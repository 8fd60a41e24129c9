package cluster

import (
	"context"
	"io"
	"net/http"
	"strings"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/httpapi"
)

// ServerOptions bounds what one request to the router may cost. It is
// the replica's own type, so operators tune one model for both tiers.
type ServerOptions = httpapi.ServerOptions

// NewServer exposes r over the exactsim wire protocol through the same
// httpapi.Server a replica runs, so every existing client
// (httpapi.Client included) points at a fleet the way it pointed at one
// replica. /v1/query relays the serving replica's answer bytes,
// /v1/stats answers the aggregated FleetStats (a JSON superset of
// ServiceStats), and /v1/snapshot proxies the warmest replica's
// container, which is how a joining replica can clone from "the fleet"
// without knowing its members. The caller keeps ownership of r (and
// closes it).
func NewServer(r *Router, opts ServerOptions) *httpapi.Server {
	return httpapi.NewBackendServer(front{r}, opts)
}

// front is a Router as an httpapi.Backend; Router's own QueryStream,
// Batch and Warm serve those endpoints as they are.
type front struct{ *Router }

// Answer relays a replica's success as the replica wrote it, so the
// answer crosses this hop without a decode or a re-encode.
func (f front) Answer(ctx context.Context, req exactsim.Request) ([]byte, exactsim.Response) {
	return f.relay(ctx, req)
}

// StreamSnapshot proxies a snapshot container from the warmest healthy
// replica (the one with the most diag-index bytes resident), status and
// headers passed through — so `exactsimd -clone-from <router>`
// bootstraps a new replica without naming a peer.
func (f front) StreamSnapshot(ctx context.Context, w http.ResponseWriter) *exactsim.Error {
	b := f.warmestBackend()
	if b == nil {
		return errNoHealthy()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(b.url, "/")+"/v1/snapshot", nil)
	if err != nil {
		return exactsim.ToError(err)
	}
	res, err := f.httpClient().Do(req)
	if err != nil {
		return exactsim.Errorf(exactsim.CodeUnavailable, "cluster: %s: %v", b.url, err)
	}
	defer res.Body.Close()
	for _, h := range []string{"Content-Type", "X-Exactsim-Graph-Epoch"} {
		if v := res.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(res.StatusCode)
	// A copy failure mid-stream leaves a truncated body; the container
	// checksum fails on the client side, same as the single-replica path.
	io.Copy(w, res.Body)
	return nil
}

// AlgorithmsDoc re-serves the capability/cost surface of the first
// healthy replica — the fleet serves whatever its members serve, and
// replicas run the same registry, so one member speaks for all. The
// per-backend client caches the response, so steady-state scrapes cost
// no upstream round trip.
func (f front) AlgorithmsDoc(ctx context.Context) (httpapi.AlgorithmsResponse, *exactsim.Error) {
	for _, b := range f.snapshot() {
		if !b.healthy.Load() {
			continue
		}
		if ar, err := b.client.AlgorithmsInfo(ctx); err == nil {
			return ar, nil
		}
	}
	return httpapi.AlgorithmsResponse{}, errNoHealthy()
}

func (f front) StatsDoc() (any, *exactsim.ServiceStats) {
	fs := f.Stats()
	return &fs, &fs.ServiceStats
}

// NotReady holds back a router with no healthy replica behind it.
func (f front) NotReady() string {
	if f.Stats().HealthyBackends == 0 {
		return "no healthy backends"
	}
	return ""
}

// warmestBackend picks the healthy replica with the most diag-index
// bytes resident — the best clone source for a joiner.
func (r *Router) warmestBackend() *backend {
	var best *backend
	var bestBytes int64 = -1
	for _, b := range r.snapshot() {
		if !b.healthy.Load() {
			continue
		}
		var resident int64
		if st := b.stats.Load(); st != nil {
			resident = st.DiagResidentBytes
		}
		if resident > bestBytes {
			best, bestBytes = b, resident
		}
	}
	return best
}

// httpClient is the raw client used for proxied byte streams (the
// snapshot path bypasses httpapi.Client so headers can be forwarded
// before the body starts).
func (r *Router) httpClient() *http.Client {
	if r.opts.HTTPClient != nil {
		return r.opts.HTTPClient
	}
	return httpapi.SharedClient()
}

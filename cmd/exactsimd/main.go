// Command exactsimd serves SimRank queries over HTTP: an exactsim.Service
// wrapped by the httpapi transport, answering every registered algorithm
// on one graph with per-request deadlines, a result cache per graph
// generation and structured protocol errors.
//
// Usage:
//
//	exactsimd -dataset WV -scale 0.1 -addr :8640
//	exactsimd -graph edges.txt -undirected -eps 1e-4 -workers 8
//	exactsimd -ba-n 5000 -ba-k 4              # generated demo graph
//	exactsimd -snapshot warm.snap             # instant warm restart
//	exactsimd -clone-from http://peer:8640 -snapshot clone.snap   # join a fleet warm
//
// Then:
//
//	curl -s localhost:8640/v1/query -d '{"source":42,"k":5}'            # "auto" plans the method
//	curl -sN localhost:8640/v1/query/stream -d '{"source":42,"allow_partial":true,"timeout_ms":500}'
//	curl -s localhost:8640/v1/warm -d '{"top_degree":64}'
//	curl -s localhost:8640/v1/snapshot -o warm.snap
//	curl -s localhost:8640/v1/algorithms
//	curl -s localhost:8640/v1/stats
//	curl -s localhost:8640/healthz            # liveness
//	curl -s localhost:8640/readyz             # readiness (503 while draining)
//
// -warm N pre-computes the N highest in-degree sources before serving, so
// the diagonal sample index (see -diag-index-mb) starts hot and first-query
// latency drops.
//
// -save-snapshot writes the warm state (graph CSR + diagonal sample
// index) as a snapshot container after warming and again at graceful
// shutdown; -snapshot boots from one — the graph is mmap'd zero-copy and
// the index restored, so a restart (or a fresh fleet member fed a peer's
// /v1/snapshot download) answers its first query in microseconds instead
// of re-parsing and re-sampling.
//
// Saves rotate -snapshot-keep previous generations aside (path.1,
// path.2, …). A boot that finds the newest container damaged — torn
// write, bit rot; anything the checksums reject — renames it to
// <name>.quarantine, logs it, and boots the previous generation; with
// every generation damaged it falls back to a cold build from the graph
// flags. -fault / -fault-seed arm a deterministic fault schedule on the
// clone transport and snapshot writes for chaos drills.
//
// SIGINT/SIGTERM first fail /readyz for -drain (so routers reroute), then
// drain in-flight requests (5 s grace) before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/cluster"
	"github.com/exactsim/exactsim/httpapi"
	"github.com/exactsim/exactsim/internal/fault"
)

func main() {
	var (
		addr       = flag.String("addr", ":8640", "listen address")
		graphPath  = flag.String("graph", "", "edge-list file (SNAP format)")
		binary     = flag.Bool("binary", false, "-graph file is the repository's binary format")
		undirected = flag.Bool("undirected", false, "treat edge list as undirected")
		datasetKey = flag.String("dataset", "", "Table-2 dataset key (GQ, HT, WV, HP, DB, IC, IT, TW)")
		scale      = flag.Float64("scale", 1.0, "dataset scale in (0,1]")
		baN        = flag.Int("ba-n", 5000, "fallback generated graph: node count")
		baK        = flag.Int("ba-k", 4, "fallback generated graph: edges per node")
		algorithm  = flag.String("algorithm", exactsim.AlgorithmAuto,
			"default algorithm: auto (adaptive planner) | "+strings.Join(exactsim.Algorithms(), " | "))
		eps         = flag.Float64("eps", 1e-3, "service-wide error target (0 = each algorithm's own default)")
		seed        = flag.Uint64("seed", 1, "service-wide random seed")
		workers     = flag.Int("workers", 0, "query worker pool size (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "queued-query bound (0 = 4×workers)")
		cacheSize   = flag.Int("cache", 1024, "result LRU capacity (negative disables)")
		maxQueriers = flag.Int("max-queriers", 64, "retained (algorithm, ε) querier bound")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-query deadline (0 = none)")
		maxTimeout  = flag.Duration("max-timeout", 0, "clamp on client-requested timeouts (0 = none)")
		maxBatch    = flag.Int("max-batch", 4096, "per-call /v1/batch request bound")
		diagIndexMB = flag.Int64("diag-index-mb", 128, "diagonal sample index budget in MiB (negative disables)")
		warm        = flag.Int("warm", 0, "pre-warm this many top in-degree sources before serving (0 = none)")
		snapshot    = flag.String("snapshot", "", "boot from a snapshot container: mmap the graph and restore the diagonal sample index (see -save-snapshot and POST /v1/snapshot)")
		saveSnap    = flag.String("save-snapshot", "", "write a snapshot container here after warming, and again on graceful shutdown — the next boot with -snapshot starts warm")
		cloneFrom   = flag.String("clone-from", "", "bootstrap by cloning a warm peer (or router) first: download its /v1/snapshot to the -snapshot path, then boot from it")
		snapKeep    = flag.Int("snapshot-keep", 2, "previous snapshot generations kept beside -save-snapshot (path.1 … path.N); a boot that finds the newest corrupt quarantines it and falls back a generation")

		queueTarget = flag.Duration("queue-target", 0, "CoDel sojourn target of the priority queue: queued work dwelling above this for a full window is head-dropped (0 = 5ms default, negative disables age drops)")
		queueWindow = flag.Duration("queue-window", 0, "CoDel interval and overload-signal horizon (0 = 100ms default)")
		drain       = flag.Duration("drain", 0, "readiness-drain window before shutdown: /readyz answers 503 for this long so routers stop sending traffic before the listener closes")

		faultSpec = flag.String("fault", "", "deterministic fault injection on the clone transport and snapshot writes, e.g. 'reset=0.1,corrupt=0.02,torn=0.01' (see internal/fault)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed of the -fault schedule; the same seed replays the same chaos run")
	)
	flag.Parse()

	// -fault arms the seeded schedule on this daemon's fallible I/O: the
	// clone download rides the fault transport, and snapshot saves stream
	// through the corrupting/torn writer — which is exactly what the
	// quarantine boot path exists to absorb.
	var inj *fault.Injector
	if *faultSpec != "" {
		cfg, err := fault.ParseSpec(*faultSpec, *faultSeed)
		if err != nil {
			log.Fatalf("exactsimd: %v", err)
		}
		inj = fault.New(cfg)
		log.Printf("exactsimd: FAULT INJECTION ARMED: %s seed=%d", *faultSpec, *faultSeed)
	}

	if *cloneFrom != "" {
		if *snapshot == "" {
			log.Fatal("exactsimd: -clone-from needs -snapshot as the destination path")
		}
		var cloneOpts []httpapi.ClientOption
		if inj != nil {
			base := http.DefaultTransport.(*http.Transport).Clone()
			cloneOpts = append(cloneOpts, httpapi.WithHTTPClient(&http.Client{Transport: inj.Transport(base)}))
		}
		start := time.Now()
		n, epoch, err := cluster.CloneFromPeer(context.Background(), *cloneFrom, *snapshot, cloneOpts...)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("exactsimd: cloned %d KiB (epoch %d) from %s to %s in %v",
			n>>10, epoch, *cloneFrom, *snapshot, time.Since(start).Round(time.Millisecond))
	}

	var qopts []exactsim.QuerierOption
	if *eps > 0 {
		qopts = append(qopts, exactsim.WithEpsilon(*eps))
	}
	qopts = append(qopts, exactsim.WithSeed(*seed))
	diagBytes := *diagIndexMB << 20
	if *diagIndexMB < 0 {
		diagBytes = -1
	}
	svcOpts := exactsim.ServiceOptions{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheSize:        *cacheSize,
		MaxQueriers:      *maxQueriers,
		DefaultAlgorithm: *algorithm,
		DefaultTimeout:   *timeout,
		DiagIndexBytes:   diagBytes,
		QuerierOptions:   qopts,
		QueueTarget:      *queueTarget,
		QueueWindow:      *queueWindow,
	}
	if inj != nil {
		svcOpts.SnapshotWriteWrap = func(w io.Writer) io.Writer { return inj.Writer(w) }
	}

	var (
		svc  *exactsim.Service
		desc string
		err  error
	)
	if *snapshot != "" {
		start := time.Now()
		var rep *exactsim.BootReport
		svc, rep, err = exactsim.BootSnapshot(*snapshot, svcOpts)
		for _, q := range rep.Quarantined {
			log.Printf("exactsimd: QUARANTINED damaged snapshot generation: %s", q)
		}
		if err != nil {
			// Every generation failed (or none existed). The graph flags
			// are the cold-build fallback: slower, never warm, but serving.
			log.Printf("exactsimd: snapshot boot failed (tried %d generations): %v", len(rep.Tried), err)
			var g *exactsim.Graph
			g, desc, err = loadGraph(*graphPath, *binary, *undirected, *datasetKey, *scale, *baN, *baK, *seed)
			if err != nil {
				log.Fatal(err)
			}
			svc, err = exactsim.NewService(g, svcOpts)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("exactsimd: cold-built %s after snapshot fallback", desc)
			desc += " (cold fallback)"
		} else {
			st := svc.Stats()
			log.Printf("exactsimd: restored snapshot %s in %v — %d diag chunks + %d explorations resident (%d KiB)",
				rep.Opened, time.Since(start).Round(time.Millisecond),
				st.DiagChunks, st.DiagExplores, st.DiagResidentBytes>>10)
			desc = "snapshot " + rep.Opened
		}
	} else {
		var g *exactsim.Graph
		g, desc, err = loadGraph(*graphPath, *binary, *undirected, *datasetKey, *scale, *baN, *baK, *seed)
		if err != nil {
			log.Fatal(err)
		}
		svc, err = exactsim.NewService(g, svcOpts)
		if err != nil {
			log.Fatal(err)
		}
	}
	defer svc.Close()

	if *warm > 0 {
		start := time.Now()
		wr := svc.Warm(context.Background(), exactsim.WarmRequest{TopDegree: *warm})
		if wr.Err != nil {
			log.Fatalf("exactsimd: warm: %v", wr.Err)
		}
		st := svc.Stats()
		log.Printf("exactsimd: warmed %d sources in %v (%d failed) — %d diag chunks resident (%d KiB)",
			wr.Warmed, time.Since(start).Round(time.Millisecond), wr.Failed,
			st.DiagChunks, st.DiagResidentBytes>>10)
	}

	if *saveSnap != "" {
		saveSnapshot(svc, *saveSnap, *snapKeep)
	}

	api := httpapi.NewServer(svc, httpapi.ServerOptions{
		MaxBatch:   *maxBatch,
		MaxTimeout: *maxTimeout,
	})
	srv := &http.Server{
		Addr:    *addr,
		Handler: api,
		// Slow-client hygiene: a peer that never finishes its headers or
		// sits idle on a kept-alive connection cannot pin a goroutine or a
		// socket forever. No ReadTimeout/WriteTimeout — batch bodies and
		// the /v1/snapshot stream legitimately take a while.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("exactsimd: serving %s (n=%d m=%d) on %s — default algorithm %q, epoch %d",
		desc, svc.Graph().N(), svc.Graph().M(), *addr, svc.DefaultAlgorithm(), svc.Epoch())

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	if *drain > 0 {
		// Flip readiness first so routers polling /readyz stop sending
		// new queries, then give them the drain window to notice before
		// the listener goes away — in-flight queries keep completing.
		log.Printf("exactsimd: draining for %v", *drain)
		api.SetDraining(true)
		time.Sleep(*drain)
	}
	log.Printf("exactsimd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("exactsimd: shutdown: %v", err)
	}
	if *saveSnap != "" {
		// Re-spill on the way out: everything this process sampled since
		// boot rides into the next boot's warm start.
		saveSnapshot(svc, *saveSnap, *snapKeep)
	}
	st := svc.Stats()
	log.Printf("exactsimd: served %d queries (%d cache hits, %d errors, diag hit rate %.0f%%)",
		st.Queries, st.CacheHits, st.Errors, 100*st.DiagHitRate)
}

// saveSnapshot writes the current generation to path (atomically,
// rotating keep previous generations aside) and logs the outcome;
// failures are reported, not fatal — a read-only disk should not take
// the serving path down.
func saveSnapshot(svc *exactsim.Service, path string, keep int) {
	start := time.Now()
	if err := svc.SaveSnapshotKeep(path, keep); err != nil {
		log.Printf("exactsimd: save-snapshot: %v", err)
		return
	}
	fi, _ := os.Stat(path)
	var size int64
	if fi != nil {
		size = fi.Size()
	}
	st := svc.Stats()
	log.Printf("exactsimd: wrote snapshot %s (%d KiB, epoch %d, %d diag chunks) in %v",
		path, size>>10, st.GraphEpoch, st.DiagChunks, time.Since(start).Round(time.Millisecond))
}

// loadGraph resolves the graph flags: an explicit file beats a dataset
// key beats the generated fallback.
func loadGraph(path string, binary, undirected bool, datasetKey string, scale float64,
	baN, baK int, seed uint64) (*exactsim.Graph, string, error) {
	switch {
	case path != "" && datasetKey != "":
		return nil, "", errors.New("exactsimd: -graph and -dataset are mutually exclusive")
	case path != "" && binary:
		// OpenBinary mmaps the container zero-copy where the platform
		// allows; the mapping lives for the life of the daemon.
		g, err := exactsim.OpenBinary(path)
		return g, path, err
	case path != "":
		g, err := exactsim.LoadEdgeList(path, undirected)
		return g, path, err
	case datasetKey != "":
		g, err := exactsim.GenerateDataset(datasetKey, scale)
		return g, fmt.Sprintf("dataset %s ×%g", datasetKey, scale), err
	default:
		g := exactsim.GenerateBarabasiAlbert(baN, baK, seed)
		return g, fmt.Sprintf("generated BA(n=%d, k=%d)", baN, baK), nil
	}
}

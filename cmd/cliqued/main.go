// Command cliqued is the congested-clique network daemon: it serves Route,
// Sort, SortKeys and the corollary operations over the service wire protocol
// (see docs/SERVICE.md), fronting one pooled session handle with bounded
// admission, optional Route batching, per-request deadlines, transient-retry
// and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	cliqued -addr :9024 -n 64 -concurrency 4 -queue 16
//	cliqued -addr 127.0.0.1:0 -n 64 -batch 4 -batch-wait 200us
//
// -alg forces deterministic, low-compute or auto; the randomized and naive
// comparison baselines are measured offline by cliquebench (experiment E5).
//
// On SIGTERM or SIGINT the daemon stops accepting, finishes every admitted
// request, then exits; a second signal — or -drain-timeout expiring — forces
// the remaining work to abort.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	cc "congestedclique"

	"congestedclique/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:9024", "listen address (host:port; port 0 picks a free port)")
		n             = flag.Int("n", 64, "clique size every served instance must match")
		concurrency   = flag.Int("concurrency", 2, "engine pool size (simultaneous runs and worker count)")
		queue         = flag.Int("queue", 0, "admission queue depth; arrivals beyond it are shed (0 = 4x concurrency)")
		batch         = flag.Int("batch", 1, "max compatible Route requests merged into one engine run (1 disables)")
		batchWait     = flag.Duration("batch-wait", 0, "how long a worker waits for batch companions (0 = opportunistic)")
		deadline      = flag.Duration("deadline", 0, "default per-request deadline for requests that carry none (0 = unlimited)")
		retries       = flag.Int("retries", 0, "default transient-failure retry budget per request")
		retryBackoff  = flag.Duration("retry-backoff", 0, "base backoff between retry attempts")
		roundDeadline = flag.Duration("round-deadline", 0, "per-round watchdog on the engine (0 = off)")
		alg           = flag.String("alg", "", "force an algorithm: deterministic | low-compute | auto (empty = session default)")
		allowFaults   = flag.Bool("allow-fault-injection", false, "let requests inject deterministic cancellations (chaos/load testing only)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long a drain may run before in-flight work is aborted")
		planCache     = flag.Int("plan-cache", 0, "cross-run plan cache capacity for AlgorithmAuto requests (0 = off; charges the planner census on the wire)")
	)
	flag.Parse()

	cfg := service.Config{
		N:                   *n,
		MaxConcurrency:      *concurrency,
		QueueDepth:          *queue,
		BatchMaxOps:         *batch,
		BatchWait:           *batchWait,
		DefaultDeadline:     *deadline,
		Retries:             *retries,
		RetryBackoff:        *retryBackoff,
		RoundDeadline:       *roundDeadline,
		AllowFaultInjection: *allowFaults,
		PlanCacheCapacity:   *planCache,
	}
	if *alg != "" {
		a, err := parseAlgorithm(*alg)
		if err != nil {
			log.Fatalf("cliqued: %v", err)
		}
		cfg.Algorithm = a
	}

	srv, err := service.NewServer(cfg)
	if err != nil {
		log.Fatalf("cliqued: %v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("cliqued: %v", err)
	}
	st := srv.Stats()
	cacheNote := ""
	if *planCache > 0 {
		cacheNote = fmt.Sprintf(" plan-cache=%d", *planCache)
	}
	log.Printf("cliqued: serving n=%d concurrency=%d queue=%d batch=%d%s on %s",
		st.N, st.MaxConcurrency, st.QueueDepth, st.BatchMaxOps, cacheNote, ln.Addr())

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		log.Printf("cliqued: %v, draining (timeout %v; signal again to force)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			<-sigCh
			log.Printf("cliqued: second signal, forcing shutdown")
			cancel()
		}()
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			log.Fatalf("cliqued: drain incomplete: %v", err)
		}
		st := srv.Stats()
		log.Printf("cliqued: drained cleanly: ops=%d failed=%d retries=%d shed=%d drain-rejected=%d batched-runs=%d cache-hits=%d cache-misses=%d",
			st.Operations, st.FailedOperations, st.Retries, st.SheddedOps, st.DrainRejected, st.BatchedRuns, st.PlanCacheHits, st.PlanCacheMisses)
	case err := <-serveErr:
		if err != nil {
			log.Fatalf("cliqued: serve: %v", err)
		}
	}
}

func parseAlgorithm(name string) (cc.Algorithm, error) {
	switch name {
	case "deterministic":
		return cc.Deterministic, nil
	case "low-compute":
		return cc.LowCompute, nil
	case "auto":
		return cc.AlgorithmAuto, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", name)
	}
}

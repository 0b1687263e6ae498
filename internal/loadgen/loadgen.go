// Package loadgen drives concurrent operation streams against one pooled
// congestedclique session handle and reports aggregate throughput and
// latency percentiles. It is the measurement core shared by cmd/cliqueload
// (the interactive load generator) and cmd/cliquebench (which records the
// concurrency section of BENCH_protocol.json), so the committed numbers and
// the ad-hoc tool always measure the same workload the same way.
package loadgen

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	cc "congestedclique"

	"congestedclique/internal/workload"
)

// Config describes one load run.
type Config struct {
	// N is the clique size.
	N int
	// Concurrency is the handle's engine-pool size (WithMaxConcurrency).
	Concurrency int
	// Streams is the number of concurrent caller goroutines; each issues
	// OpsPerStream operations back to back.
	Streams      int
	OpsPerStream int
	// Workload selects the operation mix: "route", "sort", or "mixed"
	// (alternating route/sort per operation).
	Workload string
	// Verify cross-checks results bit for bit against a serial golden run.
	// Verification happens in a separate pass over the same stream/op count
	// BEFORE the measured pass, so the reported throughput and latencies
	// never include comparison time — verified numbers stay honest.
	Verify bool
	// FaultEvery, when positive, issues every FaultEvery-th operation of each
	// stream with an injected cancellation at round 1 (a deterministic
	// transient fault). Without retries those operations fail and are counted
	// per stream; with Retries > 0 they recover and must still verify against
	// the golden.
	FaultEvery int
	// Retries and RetryBackoff configure WithRetry on the injected-fault
	// operations (fault-free operations run without a retry budget, keeping
	// the common path identical to a plain load run).
	Retries      int
	RetryBackoff time.Duration
}

// Result is the outcome of one load run.
type Result struct {
	Config
	// Cores and Gomaxprocs snapshot the machine the run executed on —
	// in-process engine scaling is bounded by both, so throughput numbers
	// are meaningless without them.
	Cores      int
	Gomaxprocs int
	TotalOps   int
	Wall       time.Duration
	// OpsPerSec is aggregate completed operations per second of wall time.
	OpsPerSec float64
	// P50, P90, P99 and P999 are latency percentiles over all successful
	// operations.
	P50, P90, P99, P999 time.Duration
	// Verified is the number of operations whose results were cross-checked
	// against the serial golden (0 when Config.Verify is off): those of the
	// verification pass — the measured pass runs the same operation count
	// again without comparisons — plus, in network open-loop mode, every
	// success of the measured window, which that mode always checks.
	Verified int
	// SucceededOps and FailedOps split TotalOps for the measured pass: an
	// operation error no longer aborts the measured window — it is counted
	// against its stream and the stream keeps issuing operations. OpsPerSec
	// and the latency percentiles cover successful operations only.
	SucceededOps int
	FailedOps    int
	// StreamErrors is the per-stream failed-operation count of the measured
	// pass (always Streams entries).
	StreamErrors []int
	// FirstError is the first operation error observed in the measured pass
	// (stream order, then op order), "" when every operation succeeded.
	FirstError string
	// Retries is the number of transparent re-runs WithRetry performed during
	// the measured pass (from the handle's CumulativeStats; in network mode,
	// from the server's stats counters).
	Retries int64
	// SheddedOps counts operations rejected by the server's bounded
	// admission queue (ErrOverloaded) in the measured pass. Always 0 for
	// in-process runs, which have no admission queue. Shed operations are
	// not FailedOps: shedding is the overload policy working as designed.
	SheddedOps int
	// PlanCacheHits and PlanCacheMisses are the server-side plan-cache
	// counter deltas over the measured pass (network mode only, and only
	// nonzero when the server runs with -plan-cache).
	PlanCacheHits   int64
	PlanCacheMisses int64
}

// golden holds the serial reference results of the run's workloads.
type golden struct {
	route  *cc.RouteResult
	sorted *cc.SortResult
}

// RouteWorkload returns the deterministic full-load routing instance used by
// every load run at size n (the same instance the protocol benchmarks and
// the stats-invariant goldens measure).
func RouteWorkload(n int) [][]cc.Message {
	msgs, err := cc.NewUniformMessages(workload.ProtocolBenchRoute(n))
	if err != nil {
		panic(err)
	}
	return msgs
}

// SortWorkload returns the deterministic full-load sorting instance at size n.
func SortWorkload(n int) [][]int64 {
	return workload.ProtocolBenchSortValues(n)
}

// Run executes the configured load against a fresh pooled handle and reports
// the aggregate. The context cancels in-flight operations.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.N < 1 {
		return Result{}, fmt.Errorf("loadgen: clique size must be positive, got %d", cfg.N)
	}
	if cfg.Concurrency < 1 || cfg.Streams < 1 || cfg.OpsPerStream < 1 {
		return Result{}, fmt.Errorf("loadgen: concurrency, streams and ops must be positive (got k=%d, streams=%d, ops=%d)",
			cfg.Concurrency, cfg.Streams, cfg.OpsPerStream)
	}
	if cfg.FaultEvery < 0 || cfg.Retries < 0 {
		return Result{}, fmt.Errorf("loadgen: fault interval and retries must be non-negative (got every=%d, retries=%d)",
			cfg.FaultEvery, cfg.Retries)
	}
	wantRoute := cfg.Workload == "route" || cfg.Workload == "mixed"
	wantSort := cfg.Workload == "sort" || cfg.Workload == "mixed"
	if !wantRoute && !wantSort {
		return Result{}, fmt.Errorf("loadgen: unknown workload %q (route, sort, mixed)", cfg.Workload)
	}

	var msgs [][]cc.Message
	var values [][]int64
	var g golden
	serial, err := cc.New(cfg.N)
	if err != nil {
		return Result{}, err
	}
	// The serial handle establishes the golden results every concurrent
	// result is compared against (and warms the process-wide buffer pools,
	// so the measured run starts from the steady state a service sees).
	if wantRoute {
		msgs = RouteWorkload(cfg.N)
		if g.route, err = serial.Route(ctx, msgs); err != nil {
			serial.Close()
			return Result{}, fmt.Errorf("loadgen: serial route golden: %w", err)
		}
	}
	if wantSort {
		values = SortWorkload(cfg.N)
		if g.sorted, err = serial.Sort(ctx, values); err != nil {
			serial.Close()
			return Result{}, fmt.Errorf("loadgen: serial sort golden: %w", err)
		}
	}
	if err := serial.Close(); err != nil {
		return Result{}, err
	}

	cl, err := cc.New(cfg.N, cc.WithMaxConcurrency(cfg.Concurrency))
	if err != nil {
		return Result{}, err
	}
	defer cl.Close()

	totalOps := cfg.Streams * cfg.OpsPerStream

	// Injected-fault operations carry their own option set: a deterministic
	// cancellation at round 1, plus the configured retry budget.
	var faultOpts []cc.Option
	if cfg.FaultEvery > 0 {
		faultOpts = append(faultOpts, cc.WithInjectedCancel(1))
		if cfg.Retries > 0 {
			faultOpts = append(faultOpts, cc.WithRetry(cfg.Retries, cfg.RetryBackoff))
		}
	}

	// pass drives Streams concurrent goroutines of OpsPerStream operations
	// each against the pooled handle. An operation error is counted against
	// its stream and the stream moves on — the window is never aborted — but
	// a verification MISMATCH (verify set, result diverging from the serial
	// golden) fails the whole run: it means a successful operation returned
	// wrong data, which no error budget excuses. With latencies non-nil the
	// per-op durations of successful operations are recorded.
	pass := func(latencies []time.Duration, ok []bool, verify bool) (time.Duration, []int, int, string, error) {
		streamErrs := make([]int, cfg.Streams)
		firstErrs := make([]string, cfg.Streams)
		mismatches := make([]error, cfg.Streams)
		verifiedBy := make([]int, cfg.Streams)
		var wg sync.WaitGroup
		start := time.Now()
		for s := 0; s < cfg.Streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for op := 0; op < cfg.OpsPerStream; op++ {
					doRoute := wantRoute && (!wantSort || (s+op)%2 == 0)
					var opts []cc.Option
					if cfg.FaultEvery > 0 && (op+1)%cfg.FaultEvery == 0 {
						opts = faultOpts
					}
					opStart := time.Now()
					var routed *cc.RouteResult
					var sorted *cc.SortResult
					var err error
					if doRoute {
						routed, err = cl.Route(ctx, msgs, opts...)
					} else {
						sorted, err = cl.Sort(ctx, values, opts...)
					}
					if err != nil {
						streamErrs[s]++
						if firstErrs[s] == "" {
							firstErrs[s] = fmt.Sprintf("stream %d op %d: %v", s, op, err)
						}
						continue
					}
					if latencies != nil {
						latencies[s*cfg.OpsPerStream+op] = time.Since(opStart)
						ok[s*cfg.OpsPerStream+op] = true
					}
					if verify {
						var vErr error
						if doRoute {
							vErr = g.checkRoute(routed)
						} else {
							vErr = g.checkSort(sorted)
						}
						if vErr != nil {
							mismatches[s] = fmt.Errorf("stream %d op %d: %w", s, op, vErr)
							return
						}
						verifiedBy[s]++
					}
				}
			}(s)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, err := range mismatches {
			if err != nil {
				return wall, nil, 0, "", err
			}
		}
		verified := 0
		firstErr := ""
		for s := 0; s < cfg.Streams; s++ {
			verified += verifiedBy[s]
			if firstErr == "" && firstErrs[s] != "" {
				firstErr = firstErrs[s]
			}
		}
		return wall, streamErrs, verified, firstErr, nil
	}

	// Verification pass first (results checked, nothing measured), then the
	// measured pass with no comparison work inside the timed window.
	verified := 0
	if cfg.Verify {
		var err error
		if _, _, verified, _, err = pass(nil, nil, true); err != nil {
			return Result{}, err
		}
	}
	retryBase := cl.CumulativeStats().Retries
	latencies := make([]time.Duration, totalOps)
	okOps := make([]bool, totalOps)
	wall, streamErrs, _, firstErr, err := pass(latencies, okOps, false)
	if err != nil {
		return Result{}, err
	}
	retries := cl.CumulativeStats().Retries - retryBase

	// Percentiles and throughput speak for successful operations only.
	succeeded := latencies[:0]
	for i, d := range latencies {
		if okOps[i] {
			succeeded = append(succeeded, d)
		}
	}
	failed := 0
	for _, c := range streamErrs {
		failed += c
	}
	slices.Sort(succeeded)
	res := Result{
		Config:       cfg,
		Cores:        runtime.NumCPU(),
		Gomaxprocs:   runtime.GOMAXPROCS(0),
		TotalOps:     totalOps,
		Wall:         wall,
		OpsPerSec:    float64(len(succeeded)) / wall.Seconds(),
		P50:          percentile(succeeded, 50),
		P90:          percentile(succeeded, 90),
		P99:          percentile(succeeded, 99),
		P999:         permille(succeeded, 999),
		Verified:     verified,
		SucceededOps: len(succeeded),
		FailedOps:    failed,
		StreamErrors: streamErrs,
		FirstError:   firstErr,
		Retries:      retries,
	}
	return res, nil
}

// percentile returns the p-th percentile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// permille returns the p-th permille (p999 = 99.9th percentile) of sorted
// latencies, nearest-rank like percentile.
func permille(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 999) / 1000
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// checkRoute deep-compares a concurrent Route result against the serial
// golden: stats and every delivered message must match bit for bit.
func (g *golden) checkRoute(res *cc.RouteResult) error {
	if res.Stats != g.route.Stats {
		return fmt.Errorf("route stats %+v diverge from serial %+v", res.Stats, g.route.Stats)
	}
	if len(res.Delivered) != len(g.route.Delivered) {
		return fmt.Errorf("delivered to %d nodes, serial %d", len(res.Delivered), len(g.route.Delivered))
	}
	for i := range res.Delivered {
		if len(res.Delivered[i]) != len(g.route.Delivered[i]) {
			return fmt.Errorf("node %d received %d messages, serial %d", i, len(res.Delivered[i]), len(g.route.Delivered[i]))
		}
		for j := range res.Delivered[i] {
			if res.Delivered[i][j] != g.route.Delivered[i][j] {
				return fmt.Errorf("delivery diverged from serial at node %d message %d", i, j)
			}
		}
	}
	return nil
}

// checkSort deep-compares a concurrent Sort result against the serial golden.
func (g *golden) checkSort(res *cc.SortResult) error {
	if res.Stats != g.sorted.Stats || res.Total != g.sorted.Total {
		return fmt.Errorf("sort stats %+v/total %d diverge from serial %+v/%d", res.Stats, res.Total, g.sorted.Stats, g.sorted.Total)
	}
	for i := range res.Batches {
		if res.Starts[i] != g.sorted.Starts[i] || len(res.Batches[i]) != len(g.sorted.Batches[i]) {
			return fmt.Errorf("batch %d shape diverged from serial", i)
		}
		for j := range res.Batches[i] {
			if res.Batches[i][j] != g.sorted.Batches[i][j] {
				return fmt.Errorf("sorted key diverged from serial at batch %d index %d", i, j)
			}
		}
	}
	return nil
}

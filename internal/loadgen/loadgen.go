// Package loadgen drives concurrent Route/Sort streams against a cliqued
// server over the service wire protocol and reports aggregate throughput,
// latency percentiles, sheds and failures, every response optionally
// cross-checked bit for bit against an in-process serial golden. It is the
// measurement core of cliquebench's load and record subcommands.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"time"

	cc "congestedclique"

	"congestedclique/internal/service"
	"congestedclique/internal/workload"
)

// Config describes one load run.
type Config struct {
	// Addr is the server address ("host:port"). The server's clique size
	// (learned in the handshake) must match N.
	Addr string
	// N is the clique size.
	N int
	// Streams is the number of connections. In closed loop each carries one
	// caller issuing OpsPerStream operations back to back; in open loop
	// (Rate > 0) they are the pool the offered operations round-robin over.
	Streams      int
	OpsPerStream int
	// Workload selects the operation mix: "route", "sort", or "mixed"
	// (alternating route/sort per operation).
	Workload string
	// Verify cross-checks responses bit for bit against the in-process serial
	// golden in a closed verification pass BEFORE the measured pass, so the
	// closed-loop throughput and latencies never include comparison time.
	// The open loop additionally verifies every in-window success.
	Verify bool
	// FaultEvery, when positive, issues every FaultEvery-th operation of each
	// stream with an injected cancellation at round 1 (a deterministic
	// transient fault; the server must allow fault injection). Without
	// retries those operations fail and are counted per stream; with
	// Retries > 0 they recover and must still verify against the golden.
	FaultEvery int
	// Retries and RetryBackoff are the server-side retry budget of the
	// injected-fault operations (fault-free operations carry none).
	Retries      int
	RetryBackoff time.Duration
	// Rate, when positive, switches the measured pass to open loop: Rate
	// operations per second are offered for Duration (default 5s)
	// regardless of completions — the only honest way to measure a server
	// past saturation, where a closed loop would self-throttle.
	Rate     float64
	Duration time.Duration
	// OpDeadline, when positive, attaches a per-request deadline to every
	// operation.
	OpDeadline time.Duration
}

// Result is the outcome of one load run.
type Result struct {
	Config
	// TotalOps is the number of operations of the measured pass (offered
	// ones, in open loop).
	TotalOps int
	Wall     time.Duration
	// OpsPerSec is successful operations per second of wall time.
	OpsPerSec float64
	// P50, P90, P99 and P999 are latency percentiles over all successful
	// operations, from the client's send to its decode.
	P50, P90, P99, P999 time.Duration
	// Verified is the number of responses cross-checked against the golden
	// (0 when Config.Verify is off): those of the verification pass plus,
	// in open loop, every success of the measured window.
	Verified int
	// SucceededOps, FailedOps and SheddedOps split TotalOps. An operation
	// error never aborts the measured window: it is counted against its
	// stream and the stream moves on. SheddedOps are the server's
	// bounded-queue rejections (ErrOverloaded) — the overload policy working
	// as designed, not failures.
	SucceededOps int
	FailedOps    int
	SheddedOps   int
	// StreamErrors is the per-stream failed-operation count of the measured
	// pass (always Streams entries); FirstError is the first failure in
	// stream order, "" when every operation succeeded or was shed.
	StreamErrors []int
	FirstError   string
	// Retries, PlanCacheHits and PlanCacheMisses are the server's counter
	// deltas over the measured pass.
	Retries         int64
	PlanCacheHits   int64
	PlanCacheMisses int64
}

// golden holds the serial in-process reference results in the wire
// protocol's canonical form.
type golden struct {
	route [][]cc.Message
	sort  *cc.SortResult
}

func (g *golden) checkRoute(rep *service.RouteReply) error {
	if len(rep.Delivered) != len(g.route) {
		return fmt.Errorf("delivered to %d nodes, golden %d", len(rep.Delivered), len(g.route))
	}
	for i := range rep.Delivered {
		if len(rep.Delivered[i]) == 0 && len(g.route[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(rep.Delivered[i], g.route[i]) {
			return fmt.Errorf("delivery diverged from in-process golden at node %d", i)
		}
	}
	return nil
}

func (g *golden) checkSort(rep *service.SortReply) error {
	if rep.Total != g.sort.Total {
		return fmt.Errorf("sorted total %d, golden %d", rep.Total, g.sort.Total)
	}
	if !reflect.DeepEqual(rep.Starts, g.sort.Starts) {
		return errors.New("sorted starts diverged from in-process golden")
	}
	for i := range rep.Batches {
		if len(rep.Batches[i]) == 0 && len(g.sort.Batches[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(rep.Batches[i], g.sort.Batches[i]) {
			return fmt.Errorf("sorted batch %d diverged from in-process golden", i)
		}
	}
	return nil
}

// errMismatch marks a verification failure: a successful response whose
// content diverged from the in-process golden. No error budget excuses it,
// so it always aborts the run.
var errMismatch = errors.New("loadgen: response diverged from in-process golden")

// Run executes the configured load against the server at cfg.Addr and
// reports the aggregate. A closed verification pass precedes the
// measurement; in open loop — where the point is overload, so sheds are
// expected — every successful in-window response is verified too, pinning
// "bounded-queue shedding with zero incorrect results".
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Addr == "" {
		return Result{}, errors.New("loadgen: run needs a server address")
	}
	if cfg.N < 1 || cfg.Streams < 1 {
		return Result{}, fmt.Errorf("loadgen: clique size and streams must be positive (got n=%d, streams=%d)", cfg.N, cfg.Streams)
	}
	if cfg.Rate == 0 && cfg.OpsPerStream < 1 {
		return Result{}, fmt.Errorf("loadgen: closed-loop run needs positive ops per stream, got %d", cfg.OpsPerStream)
	}
	if cfg.Rate < 0 || cfg.Duration < 0 || cfg.FaultEvery < 0 || cfg.Retries < 0 {
		return Result{}, errors.New("loadgen: negative rate, duration, fault interval or retries")
	}
	if cfg.Rate > 0 && cfg.Duration == 0 {
		cfg.Duration = 5 * time.Second
	}
	wantRoute := cfg.Workload == "route" || cfg.Workload == "mixed"
	wantSort := cfg.Workload == "sort" || cfg.Workload == "mixed"
	if !wantRoute && !wantSort {
		return Result{}, fmt.Errorf("loadgen: unknown workload %q (route, sort, mixed)", cfg.Workload)
	}

	// The deterministic full-load instances the protocol benchmarks and the
	// stats-invariant goldens measure.
	var msgs [][]cc.Message
	var values [][]int64
	if wantRoute {
		var err error
		if msgs, err = cc.NewUniformMessages(workload.ProtocolBenchRoute(cfg.N)); err != nil {
			return Result{}, err
		}
	}
	if wantSort {
		values = workload.ProtocolBenchSortValues(cfg.N)
	}
	g, err := serialGolden(ctx, cfg.N, msgs, values)
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: serial golden: %w", err)
	}

	clients := make([]*service.Client, 0, cfg.Streams)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for range cfg.Streams {
		cl, err := service.Dial(cfg.Addr)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: dial %s: %w", cfg.Addr, err)
		}
		clients = append(clients, cl)
		if cl.N() != cfg.N {
			return Result{}, fmt.Errorf("loadgen: server at %s serves n=%d, run configured for n=%d", cfg.Addr, cl.N(), cfg.N)
		}
	}

	// issue runs operation op of a stream and verifies it when asked. It
	// reports (success, shed, error).
	issue := func(cl *service.Client, op, stream int, verify bool) (bool, bool, error) {
		opts := &service.CallOpts{Deadline: cfg.OpDeadline}
		if cfg.FaultEvery > 0 && (op+1)%cfg.FaultEvery == 0 {
			opts.InjectCancel = true
			opts.FaultCancelRound = 1
			opts.Retries = cfg.Retries
			opts.RetryBackoff = cfg.RetryBackoff
		}
		var vErr error
		if wantRoute && (!wantSort || (stream+op)%2 == 0) {
			rep, err := cl.Route(msgs, opts)
			if err != nil {
				return false, errors.Is(err, service.ErrOverloaded), err
			}
			if verify {
				vErr = g.checkRoute(rep)
			}
		} else {
			rep, err := cl.Sort(values, opts)
			if err != nil {
				return false, errors.Is(err, service.ErrOverloaded), err
			}
			if verify {
				vErr = g.checkSort(rep)
			}
		}
		if vErr != nil {
			return false, false, fmt.Errorf("%w: %v", errMismatch, vErr)
		}
		return true, false, nil
	}

	// Verification pass: closed loop, every response compared. A shed here
	// only happens if someone else already overloads the server; it is
	// skipped, a mismatch aborts.
	verified := 0
	if cfg.Verify {
		ops := max(cfg.OpsPerStream, 1)
		var wg sync.WaitGroup
		verifiedBy := make([]int, cfg.Streams)
		mismatches := make([]error, cfg.Streams)
		for s := range cfg.Streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for op := range ops {
					ok, _, err := issue(clients[s], op, s, true)
					if errors.Is(err, errMismatch) {
						mismatches[s] = fmt.Errorf("stream %d op %d: %w", s, op, err)
						return
					}
					if ok {
						verifiedBy[s]++
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(mismatches...); err != nil {
			return Result{}, err
		}
		for _, v := range verifiedBy {
			verified += v
		}
	}

	before, err := clients[0].ServerStats()
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: server stats: %w", err)
	}
	var res Result
	if cfg.Rate > 0 {
		res, err = runOpenLoop(cfg, clients, issue)
	} else {
		res = runClosedLoop(cfg, clients, issue)
	}
	if err != nil {
		return Result{}, err
	}
	after, err := clients[0].ServerStats()
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: server stats: %w", err)
	}
	res.Retries = after.Retries - before.Retries
	res.PlanCacheHits = after.PlanCacheHits - before.PlanCacheHits
	res.PlanCacheMisses = after.PlanCacheMisses - before.PlanCacheMisses
	res.Verified = verified
	if cfg.Verify && cfg.Rate > 0 {
		res.Verified += res.SucceededOps
	}
	return res, nil
}

// serialGolden runs the instances once on a fresh in-process handle.
func serialGolden(ctx context.Context, n int, msgs [][]cc.Message, values [][]int64) (*golden, error) {
	cl, err := cc.New(n)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	g := &golden{}
	if msgs != nil {
		res, err := cl.Route(ctx, msgs)
		if err != nil {
			return nil, err
		}
		// Row i is sorted by (Src, Dst, Seq) with Dst = i: the wire
		// protocol's canonical (Src, Seq) order already.
		g.route = res.Delivered
	}
	if values != nil {
		if g.sort, err = cl.Sort(ctx, values); err != nil {
			return nil, err
		}
	}
	return g, nil
}

type issueFunc func(cl *service.Client, op, stream int, verify bool) (bool, bool, error)

// tally collects the per-stream outcomes of a measured pass.
type tally struct {
	latencies  []time.Duration
	streamErrs []int
	firstErrs  []string
	shedBy     []int
}

func newTally(streams int) *tally {
	return &tally{streamErrs: make([]int, streams), firstErrs: make([]string, streams), shedBy: make([]int, streams)}
}

// record files one operation's outcome under its stream.
func (t *tally) record(s int, ok, shed bool, took time.Duration, err error, what string) {
	switch {
	case ok:
		t.latencies = append(t.latencies, took)
	case shed:
		t.shedBy[s]++
	default:
		t.streamErrs[s]++
		if t.firstErrs[s] == "" {
			t.firstErrs[s] = fmt.Sprintf("%s: %v", what, err)
		}
	}
}

// result folds the tally into a Result.
func (t *tally) result(cfg Config, wall time.Duration, totalOps int) Result {
	slices.Sort(t.latencies)
	res := Result{
		Config:       cfg,
		TotalOps:     totalOps,
		Wall:         wall,
		OpsPerSec:    float64(len(t.latencies)) / wall.Seconds(),
		P50:          percentile(t.latencies, 50),
		P90:          percentile(t.latencies, 90),
		P99:          percentile(t.latencies, 99),
		P999:         permille(t.latencies, 999),
		SucceededOps: len(t.latencies),
		StreamErrors: t.streamErrs,
	}
	for s := range t.streamErrs {
		res.FailedOps += t.streamErrs[s]
		res.SheddedOps += t.shedBy[s]
		if res.FirstError == "" {
			res.FirstError = t.firstErrs[s]
		}
	}
	return res
}

// runClosedLoop runs Streams goroutines, one connection each, of
// OpsPerStream back-to-back operations. Responses are not verified inside
// the timed window (the verification pass already ran).
func runClosedLoop(cfg Config, clients []*service.Client, issue issueFunc) Result {
	var mu sync.Mutex
	t := newTally(cfg.Streams)
	var wg sync.WaitGroup
	start := time.Now()
	for s := range cfg.Streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range cfg.OpsPerStream {
				opStart := time.Now()
				ok, shed, err := issue(clients[s], op, s, false)
				took := time.Since(opStart)
				mu.Lock()
				t.record(s, ok, shed, took, err, fmt.Sprintf("stream %d op %d", s, op))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return t.result(cfg, time.Since(start), cfg.Streams*cfg.OpsPerStream)
}

// runOpenLoop offers cfg.Rate operations per second for cfg.Duration,
// dispatching each in its own goroutine round-robin across the connection
// pool — completions never gate arrivals, so the offered load holds through
// saturation. Every successful response is verified when cfg.Verify is set.
func runOpenLoop(cfg Config, clients []*service.Client, issue issueFunc) (Result, error) {
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		return Result{}, fmt.Errorf("loadgen: rate %.0f/s too high to schedule", cfg.Rate)
	}
	var mu sync.Mutex
	t := newTally(cfg.Streams)
	var mismatch error
	var wg sync.WaitGroup

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.NewTimer(cfg.Duration)
	defer stop.Stop()
	start := time.Now()
	offered := 0
loop:
	for {
		select {
		case <-stop.C:
			break loop
		case <-ticker.C:
			op, s := offered, offered%cfg.Streams
			offered++
			wg.Add(1)
			go func() {
				defer wg.Done()
				opStart := time.Now()
				ok, shed, err := issue(clients[s], op, 0, cfg.Verify)
				took := time.Since(opStart)
				mu.Lock()
				defer mu.Unlock()
				if errors.Is(err, errMismatch) {
					if mismatch == nil {
						mismatch = fmt.Errorf("open-loop op %d: %w", op, err)
					}
					return
				}
				t.record(s, ok, shed, took, err, fmt.Sprintf("op %d (conn %d)", op, s))
			}()
		}
	}
	wg.Wait()
	if mismatch != nil {
		return Result{}, mismatch
	}
	return t.result(cfg, time.Since(start), offered), nil
}

// percentile returns the p-th percentile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	return nearestRank(sorted, p, 100)
}

// permille returns the p-th permille (p999 = 99.9th percentile) of sorted
// latencies, nearest-rank like percentile.
func permille(sorted []time.Duration, p int) time.Duration {
	return nearestRank(sorted, p, 1000)
}

func nearestRank(sorted []time.Duration, p, of int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := min(max((p*len(sorted)+of-1)/of, 1), len(sorted))
	return sorted[idx-1]
}

package loadgen

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"time"

	cc "congestedclique"

	"congestedclique/internal/service"
)

// NetworkConfig describes one load run against a remote cliqued server
// (cmd/cliqueload's -addr mode). The embedded Config keeps the same stream
// and workload vocabulary as the in-process runs, so in-process and service
// numbers stay directly comparable.
type NetworkConfig struct {
	Config
	// Addr is the server address ("host:port"). The server's clique size
	// (learned in the handshake) must match Config.N.
	Addr string
	// Rate, when positive, switches the measured pass to open loop: the
	// driver offers Rate operations per second for Duration regardless of
	// completions — the only honest way to measure a server past
	// saturation, where a closed loop would self-throttle. Streams then
	// sets the connection-pool size, not a caller count.
	Rate float64
	// Duration bounds the open-loop measured window (default 5s).
	Duration time.Duration
	// OpDeadline, when positive, attaches a per-request deadline to every
	// measured operation.
	OpDeadline time.Duration
}

// netGolden holds the serial in-process reference results in the wire
// protocol's canonical form; every networked response is compared against
// it bit for bit.
type netGolden struct {
	route [][]cc.Message
	sort  *cc.SortResult
}

func (g *netGolden) checkRoute(rep *service.RouteReply) error {
	if rep == nil {
		return errors.New("nil route reply")
	}
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

func (g *netGolden) checkSort(rep *service.SortReply) error {
	if rep == nil {
		return errors.New("nil sort reply")
	}
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

// RunNetwork executes the configured load against a cliqued server and
// reports the aggregate. The verification discipline mirrors Run: a closed
// verification pass precedes the measurement, and in open-loop mode —
// where the whole point is overload, so shed responses are expected — every
// successful in-window response is additionally verified against the
// golden, pinning "bounded-queue shedding with zero incorrect results".
func RunNetwork(ctx context.Context, cfg NetworkConfig) (Result, error) {
	if cfg.Addr == "" {
		return Result{}, errors.New("loadgen: network run needs an address")
	}
	if cfg.N < 1 || cfg.Streams < 1 {
		return Result{}, fmt.Errorf("loadgen: clique size and streams must be positive (got n=%d, streams=%d)", cfg.N, cfg.Streams)
	}
	if cfg.Rate == 0 && cfg.OpsPerStream < 1 {
		return Result{}, fmt.Errorf("loadgen: closed-loop network run needs positive ops per stream, got %d", cfg.OpsPerStream)
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

	// In-process serial goldens, canonicalized exactly as the wire protocol
	// canonicalizes its responses.
	var msgs [][]cc.Message
	var values [][]int64
	var g netGolden
	serial, err := cc.New(cfg.N)
	if err != nil {
		return Result{}, err
	}
	if wantRoute {
		msgs = RouteWorkload(cfg.N)
		res, err := serial.Route(ctx, msgs)
		if err != nil {
			serial.Close()
			return Result{}, fmt.Errorf("loadgen: serial route golden: %w", err)
		}
		g.route = canonicalRoute(res.Delivered)
	}
	if wantSort {
		values = SortWorkload(cfg.N)
		if g.sort, err = serial.Sort(ctx, values); err != nil {
			serial.Close()
			return Result{}, fmt.Errorf("loadgen: serial sort golden: %w", err)
		}
	}
	if err := serial.Close(); err != nil {
		return Result{}, err
	}

	clients := make([]*service.Client, cfg.Streams)
	for i := range clients {
		cl, err := service.Dial(cfg.Addr)
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return Result{}, fmt.Errorf("loadgen: dial %s: %w", cfg.Addr, err)
		}
		if cl.N() != cfg.N {
			cl.Close()
			for _, c := range clients[:i] {
				c.Close()
			}
			return Result{}, fmt.Errorf("loadgen: server at %s serves n=%d, run configured for n=%d", cfg.Addr, cl.N(), cfg.N)
		}
		clients[i] = cl
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	// issue runs one operation through a client and verifies it when asked.
	// It reports (verified-success, shed, error).
	issue := func(cl *service.Client, doRoute, faulted, verify bool) (bool, bool, error) {
		opts := &service.CallOpts{Deadline: cfg.OpDeadline}
		if faulted {
			opts.InjectCancel = true
			opts.FaultCancelRound = 1
			opts.Retries = cfg.Retries
			opts.RetryBackoff = cfg.RetryBackoff
		}
		if doRoute {
			rep, err := cl.Route(msgs, opts)
			if err != nil {
				return false, errors.Is(err, service.ErrOverloaded), err
			}
			if verify {
				if err := g.checkRoute(rep); err != nil {
					return false, false, fmt.Errorf("%w: %v", errMismatch, err)
				}
			}
			return true, false, nil
		}
		rep, err := cl.Sort(values, opts)
		if err != nil {
			return false, errors.Is(err, service.ErrOverloaded), err
		}
		if verify {
			if err := g.checkSort(rep); err != nil {
				return false, false, fmt.Errorf("%w: %v", errMismatch, err)
			}
		}
		return true, false, nil
	}

	// Verification pass: closed loop, every response compared. A shed here
	// only happens if the server is already overloaded by someone else;
	// count it and move on, mismatches abort.
	verified := 0
	if cfg.Verify {
		ops := cfg.OpsPerStream
		if ops < 1 {
			ops = 1
		}
		var wg sync.WaitGroup
		verifiedBy := make([]int, cfg.Streams)
		mismatches := make([]error, cfg.Streams)
		for s := 0; s < cfg.Streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for op := 0; op < ops; op++ {
					doRoute := wantRoute && (!wantSort || (s+op)%2 == 0)
					faulted := cfg.FaultEvery > 0 && (op+1)%cfg.FaultEvery == 0
					okOp, _, err := issue(clients[s], doRoute, faulted, true)
					if errors.Is(err, errMismatch) {
						mismatches[s] = fmt.Errorf("stream %d op %d: %w", s, op, err)
						return
					}
					if okOp {
						verifiedBy[s]++
					}
				}
			}(s)
		}
		wg.Wait()
		for _, err := range mismatches {
			if err != nil {
				return Result{}, err
			}
		}
		for _, v := range verifiedBy {
			verified += v
		}
	}

	// Server-side retry counter, sampled around the measured window.
	statsBefore, err := clients[0].ServerStats()
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: server stats: %w", err)
	}

	var res Result
	if cfg.Rate > 0 {
		res, err = runOpenLoop(cfg, clients, issue, wantRoute, wantSort)
	} else {
		res, err = runClosedLoop(cfg, clients, issue, wantRoute, wantSort)
	}
	if err != nil {
		return Result{}, err
	}
	statsAfter, err := clients[0].ServerStats()
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: server stats: %w", err)
	}
	res.Retries = statsAfter.Retries - statsBefore.Retries
	res.PlanCacheHits = statsAfter.PlanCacheHits - statsBefore.PlanCacheHits
	res.PlanCacheMisses = statsAfter.PlanCacheMisses - statsBefore.PlanCacheMisses
	res.Verified = verified
	if cfg.Verify && cfg.Rate > 0 {
		// The open loop compares every in-window success with the golden too
		// (a mismatch aborts the run above).
		res.Verified += res.SucceededOps
	}
	return res, nil
}

// canonicalRoute deep-copies a delivery and sorts every row by (Src, Seq) —
// the wire protocol's canonical response order.
func canonicalRoute(delivered [][]cc.Message) [][]cc.Message {
	rows := make([][]cc.Message, len(delivered))
	for i, row := range delivered {
		if len(row) == 0 {
			continue
		}
		r := append([]cc.Message(nil), row...)
		slices.SortFunc(r, func(a, b cc.Message) int {
			if a.Src != b.Src {
				return a.Src - b.Src
			}
			return a.Seq - b.Seq
		})
		rows[i] = r
	}
	return rows
}

type issueFunc func(cl *service.Client, doRoute, faulted, verify bool) (bool, bool, error)

// errMismatch marks a verification failure: a successful response whose
// content diverged from the in-process golden. It always aborts the run.
var errMismatch = errors.New("loadgen: response diverged from in-process golden")

// runClosedLoop is the network twin of the in-process measured pass:
// Streams goroutines, one connection each, OpsPerStream back-to-back ops.
// Responses are not verified inside the timed window (the verification pass
// already ran); latencies cover successful operations only.
func runClosedLoop(cfg NetworkConfig, clients []*service.Client, issue issueFunc, wantRoute, wantSort bool) (Result, error) {
	totalOps := cfg.Streams * cfg.OpsPerStream
	latencies := make([]time.Duration, totalOps)
	okOps := make([]bool, totalOps)
	streamErrs := make([]int, cfg.Streams)
	firstErrs := make([]string, cfg.Streams)
	shedBy := make([]int, cfg.Streams)
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < cfg.Streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for op := 0; op < cfg.OpsPerStream; op++ {
				doRoute := wantRoute && (!wantSort || (s+op)%2 == 0)
				faulted := cfg.FaultEvery > 0 && (op+1)%cfg.FaultEvery == 0
				opStart := time.Now()
				okOp, shed, err := issue(clients[s], doRoute, faulted, false)
				switch {
				case okOp:
					latencies[s*cfg.OpsPerStream+op] = time.Since(opStart)
					okOps[s*cfg.OpsPerStream+op] = true
				case shed:
					shedBy[s]++
				default:
					streamErrs[s]++
					if firstErrs[s] == "" {
						firstErrs[s] = fmt.Sprintf("stream %d op %d: %v", s, op, err)
					}
				}
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(start)
	return assembleNetResult(cfg, wall, latencies, okOps, streamErrs, firstErrs, shedBy), nil
}

// runOpenLoop offers cfg.Rate operations per second for cfg.Duration,
// dispatching each operation in its own goroutine round-robin across the
// connection pool — completions never gate arrivals, so the offered load
// holds through saturation. Every successful response is verified.
func runOpenLoop(cfg NetworkConfig, clients []*service.Client, issue issueFunc, wantRoute, wantSort bool) (Result, error) {
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		return Result{}, fmt.Errorf("loadgen: rate %.0f/s too high to schedule", cfg.Rate)
	}
	var mu sync.Mutex
	var latencies []time.Duration
	streamErrs := make([]int, cfg.Streams)
	firstErrs := make([]string, cfg.Streams)
	shedBy := make([]int, cfg.Streams)
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
			op := offered
			offered++
			s := op % cfg.Streams
			wg.Add(1)
			go func(op, s int) {
				defer wg.Done()
				doRoute := wantRoute && (!wantSort || op%2 == 0)
				faulted := cfg.FaultEvery > 0 && (op+1)%cfg.FaultEvery == 0
				opStart := time.Now()
				okOp, shed, err := issue(clients[s], doRoute, faulted, true)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case okOp:
					latencies = append(latencies, time.Since(opStart))
				case shed:
					shedBy[s]++
				case errors.Is(err, errMismatch):
					if mismatch == nil {
						mismatch = fmt.Errorf("open-loop op %d: %w", op, err)
					}
				default:
					streamErrs[s]++
					if firstErrs[s] == "" {
						firstErrs[s] = fmt.Sprintf("op %d (conn %d): %v", op, s, err)
					}
				}
			}(op, s)
		}
	}
	wg.Wait()
	wall := time.Since(start)
	if mismatch != nil {
		return Result{}, mismatch
	}

	okOps := make([]bool, len(latencies))
	for i := range okOps {
		okOps[i] = true
	}
	res := assembleNetResult(cfg, wall, latencies, okOps, streamErrs, firstErrs, shedBy)
	res.TotalOps = offered
	return res, nil
}

// assembleNetResult folds per-stream tallies into a Result.
func assembleNetResult(cfg NetworkConfig, wall time.Duration, latencies []time.Duration, okOps []bool, streamErrs []int, firstErrs []string, shedBy []int) Result {
	succeeded := make([]time.Duration, 0, len(latencies))
	for i, d := range latencies {
		if okOps[i] {
			succeeded = append(succeeded, d)
		}
	}
	failed, shed := 0, 0
	firstErr := ""
	for s := range streamErrs {
		failed += streamErrs[s]
		shed += shedBy[s]
		if firstErr == "" && firstErrs[s] != "" {
			firstErr = firstErrs[s]
		}
	}
	slices.Sort(succeeded)
	return Result{
		Config:       cfg.Config,
		Cores:        runtime.NumCPU(),
		Gomaxprocs:   runtime.GOMAXPROCS(0),
		TotalOps:     len(latencies),
		Wall:         wall,
		OpsPerSec:    float64(len(succeeded)) / wall.Seconds(),
		P50:          percentile(succeeded, 50),
		P90:          percentile(succeeded, 90),
		P99:          percentile(succeeded, 99),
		P999:         permille(succeeded, 999),
		SucceededOps: len(succeeded),
		FailedOps:    failed,
		StreamErrors: streamErrs,
		FirstError:   firstErr,
		SheddedOps:   shed,
	}
}

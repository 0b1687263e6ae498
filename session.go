package congestedclique

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
)

// Clique is a long-lived session handle over a simulated congested clique of
// n nodes. It amortizes engine construction — delivery arenas, metric
// buffers, schedule-cache maps, input row headers — across an unbounded
// stream of operations: the per-operation cost of a handle is the protocol
// itself, not rebuilding the simulator.
//
// Concurrency: a handle is a concurrent executor over a pool of engines.
// New(n, WithMaxConcurrency(k)) allows up to k independent operations to
// execute in parallel on one handle; engines are built lazily, so a handle
// that never sees concurrent calls only ever pays for one. The default is
// k = 1, which preserves the serialized behaviour of earlier versions
// exactly. Every operation checks an engine (plus its private input headers
// and result scratch) out of the pool, runs, and returns it; input
// validation and option resolution happen before checkout, so malformed
// calls never occupy an engine. Results are bit-identical to serial execution regardless of k —
// each engine run is deterministic and fully isolated.
//
// Lifetime: a handle owns its engines until Close; afterwards every method
// fails with an error wrapping ErrClosed. Close waits for in-flight
// operations to drain before releasing the engines.
//
// Every result is a plain value owned by the caller: its rows are fresh
// slices allocated for that call, and nothing a method returns aliases
// engine memory or another call's result, so results remain valid across
// later calls and after Close. Input rows are only read, and only for the
// duration of the call.
type Clique struct {
	n   int
	cfg config

	// slots is the checkout semaphore: it starts with maxConcurrency tokens,
	// every operation holds one token for its whole duration, and Close
	// drains all of them — owning every token proves no operation is in
	// flight. closedCh is closed by Close so waiters fail fast with ErrClosed
	// instead of blocking on a draining semaphore.
	slots    chan struct{}
	closedCh chan struct{}

	// mu guards the pool bookkeeping below (never held across an engine run).
	mu     sync.Mutex
	closed bool
	// idle holds checked-in units; engines lists every unit ever built (kept
	// after Close so CumulativeStats stays readable).
	idle    []*execUnit
	engines []*execUnit

	// retries counts WithRetry re-run attempts; failedOps counts operations
	// that passed validation but ultimately returned an error (see
	// CumulativeStats).
	retries   atomic.Int64
	failedOps atomic.Int64

	// planCache is the cross-run plan and schedule cache (WithPlanCache;
	// nil when disabled). One instance per handle, shared by every engine
	// of the pool — core.PlanCache is safe for concurrent use.
	planCache *core.PlanCache
}

// execUnit is one poolable executor: an engine plus the input headers and
// result-gathering scratch its runs read while in flight. Exactly one
// operation owns a unit between checkout and release, so nothing here needs
// locking.
type execUnit struct {
	n  int
	nw *clique.Network

	// msgIn, keyIn and intIn are n row headers that borrow the caller's
	// rows for one operation (see borrowRows); each operation clears its
	// headers before returning, so a long-lived handle never pins a past
	// caller's memory. valKeys holds the unit's own keys, labelled from
	// plain values by stageValues.
	msgIn   [][]Message
	keyIn   [][]Key
	intIn   [][]int
	valKeys [][]Key
	sortOut []*core.SortResult
}

func newExecUnit(n int, cfg config) (*execUnit, error) {
	nw, err := buildNetwork(n, cfg)
	if err != nil {
		return nil, err
	}
	return &execUnit{
		n:       n,
		nw:      nw,
		msgIn:   make([][]Message, n),
		keyIn:   make([][]Key, n),
		intIn:   make([][]int, n),
		valKeys: make([][]Key, n),
	}, nil
}

// borrowRows points the n row headers hdr at the caller's rows, nil past
// len(rows) (validation has bounded len(rows) by n), and returns hdr. The
// protocol only reads its input rows, so nothing is copied; the caller
// clears hdr when the operation ends.
func borrowRows[T any](hdr, rows [][]T) [][]T {
	clear(hdr[copy(hdr, rows):])
	return hdr
}

// New builds a session handle for a congested clique of n >= 1 nodes, each
// of whose engines runs its nodes on GOMAXPROCS sweep workers. Handle-scoped
// options (WithStrictBandwidth, WithMaxConcurrency, WithRoundDeadline,
// WithPlanCache) shape the engine pool; call-scoped options (WithAlgorithm,
// WithRetry, fault injection) passed here become the handle's defaults,
// overridable per call. The first engine is built eagerly (so construction
// errors surface here); engines beyond the first are built lazily, only
// when operations actually overlap. Close the handle when done to release
// the engines' pooled buffers.
func New(n int, opts ...Option) (*Clique, error) {
	if err := validateNodeCount(n); err != nil {
		return nil, err
	}
	cfg, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	k := cfg.maxConcurrency
	if k < 1 {
		k = 1
	}
	u, err := newExecUnit(n, cfg)
	if err != nil {
		return nil, err
	}
	c := &Clique{
		n:        n,
		cfg:      cfg,
		slots:    make(chan struct{}, k),
		closedCh: make(chan struct{}),
		idle:     []*execUnit{u},
		engines:  []*execUnit{u},
	}
	if cfg.planCacheCap > 0 {
		c.planCache = core.NewPlanCache(cfg.planCacheCap)
	}
	for i := 0; i < k; i++ {
		c.slots <- struct{}{}
	}
	return c, nil
}

// N returns the clique size the handle was built for.
func (c *Clique) N() int { return c.n }

// MaxConcurrency returns the handle's engine-pool capacity: the maximum
// number of operations that can execute in parallel on it (see
// WithMaxConcurrency).
func (c *Clique) MaxConcurrency() int { return cap(c.slots) }

// Close waits for every in-flight operation to complete, releases all pooled
// engine buffers and marks the handle unusable: operations started after
// Close — including ones already waiting for an engine — fail with an error
// wrapping ErrClosed. Close is idempotent; the first call performs the
// drain.
func (c *Clique) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closedCh)
	c.mu.Unlock()

	// Drain the semaphore: every in-flight operation holds one token and
	// returns it on completion, so owning all of them proves quiescence.
	for i := 0; i < cap(c.slots); i++ {
		<-c.slots
	}

	c.mu.Lock()
	engines := c.engines
	c.idle = nil
	c.mu.Unlock()
	var firstErr error
	for _, u := range engines {
		if err := u.nw.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// CumulativeStats returns the aggregated cost of every operation that
// completed successfully on this handle, merged across the engine pool:
// totals summed across operations, maxima taken over operations; failed and
// cancelled operations are not counted. Operations still in flight are not
// included until they complete. Each result's own Stats field remains the
// per-operation view.
func (c *Clique) CumulativeStats() CumulativeStats {
	c.mu.Lock()
	engines := slices.Clone(c.engines)
	c.mu.Unlock()
	var total clique.Cumulative
	for _, u := range engines {
		total.Merge(u.nw.CumulativeMetrics())
	}
	cs := statsFromCumulative(total)
	cs.Retries = c.retries.Load()
	cs.FailedOperations = c.failedOps.Load()
	if c.planCache != nil {
		cs.PlanCacheHits, cs.PlanCacheMisses, cs.PlanCacheInvalidations = c.planCache.Counters()
	}
	return cs
}

// checkout obtains exclusive ownership of one executor, building a new one
// if none is idle and the pool is below capacity. The caller must release
// the unit when the operation completes. A cancelled context fails the wait;
// a closed handle fails with ErrClosed.
func (c *Clique) checkout(ctx context.Context) (*execUnit, error) {
	var done <-chan struct{}
	if ctx != nil {
		// Fail a pre-cancelled context deterministically (the select below
		// chooses randomly among ready cases).
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("congestedclique: operation cancelled: %w", err)
		}
		done = ctx.Done()
	}
	select {
	case <-c.closedCh:
		return nil, ErrClosed
	case <-done:
		return nil, fmt.Errorf("congestedclique: operation cancelled while waiting for an engine: %w", ctx.Err())
	case <-c.slots:
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.slots <- struct{}{} // hand the token back to the draining Close
		return nil, ErrClosed
	}
	if k := len(c.idle); k > 0 {
		u := c.idle[k-1]
		c.idle[k-1] = nil
		c.idle = c.idle[:k-1]
		c.mu.Unlock()
		return u, nil
	}
	c.mu.Unlock()
	// No idle unit but a free token: grow the pool. Holding a token bounds
	// the number of units ever built by the pool capacity. Construction runs
	// outside mu — it is the expensive part, and serializing it would stall
	// concurrent releases.
	u, err := newExecUnit(c.n, c.cfg)
	if err != nil {
		c.slots <- struct{}{}
		return nil, err
	}
	c.mu.Lock()
	c.engines = append(c.engines, u)
	c.mu.Unlock()
	return u, nil
}

// release checks a unit back into the pool and returns its semaphore token.
func (c *Clique) release(u *execUnit) {
	c.mu.Lock()
	c.idle = append(c.idle, u)
	c.mu.Unlock()
	c.slots <- struct{}{}
}

// runOp is the execution wrapper every operation body runs under: it checks
// an engine out of the pool, arms the call's fault plan (first attempt
// only), runs body, and — when the failure is transient (see ErrTransient)
// and the call carries a WithRetry budget — re-runs on a freshly
// checked-out engine with exponential backoff. Failures are classified
// before the retry decision, so the error a caller finally sees satisfies
// errors.Is(err, ErrTransient) exactly when a (larger) retry budget could
// have absorbed it. Engine-level cumulative statistics only ever count
// completed runs, so a retried operation contributes exactly its successful
// attempt.
func runOp[T any](c *Clique, ctx context.Context, cfg config, body func(*execUnit) (T, error)) (T, error) {
	var zero T
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if werr := sleepBackoff(ctx, cfg.retryBackoff, attempt-1); werr != nil {
				err = werr
				break
			}
		}
		var u *execUnit
		u, err = c.checkout(ctx)
		if err != nil {
			// Pool-level failure (closed handle, cancelled wait): permanent.
			break
		}
		var res T
		res, err = func() (T, error) {
			defer func() {
				if len(cfg.faults) > 0 {
					// Disarm before the unit returns to the pool: a plan the
					// run consumed is already gone, and one that never ran
					// (body failed before the engine run) must not leak into
					// another caller's operation.
					u.nw.SetFaultPlan(nil)
				}
				c.release(u)
			}()
			if attempt == 0 && len(cfg.faults) > 0 {
				u.nw.SetFaultPlan(&clique.FaultPlan{Faults: cfg.faults})
			}
			return body(u)
		}()
		if err == nil {
			return res, nil
		}
		err = classifyTransient(err)
		if attempt >= cfg.retries || !errors.Is(err, ErrTransient) {
			break
		}
	}
	c.failedOps.Add(1)
	return zero, err
}

// sleepBackoff sleeps the exponential backoff of retry number retry
// (0-based): backoff << retry, capped at 16 doublings. A cancelled context
// cuts the sleep short and fails the operation.
func sleepBackoff(ctx context.Context, backoff time.Duration, retry int) error {
	if backoff <= 0 {
		return nil
	}
	if retry > 16 {
		retry = 16
	}
	t := time.NewTimer(backoff << retry)
	defer t.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-t.C:
		return nil
	case <-done:
		return fmt.Errorf("congestedclique: operation cancelled during retry backoff: %w", ctx.Err())
	}
}

// validateFaultCfg rejects malformed injection schedules (out-of-range
// target nodes, and so on) before an engine is checked out; fault-free calls
// pay nothing.
func validateFaultCfg(n int, cfg config) error {
	if len(cfg.faults) == 0 {
		return nil
	}
	plan := clique.FaultPlan{Faults: cfg.faults}
	if err := plan.Validate(n); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidInstance, err)
	}
	return nil
}

// callConfig layers per-call options over the handle defaults.
func (c *Clique) callConfig(opts []Option) (config, error) {
	return applyCallOptions(c.cfg, opts)
}

// routeValidatorPool recycles the validation scratch across calls and
// handles: validation runs before an engine is checked out (so malformed
// inputs never occupy one), which means concurrent calls validate
// concurrently and cannot share a per-handle scratch.
var routeValidatorPool = sync.Pool{New: func() interface{} { return new(routeValidator) }}

// validateRoute checks the Problem 3.1 preconditions using pooled scratch.
func validateRoute(n int, msgs [][]Message) error {
	v := routeValidatorPool.Get().(*routeValidator)
	err := v.validate(n, msgs)
	routeValidatorPool.Put(v)
	return err
}

// Route solves the Information Distribution Task (Problem 3.1): msgs[i] are
// the messages originating at node i (at most n per node, each destined to a
// node in [0, n)), and the result lists what every node received. The
// default algorithm is the paper's deterministic 16-round solution
// (Theorem 3.7); see WithAlgorithm for the 10-round low-computation variant
// (Theorem 5.4) and the demand-aware planner.
func (c *Clique) Route(ctx context.Context, msgs [][]Message, opts ...Option) (*RouteResult, error) {
	cfg, err := c.callConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := validateRoute(c.n, msgs); err != nil {
		return nil, err
	}
	if err := validateFaultCfg(c.n, cfg); err != nil {
		return nil, err
	}
	return runOp(c, ctx, cfg, func(u *execUnit) (*RouteResult, error) {
		return u.route(ctx, cfg, msgs, c.planCache)
	})
}

// route is the routing pipeline body; the caller owns the unit and has
// validated msgs.
func (u *execUnit) route(ctx context.Context, cfg config, msgs [][]Message, pc *core.PlanCache) (*RouteResult, error) {
	inputs := borrowRows(u.msgIn, msgs)
	defer clear(inputs)

	// Under AlgorithmAuto the demand-aware planner classifies the instance
	// once, centrally (the plan is a pure function of the instance, so every
	// node dispatching on it agrees on the schedule — see
	// internal/core/planner.go for the model-honesty note). With a plan cache
	// the fingerprint lookup replaces re-planning: a validated hit (exact
	// instance compare, never fingerprint trust alone) reuses the cached
	// verdict, seeds the engine's shared-compute cache for this one run, and
	// — for pipeline instances — replays the captured announcement schedule,
	// skipping the schedule-establishment rounds. A miss plans as usual and
	// captures for next time.
	var (
		plan     core.RoutePlan
		fp       core.Fingerprint
		cacheHit bool
	)
	if cfg.algorithm == AlgorithmAuto {
		if pc != nil {
			var hit *core.RouteHit
			fp, hit = pc.LookupRoute(u.n, inputs)
			if hit != nil {
				cacheHit = true
				plan = hit.Plan
				plan.Sched = hit.Sched
				if hit.Shared.Len() > 0 {
					u.nw.ArmSharedSeed(hit.Shared)
					// Disarm on every exit: a seed the run consumed is gone
					// already, and one that never ran (the run failed before
					// starting) must not leak into another caller's operation.
					defer u.nw.ArmSharedSeed(clique.SharedSnapshot{})
				}
			}
		}
		if !cacheHit {
			plan = core.PlanRoute(u.n, inputs)
			if pc != nil && plan.Strategy == core.StrategyPipeline {
				plan.Capture = core.NewRouteScheduleCapture(u.n)
			}
		}
		if pc != nil {
			plan.Census = true
			plan.CensusHasFP = true
			plan.CensusFP = fp.Hash
		}
	}

	// The program shape follows from the plan: a strategy written as a step
	// program (empty, direct, broadcast — fresh verdict or cache hit alike)
	// runs under RunRounds, with no stack or length-n buffer per node;
	// everything else — the pipeline arm, and the other algorithms, whose
	// plan is the zero value — is a blocking program, a coroutine per node
	// under Run. The same sweep workers execute both. The step run's view of
	// the instance is built only here, after the verdict, so pipeline-bound
	// instances never pay for it. Every node's deliveries are a slice core
	// allocated for this run, so they become the result rows as they are.
	outputs := make([][]Message, u.n)
	var runErr error
	stepped := core.SparseStepCapable(plan.Strategy)
	if stepped {
		sd, buildErr := core.NewSparseDemand(u.n, inputs)
		if buildErr != nil {
			return nil, buildErr
		}
		run, buildErr := core.NewSparseRouteRun(sd, plan)
		if buildErr != nil {
			return nil, buildErr
		}
		runErr = u.nw.RunRoundsContext(ctx, run.Step)
		if runErr == nil {
			for i := 0; i < u.n; i++ {
				outputs[i] = run.Output(i)
			}
		}
		// A step program cannot go on into the blocking plan-free arm: a hit
		// the nodes' row check aborted reruns as a blocking program, which
		// pays the aborted round and that arm in one run. (The exact compare
		// of the lookup makes this unreachable here.)
		stepped = !errors.Is(runErr, core.ErrHitAborted)
	}
	if !stepped {
		// The program captures this copy: a RoutePlan is too large to be
		// captured by value, and the copy moves to the heap only on this
		// branch, not on the step programs' path.
		plan := plan
		runErr = u.nw.RunContext(ctx, func(nd *clique.Node) error {
			var (
				out  []Message
				rErr error
			)
			switch cfg.algorithm {
			case Deterministic:
				out, rErr = core.Route(nd, inputs[nd.ID()])
			case LowCompute:
				out, rErr = core.LowComputeRoute(nd, inputs[nd.ID()])
			case AlgorithmAuto:
				out, rErr = core.AutoRoute(nd, inputs[nd.ID()], plan)
			default:
				rErr = fmt.Errorf("congestedclique: unsupported algorithm %v", cfg.algorithm)
			}
			if rErr != nil {
				return rErr
			}
			outputs[nd.ID()] = out
			return nil
		})
	}
	if runErr != nil {
		return nil, runErr
	}
	if pc != nil && cfg.algorithm == AlgorithmAuto && !cacheHit {
		// Only a fully successful run is stored: the captured schedule (if
		// any) is complete, and the shared-compute snapshot holds exactly the
		// colorings and balance plans this instance established.
		pc.StoreRoute(fp, u.n, inputs, plan, plan.Capture, u.nw.CaptureShared())
	}

	for i, out := range outputs {
		if len(out) == 0 {
			outputs[i] = nil
		}
	}
	return &RouteResult{Delivered: outputs, Strategy: plan.Strategy, Stats: statsFromMetrics(u.nw.Metrics())}, nil
}

// Sort sorts the values of the clique: values[i] are node i's keys (at most
// n per node). Node i's batch of the globally sorted sequence is returned in
// Batches[i]. The default algorithm is the paper's 37-round deterministic
// Algorithm 4 (Theorem 4.5). LowCompute runs Algorithm 4 with Theorem 5.4
// as its Step 6 router: 31 rounds, the same batches.
// WithAlgorithm(AlgorithmAuto) consults the demand-aware sorting planner,
// which diverts pre-sorted and small-domain instances to cheaper schedules
// with identical output and runs everything else as LowCompute does
// (SortResult.Strategy reports the choice).
func (c *Clique) Sort(ctx context.Context, values [][]int64, opts ...Option) (*SortResult, error) {
	return c.sortValues(ctx, values, opts, nil)
}

// sortValues is Sort with an optional per-node epilogue (see sortStaged):
// the one path of Sort and of every sorting-based corollary.
func (c *Clique) sortValues(ctx context.Context, values [][]int64, opts []Option, ep epilogue) (*SortResult, error) {
	cfg, err := c.callConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := validateValues(c.n, values); err != nil {
		return nil, err
	}
	if err := validateFaultCfg(c.n, cfg); err != nil {
		return nil, err
	}
	return runOp(c, ctx, cfg, func(u *execUnit) (*SortResult, error) {
		return u.sortStaged(ctx, cfg, u.stageValues(values), c.planCache, ep)
	})
}

// SortKeys is Sort for callers that already carry Key structures (for
// example to preserve their own Origin/Seq bookkeeping).
func (c *Clique) SortKeys(ctx context.Context, keys [][]Key, opts ...Option) (*SortResult, error) {
	cfg, err := c.callConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := validateSortingInstance(c.n, keys); err != nil {
		return nil, err
	}
	if err := validateFaultCfg(c.n, cfg); err != nil {
		return nil, err
	}
	return runOp(c, ctx, cfg, func(u *execUnit) (*SortResult, error) {
		defer clear(u.keyIn)
		return u.sortStaged(ctx, cfg, borrowRows(u.keyIn, keys), c.planCache, nil)
	})
}

// sortStaged runs the sorting pipeline on n input rows (the caller owns the
// unit). A non-nil epilogue ep runs on every node right after its sort, in
// the same run, so a corollary is planned, cached and charged exactly as Sort
// is; it forces the blocking program.
func (u *execUnit) sortStaged(ctx context.Context, cfg config, inputs [][]Key, pc *core.PlanCache, ep epilogue) (*SortResult, error) {
	if u.sortOut == nil {
		u.sortOut = make([]*core.SortResult, u.n)
	}
	results := u.sortOut

	// Under AlgorithmAuto the sorting planner classifies the instance once,
	// centrally (the plan is a pure function of the instance, so every
	// node dispatching on it agrees on the schedule — see
	// internal/core/planner_sort.go for the model-honesty note). The plan
	// cache stores the verdict, the shared-compute snapshot and — for
	// pipeline instances — the Algorithm 4 schedule the miss captured into
	// plan.Capture, which a hit's plan.Sched replays from Step 5; instances
	// with non-canonical Origin/Seq labels (possible via SortKeys) bypass the
	// cache entirely, since the fingerprint only covers values.
	var (
		plan      core.SortPlan
		fp        core.Fingerprint
		cacheable bool
		cacheHit  bool
	)
	if cfg.algorithm == AlgorithmAuto {
		if pc != nil {
			var hit *core.SortHit
			fp, hit, cacheable = pc.LookupSort(u.n, inputs)
			if hit != nil {
				cacheHit = true
				plan = hit.Plan
				if hit.Shared.Len() > 0 {
					u.nw.ArmSharedSeed(hit.Shared)
					// Disarm on every exit (see route): a seed that never ran
					// must not leak into another caller's operation.
					defer u.nw.ArmSharedSeed(clique.SharedSnapshot{})
				}
			}
		}
		if !cacheHit {
			plan = core.PlanSort(u.n, inputs)
		}
		if pc != nil {
			plan.Census = true
			if cacheable {
				plan.CensusHasFP = true
				plan.CensusFP = fp.Hash
			}
		}
	}

	// The program shape follows from the plan, as in route (the zero plan of
	// the other algorithms is not step-capable), unless an epilogue needs the
	// blocking program.
	var runErr error
	stepped := ep == nil && core.SparseSortStepCapable(plan.Strategy)
	if stepped {
		run, buildErr := core.NewSparseSortRun(u.n, inputs, plan)
		if buildErr != nil {
			return nil, buildErr
		}
		runErr = u.nw.RunRoundsContext(ctx, run.Step)
		if runErr == nil {
			for i := range results {
				results[i] = run.Result(i)
			}
		}
		// An aborted hit reruns as a blocking program, as in route.
		stepped = !errors.Is(runErr, core.ErrHitAborted)
	}
	if !stepped {
		sorter, route := nodeSorter(cfg.algorithm, plan)
		runErr = u.nw.RunContext(ctx, func(nd *clique.Node) error {
			res, sErr := sorter(nd, inputs[nd.ID()])
			if sErr != nil {
				return sErr
			}
			results[nd.ID()] = res
			if ep != nil {
				return ep(nd, res, route)
			}
			return nil
		})
	}
	if runErr != nil {
		return nil, runErr
	}
	if pc != nil && cfg.algorithm == AlgorithmAuto && cacheable && !cacheHit {
		// An epilogue's shared computations are keyed by rounds no hit
		// reaches again; the entry keeps only the sort's.
		pc.StoreSort(fp, u.n, inputs, plan, u.nw.CaptureShared().Filter(core.SortShared))
	}

	// Every batch is a slice core allocated for this run, so it becomes the
	// result row as it is.
	out := &SortResult{
		Batches:  make([][]Key, u.n),
		Starts:   make([]int, u.n),
		Strategy: plan.Strategy,
		Stats:    statsFromMetrics(u.nw.Metrics()),
	}
	for i, res := range results {
		out.Total = res.Total
		out.Starts[i] = res.Start
		if len(res.Batch) > 0 {
			out.Batches[i] = res.Batch
		}
	}
	clear(results)
	return out, nil
}

// nodeSorter is the per-node sorter of alg — Algorithm 4 with Theorem 3.7
// (Deterministic) or Theorem 5.4 (LowCompute) as Step 6's router, or
// AutoSort on plan, AlgorithmAuto's verdict — and that Step 6 router.
func nodeSorter(alg Algorithm, plan core.SortPlan) (func(clique.Exchanger, []Key) (*core.SortResult, error), router) {
	switch alg {
	case LowCompute:
		return core.LowComputeSort, core.LowComputeRoute
	case AlgorithmAuto:
		return func(ex clique.Exchanger, keys []Key) (*core.SortResult, error) {
			return core.AutoSort(ex, keys, plan)
		}, core.LowComputeRoute
	default:
		return core.Sort, core.Route
	}
}

// router is a per-node solution of Problem 3.1 (core.Route,
// core.LowComputeRoute).
type router = func(clique.Exchanger, []Message) ([]Message, error)

// epilogue is a sorting-based corollary's per-node step, run on the node's
// sort result with Step 6's router (see nodeSorter). Selection and mode
// keep node 0's answer, which every node shares; Rank keeps every node's.
type epilogue = func(clique.Exchanger, *core.SortResult, router) error

// Rank computes, for every input value, its index in the sorted sequence of
// distinct values present in the system; duplicate values share an index
// (Corollary 4.6). It costs the call's Sort, plan cache included, plus one
// broadcast round plus one route back (Theorem 3.7 under Deterministic,
// Theorem 5.4 under LowCompute and AlgorithmAuto).
func (c *Clique) Rank(ctx context.Context, values [][]int64, opts ...Option) (*RankResult, error) {
	ranks := make([][]int, c.n)
	var distinct int
	res, err := c.sortValues(ctx, values, opts, func(ex clique.Exchanger, res *core.SortResult, route router) error {
		r, err := core.Rank(ex, res, route)
		if err != nil {
			return err
		}
		id := ex.ID()
		if id == 0 {
			distinct = r.DistinctTotal
		}
		if id < len(values) {
			if len(r.Ranks) != len(values[id]) {
				return fmt.Errorf("congestedclique: node %d received %d ranks for %d input values", id, len(r.Ranks), len(values[id]))
			}
			ranks[id] = make([]int, len(values[id]))
			for j := range ranks[id] {
				ranks[id][j] = r.Ranks[j]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RankResult{Ranks: ranks, DistinctTotal: distinct, Stats: res.Stats}, nil
}

// SelectKth returns the key of global rank k (0-based) among all input
// values, together with the execution statistics: the call's Sort plus one
// broadcast round.
func (c *Clique) SelectKth(ctx context.Context, values [][]int64, k int, opts ...Option) (Key, Stats, error) {
	return sharedAnswer(c, ctx, values, opts, func(ex clique.Exchanger, res *core.SortResult) (Key, error) {
		return core.Select(ex, res, k)
	})
}

// Median returns the lower median of all input values, as SelectKth does.
func (c *Clique) Median(ctx context.Context, values [][]int64, opts ...Option) (Key, Stats, error) {
	return sharedAnswer(c, ctx, values, opts, core.Median)
}

// Mode returns the most frequent value among all inputs (smallest value wins
// ties), computed by the call's Sort plus one summary round.
func (c *Clique) Mode(ctx context.Context, values [][]int64, opts ...Option) (*ModeResult, error) {
	mode, stats, err := sharedAnswer(c, ctx, values, opts, core.Mode)
	if err != nil {
		return nil, err
	}
	return &ModeResult{Value: mode.Value, Count: mode.Count, Stats: stats}, nil
}

// sharedAnswer runs an epilogue whose answer every node shares (a selection
// or a mode) and returns node 0's.
func sharedAnswer[T any](c *Clique, ctx context.Context, values [][]int64, opts []Option, answer func(clique.Exchanger, *core.SortResult) (T, error)) (T, Stats, error) {
	var out T
	res, err := c.sortValues(ctx, values, opts, func(ex clique.Exchanger, res *core.SortResult, _ router) error {
		v, err := answer(ex, res)
		if ex.ID() == 0 {
			out = v
		}
		return err
	})
	if err != nil {
		return *new(T), Stats{}, err
	}
	return out, res.Stats, nil
}

// CountSmallKeys counts keys drawn from a small domain [0, domain) in two
// rounds of single-word messages (Section 6.3). The domain must satisfy
// domain * ceil(log2(n+1))^2 <= n.
func (c *Clique) CountSmallKeys(ctx context.Context, values [][]int, domain int, opts ...Option) (*HistogramResult, error) {
	cfg, err := c.callConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := validateSmallKeys(c.n, values, domain); err != nil {
		return nil, err
	}
	if err := validateFaultCfg(c.n, cfg); err != nil {
		return nil, err
	}
	return runOp(c, ctx, cfg, func(u *execUnit) (*HistogramResult, error) {
		inputs := borrowRows(u.intIn, values)
		var counts []int64
		runErr := u.nw.RunContext(ctx, func(nd *clique.Node) error {
			res, cErr := core.SmallKeyCount(nd, inputs[nd.ID()], domain)
			if cErr != nil {
				return cErr
			}
			if nd.ID() == 0 {
				counts = res.Counts
			}
			return nil
		})
		clear(inputs)
		if runErr != nil {
			return nil, runErr
		}
		return &HistogramResult{Counts: counts, Stats: statsFromMetrics(u.nw.Metrics())}, nil
	})
}

// stageValues labels plain values into the unit's own keys, attaching
// Origin/Seq labels (the caller owns the unit and has validated the shape).
func (u *execUnit) stageValues(values [][]int64) [][]Key {
	inputs := u.valKeys
	for i := 0; i < u.n; i++ {
		if i < len(values) && len(values[i]) > 0 {
			s := inputs[i]
			if cap(s) < len(values[i]) {
				s = make([]Key, len(values[i]))
			} else {
				s = s[:len(values[i])]
			}
			for j, v := range values[i] {
				s[j] = Key{Value: v, Origin: i, Seq: j}
			}
			inputs[i] = s
		} else {
			inputs[i] = inputs[i][:0]
		}
	}
	return inputs
}

// validateNodeCount is the shared n >= 1 precondition.
func validateNodeCount(n int) error {
	if n <= 0 {
		return fmt.Errorf("%w: need at least one node, got %d", ErrInvalidInstance, n)
	}
	return nil
}

// validateSmallKeys checks the Section 6.3 preconditions without touching an
// engine: the row shape, the domain feasibility bound (delegated to
// core.CheckSmallKeyDomain, the single source of truth the engine itself
// enforces), and that every value lies in [0, domain). A malformed call is
// rejected here, before a pool checkout.
func validateSmallKeys(n int, values [][]int, domain int) error {
	if len(values) > n {
		return fmt.Errorf("%w: %d input slots for %d nodes", ErrInvalidInstance, len(values), n)
	}
	if err := core.CheckSmallKeyDomain(n, domain); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidInstance, err)
	}
	for i, vs := range values {
		for _, v := range vs {
			if v < 0 || v >= domain {
				return fmt.Errorf("%w: node %d holds key %d outside domain [0,%d)", ErrInvalidInstance, i, v, domain)
			}
		}
	}
	return nil
}

// validateValues checks the Problem 4.1 shape for plain-value inputs.
func validateValues(n int, values [][]int64) error {
	if len(values) > n {
		return fmt.Errorf("%w: %d input slots for %d nodes", ErrInvalidInstance, len(values), n)
	}
	for i, vs := range values {
		if len(vs) > n {
			return fmt.Errorf("%w: node %d holds %d keys, Problem 4.1 allows at most n=%d", ErrInvalidInstance, i, len(vs), n)
		}
	}
	return nil
}

// routeValidator is the reusable scratch of validateRoute: a dense bitmap
// handles the common case of per-node sequence numbers in [0, len(msgs[i]))
// with zero allocation, and the rare out-of-window sequence numbers fall
// back to a reusable sorted scan — no per-node map is ever allocated, even
// on full-load instances.
type routeValidator struct {
	recv []int
	bits []uint64
	seqs []int
}

// validate checks the Problem 3.1 preconditions.
func (v *routeValidator) validate(n int, msgs [][]Message) error {
	if len(msgs) > n {
		return fmt.Errorf("%w: %d input slots for %d nodes", ErrInvalidInstance, len(msgs), n)
	}
	if cap(v.recv) < n {
		v.recv = make([]int, n)
	} else {
		v.recv = v.recv[:n]
		clear(v.recv)
	}
	for src, ms := range msgs {
		if len(ms) > n {
			return fmt.Errorf("%w: node %d sends %d messages, Problem 3.1 allows at most n=%d", ErrInvalidInstance, src, len(ms), n)
		}
		words := (len(ms) + 63) / 64
		if cap(v.bits) < words {
			v.bits = make([]uint64, words)
		} else {
			v.bits = v.bits[:words]
			clear(v.bits)
		}
		v.seqs = v.seqs[:0]
		for _, m := range ms {
			if m.Src != src {
				return fmt.Errorf("%w: message (%d->%d #%d) listed under node %d", ErrInvalidInstance, m.Src, m.Dst, m.Seq, src)
			}
			if m.Dst < 0 || m.Dst >= n {
				return fmt.Errorf("%w: message destination %d out of range [0,%d)", ErrInvalidInstance, m.Dst, n)
			}
			if uint(m.Seq) < uint(len(ms)) {
				w, b := m.Seq>>6, uint(m.Seq)&63
				if v.bits[w]&(1<<b) != 0 {
					return fmt.Errorf("%w: node %d has two messages with sequence number %d", ErrInvalidInstance, src, m.Seq)
				}
				v.bits[w] |= 1 << b
			} else {
				v.seqs = append(v.seqs, m.Seq)
			}
			v.recv[m.Dst]++
		}
		if len(v.seqs) > 1 {
			slices.Sort(v.seqs)
			for i := 1; i < len(v.seqs); i++ {
				if v.seqs[i] == v.seqs[i-1] {
					return fmt.Errorf("%w: node %d has two messages with sequence number %d", ErrInvalidInstance, src, v.seqs[i])
				}
			}
		}
	}
	for dst, r := range v.recv {
		if r > n {
			return fmt.Errorf("%w: node %d would receive %d messages, Problem 3.1 allows at most n=%d", ErrInvalidInstance, dst, r, n)
		}
	}
	return nil
}

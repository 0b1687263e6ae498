// Package congestedclique is a library implementation of
//
//	Christoph Lenzen,
//	"Optimal Deterministic Routing and Sorting on the Congested Clique",
//	PODC 2013 (arXiv:1207.1852).
//
// It simulates a congested clique of n nodes — a fully connected synchronous
// network in which every directed edge carries O(log n) bits per round — and
// provides the paper's deterministic constant-round algorithms on top of it:
//
//   - Route: the Information Distribution Task (every node sends and receives
//     up to n messages) in at most 16 rounds (Theorem 3.7), or in 10 rounds
//     (the theorem bounds 12) with near-linear local computation
//     (Theorem 5.4),
//   - Sort: sorting n keys per node so that node i learns the i-th batch of
//     the global order, in 37 rounds (Theorem 4.5), or in 31 with the
//     Theorem 5.4 router at Algorithm 4's Step 6,
//   - Rank, SelectKth, Median, Mode: the rank-in-union variant and its
//     corollaries (Corollary 4.6),
//   - CountSmallKeys: the two-round counting protocol for keys of o(log n)
//     bits (Section 6.3),
//   - a demand-aware routing planner (AlgorithmAuto): Route calls classify
//     their instance and dispatch sparse, one-to-many and empty demand to
//     fast paths, everything else to the 10-round Theorem 5.4 pipeline,
//     reporting the choice in RouteResult.Strategy.
//
// # Session API
//
// The primary entry point is the Clique session handle: New(n, opts...)
// builds the simulated clique once — n nodes, delivery arenas, metric
// buffers — and its methods (Route, Sort, SortKeys, Rank, SelectKth, Median,
// Mode, CountSmallKeys) run an unbounded stream of operations on that one
// engine. Every method takes a context.Context: cancelling it fails the
// in-flight operation deterministically (every node observes an error
// wrapping ctx.Err(); none is left parked at the round barrier) and leaves
// the handle usable for further calls.
//
// Handle lifetime and ownership: a Clique owns a pool of engines until
// Close, which waits for in-flight operations to drain and then releases
// the pooled delivery buffers; operations on a closed handle fail with
// ErrClosed. Methods are safe for concurrent use. By default operations
// serialize on a single engine; New(n, WithMaxConcurrency(k)) lets up to k
// independent operations run in parallel on one handle, each on its own
// engine checked out of a lazily-grown pool, with results bit-identical to
// serial execution. Each operation runs the per-node protocol for all n
// nodes on the engine's GOMAXPROCS sweep workers (a node's blocking program
// is a coroutine of its worker), verifies nothing exceeds the bandwidth model, and
// returns both the protocol output and the execution statistics (rounds,
// per-edge words, traffic) that the paper's bounds are stated in;
// CumulativeStats aggregates them across the handle's lifetime, merged over
// the engine pool.
//
// Options split by scope: engine shape and handle state — WithStrictBandwidth,
// WithMaxConcurrency, WithRoundDeadline, WithPlanCache — are
// fixed per handle and must be passed to New, while WithAlgorithm, WithRetry
// and the fault-injection options may be passed either to New (as the
// handle's defaults) or to an individual call. Passing a handle-scoped option
// to a call returns an error. The comparison baselines of the paper's
// introduction are not algorithms of this package; cmd/cliquebench
// (experiment E5) measures them.
//
// Message and Key are the protocol's own types: a Route or SortKeys reads the
// caller's rows in place, for the duration of the call only, and never
// writes to them. All returned results (delivered messages, sorted batches,
// statistics) are plain values owned by the caller — fresh slices allocated
// for that call; no result aliases engine memory or another call's result,
// so results stay valid across later calls on the same handle and after
// Close.
// (This differs from the internal engine layer, where received packet views
// expire when the run they were delivered in ends.)
//
// The package-level functions of the same names are one-shot conveniences:
// each builds a throwaway handle, runs the single operation with a background
// context, and closes the handle again. Results and statistics are identical
// to the session path bit for bit.
package congestedclique

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
)

// Message is one unit of the Information Distribution Task (Problem 3.1):
// Payload must travel from node Src to node Dst. Seq distinguishes messages
// with the same endpoints; (Src, Dst, Seq) must be unique per message, and
// deliveries are sorted by it. It is the protocol's own message type, so a
// Route hands the caller's rows to the nodes without copying them.
type Message = core.Message

// Key is one key of the sorting problem (Problem 4.1). Origin and Seq
// identify the key's position in the input (they are assigned by the library
// when sorting plain values) and break ties between equal values: keys are
// ordered by (Value, Origin, Seq), which is what Less reports. It is the
// protocol's own key type, so SortKeys hands the caller's rows to the nodes
// without copying them.
type Key = core.Key

// Algorithm selects which routing/sorting algorithm an operation uses.
type Algorithm int

// The values 3 and 4 are retired and rejected as unknown, so a stale integer
// never silently selects another algorithm.
const (
	// Deterministic is the paper's main contribution: 16-round routing
	// (Theorem 3.7) and 37-round sorting (Theorem 4.5).
	Deterministic Algorithm = iota + 1
	// LowCompute is the Section 5 routing variant: 10 rounds (the theorem
	// bounds 12) with O(n log n) local computation and memory (Theorem 5.4),
	// at every n ≥ 9 (non-square n through Theorem 3.7's V1/V2/corner
	// decomposition; smaller cliques are one 4-round Corollary 3.4 group, as
	// under Deterministic). It also
	// moves fewer words than Theorem 3.7 (3.28M against 4.73M for a full
	// load at n=256), which is why AlgorithmAuto's pipeline arm runs it.
	// Sort and SortKeys under LowCompute run Algorithm 4 with this router as
	// Step 6 (Algorithm 4 uses its router as a black box): 31 rounds instead
	// of 37, with batches identical to Deterministic's. The sorting-based
	// corollaries (Rank, SelectKth, Median, Mode) are epilogues on that Sort,
	// and Rank returns its ranks through this router: Rank takes 42 rounds
	// instead of 54, the others 32 instead of 38.
	LowCompute
	// AlgorithmAuto is the demand-aware planner: each Route, Sort or
	// SortKeys call classifies its instance and dispatches to the cheapest
	// strategy that still produces the contractual output. Route instances
	// (total messages, per-pair multiplicity, source skew) divert to a
	// direct-send fast path, a scatter/relay path for one-to-many demand, or
	// a zero-round path for empty instances; Sort instances (pre-sortedness,
	// distinct-value census) divert to a two-round rank redistribution when
	// the rows already partition the global order, or to the Section 6.3
	// counting protocol when the distinct values fit its feasibility bound.
	// Everything else runs the full pipeline: Theorem 5.4 for Route, with
	// statistics bit-identical to LowCompute (10 rounds), and Algorithm 4
	// with Theorem 5.4 as Step 6's router for Sort, with statistics
	// bit-identical to LowCompute (31 rounds) and batches identical to
	// Deterministic's. RouteResult.Strategy and
	// SortResult.Strategy report the choice; see ARCHITECTURE.md for the
	// dispatch rules. The sorting-based corollaries (Rank, SelectKth,
	// Median, Mode) are epilogues on the planned Sort, and Rank returns its
	// ranks through Theorem 5.4: a pre-sorted instance's Mode or Median takes
	// 3 rounds and its Rank 13. CountSmallKeys (Section 6.3) does not sort
	// and is the same protocol under every algorithm.
	AlgorithmAuto Algorithm = 5
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case Deterministic:
		return "deterministic"
	case LowCompute:
		return "low-compute"
	case AlgorithmAuto:
		return "auto"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// RouteStrategy identifies the delivery strategy the demand-aware planner
// (AlgorithmAuto) selected for one Route execution. The zero value means the
// planner was not consulted — the operation ran under an explicitly chosen
// algorithm — and prints as "unplanned"; the other values print as the
// names cliquebench scen shows.
type RouteStrategy = core.RouteStrategy

const (
	// StrategyPipeline is the paper's full balancing pipeline in its
	// 10-round Theorem 5.4 form, selected for full-load and heavily skewed
	// instances. When the planner picks it, statistics are bit-identical to
	// LowCompute.
	StrategyPipeline RouteStrategy = core.StrategyPipeline
	// StrategyDirect delivers every message over its own source-destination
	// edge; the planner picks it when the largest per-(source,destination)
	// load fits one frame and total demand is below the full-load regime.
	StrategyDirect RouteStrategy = core.StrategyDirect
	// StrategyBroadcast scatters the messages of few sources across all
	// nodes in one round and delivers from the relays; the planner picks it
	// for one-to-many (broadcast/multicast) demand.
	StrategyBroadcast RouteStrategy = core.StrategyBroadcast
	// StrategyEmpty is the degenerate no-traffic instance: zero rounds.
	StrategyEmpty RouteStrategy = core.StrategyEmpty
)

// SortStrategy identifies the strategy the demand-aware sorting planner
// (AlgorithmAuto) selected for one Sort or SortKeys execution. The zero
// value means the planner was not consulted — the operation ran under an
// explicitly chosen algorithm — and prints as "unplanned"; the other values
// print as the names cliquebench scen shows.
type SortStrategy = core.SortStrategy

const (
	// SortStrategyPipeline is the paper's full Algorithm 4 with Theorem 5.4
	// as Step 6's router (31 rounds), selected for general instances. When
	// the planner picks it, statistics are bit-identical to LowCompute and
	// batches to Deterministic.
	SortStrategyPipeline SortStrategy = core.SortStrategyPipeline
	// SortStrategyPresorted skips the pipeline when the input rows already
	// partition the global order (node i's keys all precede node i+1's,
	// possibly after a free local sort): two rank-balanced redistribution
	// rounds produce the contractual batches.
	SortStrategyPresorted SortStrategy = core.SortStrategyPresorted
	// SortStrategySmallDomain handles duplicate-heavy instances whose
	// distinct values fit the Section 6.3 feasibility bound: the two-round
	// counting protocol plus a per-origin prefix pins every key's exact
	// global rank, and two delivery rounds finish — four rounds total.
	SortStrategySmallDomain SortStrategy = core.SortStrategySmallDomain
	// SortStrategyEmpty is the degenerate no-key instance: zero rounds.
	SortStrategyEmpty SortStrategy = core.SortStrategyEmpty
)

// ErrInvalidInstance is wrapped by errors reporting malformed problem
// instances (out-of-range destinations, too many messages per node, ...).
var ErrInvalidInstance = errors.New("congestedclique: invalid instance")

// ErrClosed is wrapped by errors reporting an operation on a Clique handle
// whose Close method has already been called.
var ErrClosed = errors.New("congestedclique: clique handle closed")

// ErrBandwidthExceeded is wrapped by errors reporting that an execution
// under WithStrictBandwidth sent more words over a directed edge in one
// round than the configured budget.
var ErrBandwidthExceeded = clique.ErrBandwidthExceeded

// ErrTransient classifies failures that a re-run of the same operation on a
// fresh engine can be expected to recover from: injected faults
// (ErrFaultInjected) and missed round deadlines (ErrRoundDeadline). Errors
// returned by the session layer satisfy errors.Is(err, ErrTransient) exactly
// for this family; WithRetry re-runs an operation only on transient
// failures. Permanent errors — validation failures, ErrClosed,
// ErrBandwidthExceeded, protocol errors and caller context cancellations —
// are never retried: re-running them would either fail identically or paper
// over a cancellation the caller asked for. See docs/RESILIENCE.md for the
// full taxonomy.
var ErrTransient = errors.New("congestedclique: transient failure")

// ErrRoundDeadline is wrapped by errors reporting that a round failed to
// turn over within the WithRoundDeadline budget; the message names the nodes
// that were being executed and held the round up. It is part of the
// ErrTransient family.
var ErrRoundDeadline = clique.ErrRoundDeadline

// ErrFaultInjected is wrapped by errors produced by the fault-injection
// options (WithInjectedPanic, WithInjectedCancel); the message names the
// faulty node and round. It is part of the ErrTransient family.
var ErrFaultInjected = clique.ErrFaultInjected

// transientError marks an error as retryable without disturbing the rest of
// its chain: errors.Is sees ErrTransient through the Is hook and every
// underlying sentinel (ErrFaultInjected, ErrRoundDeadline, ...) through
// Unwrap.
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }

func (t *transientError) Unwrap() error { return t.err }

// Is reports the ErrTransient identity.
func (t *transientError) Is(target error) bool { return target == ErrTransient }

// classifyTransient wraps err in the ErrTransient marker when it belongs to
// the transient family (see ErrTransient), and returns it unchanged
// otherwise.
func classifyTransient(err error) error {
	if errors.Is(err, clique.ErrFaultInjected) || errors.Is(err, clique.ErrRoundDeadline) {
		return &transientError{err: err}
	}
	return err
}

// Stats summarises the cost of one protocol execution in the congested
// clique's own currency.
type Stats struct {
	// Rounds is the number of synchronous communication rounds used.
	Rounds int
	// MaxEdgeWords is the largest number of 64-bit words carried by any
	// directed edge in any single round; the model requires this to stay a
	// constant independent of n.
	MaxEdgeWords int
	// MaxEdgeMessages is the largest number of packets on any edge per round.
	MaxEdgeMessages int
	// TotalMessages and TotalWords aggregate all traffic of the execution.
	TotalMessages int64
	TotalWords    int64
	// MaxStepsPerNode is the largest self-reported local computation count.
	// Only Theorem 5.4 reports it: LowCompute Routes and Sorts, and
	// AlgorithmAuto Routes and Sorts that run the pipeline arm.
	MaxStepsPerNode int64
	// MaxMemoryWordsPerNode is the largest self-reported resident memory in
	// words, populated by the same executions as MaxStepsPerNode.
	MaxMemoryWordsPerNode int64
}

// CumulativeStats aggregates the cost of every operation that completed
// successfully on one Clique handle: totals are summed across operations,
// maxima are taken over operations. Operations that returned an error
// (including cancelled ones) are not counted in the traffic aggregates — a
// retried operation that eventually succeeds contributes only its successful
// attempt. The Retries and FailedOperations counters track the failure side
// of the ledger.
type CumulativeStats struct {
	// Operations is the number of protocol executions that completed without
	// error.
	Operations int
	// Rounds is the total number of synchronous rounds across all operations.
	Rounds int
	// MaxEdgeWords and MaxEdgeMessages are maxima over all rounds of all
	// operations.
	MaxEdgeWords    int
	MaxEdgeMessages int
	// TotalMessages and TotalWords sum the traffic of all operations.
	TotalMessages int64
	TotalWords    int64
	// Retries counts re-run attempts made under WithRetry across the
	// handle's lifetime (a retried operation that succeeds on its second
	// attempt adds one here and one to Operations).
	Retries int64
	// FailedOperations counts operations that passed validation but
	// ultimately returned an error — after exhausting any retry budget.
	// Rejected calls (malformed instances, handle-scoped options passed per
	// call) are not counted; they never reached an engine.
	FailedOperations int64
	// PlanCacheHits, PlanCacheMisses and PlanCacheInvalidations report the
	// WithPlanCache ledger: hits are lookups whose fingerprint matched AND
	// whose canonical demand sequence compared equal (validate-on-hit);
	// invalidations are fingerprint matches whose sequence did not compare
	// equal — a drifted instance or a hash collision — which evict the stale
	// entry and are also counted as misses. All zero unless the handle was
	// built with WithPlanCache.
	PlanCacheHits          int64
	PlanCacheMisses        int64
	PlanCacheInvalidations int64
}

func statsFromCumulative(c clique.Cumulative) CumulativeStats {
	return CumulativeStats{
		Operations:      c.Runs,
		Rounds:          c.Rounds,
		MaxEdgeWords:    c.MaxEdgeWords,
		MaxEdgeMessages: c.MaxEdgeMessages,
		TotalMessages:   c.TotalMessages,
		TotalWords:      c.TotalWords,
	}
}

func statsFromMetrics(m clique.Metrics) Stats {
	return Stats{
		Rounds:                m.Rounds,
		MaxEdgeWords:          m.MaxEdgeWords,
		MaxEdgeMessages:       m.MaxEdgeMessages,
		TotalMessages:         m.TotalMessages,
		TotalWords:            m.TotalWords,
		MaxStepsPerNode:       m.MaxStepsPerNode,
		MaxMemoryWordsPerNode: m.MaxMemoryWordsPerNode,
	}
}

// config collects the functional options of the public entry points.
// algorithm is call-scoped (a handle holds the default, an individual call
// may override it); strictBudget and maxConcurrency shape the engine pool and
// are handle-scoped.
type config struct {
	algorithm      Algorithm
	strictBudget   int
	maxConcurrency int
	// roundDeadline arms the engine's round watchdog (WithRoundDeadline);
	// handle-scoped because it shapes every engine of the pool.
	roundDeadline time.Duration
	// retries and retryBackoff are the WithRetry budget: up to retries
	// re-runs after a transient failure, sleeping backoff, 2·backoff,
	// 4·backoff, ... between attempts. Call-scoped.
	retries      int
	retryBackoff time.Duration
	// faults is the call's injected fault schedule (WithInjectedPanic,
	// WithInjectedStall, WithInjectedCancel). It is applied to the first
	// attempt of an operation only, so a WithRetry re-run executes
	// fault-free. Call-scoped; a handle default injects into every
	// operation's first attempt (chaos soak testing).
	faults []clique.Fault
	// planCacheCap enables the cross-run plan cache, and with it the charged
	// planner census, with the given entry capacity (WithPlanCache; 0 = off).
	// Handle-scoped: the cache lives on the handle and is shared by every
	// engine of the pool.
	planCacheCap int
	// handleScoped is set to the option's name by every handle-scoped option
	// so that per-call application can reject it with a useful message. It is
	// reset before call options are applied and ignored by New.
	handleScoped string
}

func defaultConfig() config {
	return config{algorithm: Deterministic, maxConcurrency: 1}
}

// Option customises a Clique handle or (for call-scoped options) an
// individual operation; see the package documentation for which is which.
type Option func(*config) error

// WithAlgorithm selects the algorithm (default Deterministic). It may be
// passed to New (handle default) or to an individual call. Any value other
// than Deterministic, LowCompute and AlgorithmAuto is rejected as unknown.
func WithAlgorithm(a Algorithm) Option {
	return func(c *config) error {
		switch a {
		case Deterministic, LowCompute, AlgorithmAuto:
			c.algorithm = a
			return nil
		default:
			return fmt.Errorf("congestedclique: unknown algorithm %d", int(a))
		}
	}
}

// WithStrictBandwidth makes every execution fail if any directed edge ever
// carries more than words 64-bit words in one round. Use it to assert that a
// workload respects the O(log n)-bits-per-edge model. Handle-scoped: pass it
// to New.
func WithStrictBandwidth(words int) Option {
	return func(c *config) error {
		if words <= 0 {
			return fmt.Errorf("congestedclique: strict bandwidth must be positive, got %d", words)
		}
		c.strictBudget = words
		c.handleScoped = "WithStrictBandwidth"
		return nil
	}
}

// WithMaxConcurrency lets up to k independent operations execute in parallel
// on one Clique handle, backed by a lazily-grown pool of up to k engines
// (default 1: operations serialize, the behaviour of earlier versions).
// Results are bit-identical to serial execution for every k; each engine
// costs roughly what a k=1 handle costs (delivery arenas, staging buffers —
// O(n²) words under full load), so memory grows linearly in the concurrency
// actually used. Within one engine a run already keeps GOMAXPROCS sweep
// workers busy, so aggregate throughput is bounded
// by the cores — keep k at or below the number of genuinely overlapping
// callers the cores can serve.
// Handle-scoped: pass it to New.
func WithMaxConcurrency(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("congestedclique: max concurrency must be at least 1, got %d", k)
		}
		c.maxConcurrency = k
		c.handleScoped = "WithMaxConcurrency"
		return nil
	}
}

// WithPlanCache enables the handle's cross-run plan and schedule cache
// (default: off) with capacity entries, evicted least-recently-used. The
// cache applies to AlgorithmAuto operations only (the planner produces the
// cached verdicts; explicitly chosen algorithms bypass it silently) and is
// shared by every engine of the handle's pool.
//
// A cache entry stores the planner verdict, the pipeline's announcement
// schedule and the engine's schedule colorings, keyed by an order-sensitive
// fingerprint of the staged demand; on a hit the exact demand sequence is
// compared word for word before anything cached is reused
// (validate-on-hit), so a drifted instance or a hash collision is counted
// as an invalidation and replanned — a wrong schedule can never be
// executed. Validated pipeline hits skip the planner, the colorings and the
// exchange the Theorem 5.4 schedule records — the Step 5 count
// announcement (10 rounds become 8; at non-square n there is no schedule to
// record and hits run all 10). Sorting hits skip the planner and the
// colorings, and run Algorithm 4 from Step 5 with the delimiters, bucket
// counts and Step 6 and Step 7 announcements the miss learned: no
// sampling, no delimiter broadcast, no bucket-size aggregation, no Step 7
// announcement, so 31 rounds become 12 (14 at non-square n). The sorting
// corollaries (Rank, SelectKth, Median, Mode) are epilogues on that same
// Sort and share its entries: a repeat pays the Sort hit plus its epilogue.
// SortKeys instances carrying caller-assigned Origin/Seq labels bypass the
// cache (the canonical representation stores values only).
//
// Honest accounting: WithPlanCache arms the charged planner census on every
// AlgorithmAuto operation that misses the cache (and on the uncacheable
// ones: SortKeys with its own labels) — the
// O(1)-round aggregation that establishes the plan distributedly and
// carries the fingerprint (RouteCensusRounds for Route, SortCensusRounds for
// Sort) runs on the wire, its words and rounds land in the Stats, and every
// node verifies the distributed verdict against its plan — so cache
// advantage is reported net of planning cost. A hit pays only for payload:
// the host picks the candidate entry, and each node checks its own row
// against the (row length, row hash) pair the entry keeps for it, at no
// cost in rounds or words; a node whose row differs aborts the hit in its
// first round, and the operation finishes with the plan-free Theorem 5.4
// or LowComputeSort arm, that round charged. Without a plan cache the plan
// is computed centrally and charged nothing, keeping the goldens
// bit-identical; see internal/core/census.go and internal/core/hit.go for
// the protocols and the census's one documented on-faith quantity. The
// hit/miss/invalidation ledger is surfaced in CumulativeStats. Memory is
// bounded by capacity: a full-load n=256 route entry (demand sequence +
// schedule + colorings) is on the order of one megabyte. Handle-scoped:
// pass it to New.
func WithPlanCache(capacity int) Option {
	return func(c *config) error {
		if capacity < 1 {
			return fmt.Errorf("congestedclique: plan cache capacity must be at least 1, got %d", capacity)
		}
		c.planCacheCap = capacity
		c.handleScoped = "WithPlanCache"
		return nil
	}
}

// WithSparsePath does nothing.
//
// Deprecated: AlgorithmAuto picks the program shape from the plan. The fast
// strategies (empty, direct and broadcast Route; empty and presorted Sort)
// always run as step programs, which keep no stack per node — what this
// option used to switch on — and take
// Route and Sort to n in the tens of thousands on sparse instances (see
// docs/PERFORMANCE.md, "Scaling curve"). The option remains so that existing
// callers keep compiling.
func WithSparsePath() Option {
	return func(*config) error { return nil }
}

// Census round costs charged to every AlgorithmAuto operation of a handle
// built with WithPlanCache, whose census runs on the wire.
const (
	// RouteCensusRounds is the round cost the charged census adds to Route.
	RouteCensusRounds = core.RouteCensusRounds
	// SortCensusRounds is the round cost the charged census adds to Sort.
	SortCensusRounds = core.SortCensusRounds
)

// WithRoundDeadline arms a round watchdog on every engine of the handle: if
// any round of an operation fails to turn over within d, the operation fails
// with an error wrapping ErrRoundDeadline (part of the ErrTransient family)
// that names the nodes holding the round up, instead of hanging forever on a
// stalled node. d must comfortably exceed the longest
// legitimate round of the workload — the watchdog is a wall-clock safety
// net, so whether a run straddling the deadline fails is timing-dependent.
// It adds no allocations to fault-free operations. Handle-scoped: pass it to
// New. See docs/RESILIENCE.md for guidance on choosing d.
func WithRoundDeadline(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("congestedclique: round deadline must be positive, got %v", d)
		}
		c.roundDeadline = d
		c.handleScoped = "WithRoundDeadline"
		return nil
	}
}

// WithRetry gives an operation a transparent retry budget: after a failure
// in the ErrTransient family (injected fault, missed round deadline) the
// operation re-runs on a fresh engine checked out of the pool, up to n more
// times, sleeping backoff before the first retry and doubling it before each
// further one (exponential backoff; backoff may be zero for immediate
// retries). Permanent errors and caller context cancellations are returned
// immediately. A successful retry is invisible in the result — outputs are
// bit-identical to a fault-free run, and CumulativeStats traffic counts only
// the successful attempt — but is counted in CumulativeStats.Retries.
// Injected faults apply to the first attempt only, so a retried chaos run
// recovers deterministically. May be passed to New (handle default) or to an
// individual call.
func WithRetry(n int, backoff time.Duration) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("congestedclique: retry count must be non-negative, got %d", n)
		}
		if backoff < 0 {
			return fmt.Errorf("congestedclique: retry backoff must be non-negative, got %v", backoff)
		}
		c.retries = n
		c.retryBackoff = backoff
		return nil
	}
}

// WithInjectedPanic schedules a deterministic chaos fault: the chosen node
// panics at the end of its compute phase of the chosen round (its sends for
// that round are lost, exactly like a real crash), and the operation fails with
// an error wrapping ErrFaultInjected naming the node and round. The fault
// applies to the operation's first attempt only — a WithRetry re-run
// executes fault-free. May be passed to a call or, for chaos soaks, to New;
// multiple injection options combine into one fault plan. The node id is
// validated against the handle's n when the operation runs.
func WithInjectedPanic(node, round int) Option {
	return func(c *config) error {
		if round < 0 {
			return fmt.Errorf("congestedclique: injected panic round must be non-negative, got %d", round)
		}
		c.faults = append(slices.Clip(c.faults), clique.Fault{Kind: clique.FaultPanic, Node: node, Round: round})
		return nil
	}
}

// WithInjectedStall schedules a deterministic chaos fault: the chosen node
// is delayed by d at the end of its compute phase of the chosen round. A
// stall by itself only slows the operation down (results stay bit-identical
// to a fault-free run); combined with WithRoundDeadline, a stall longer than
// the deadline is converted into an ErrRoundDeadline failure, and the
// stalled node is woken immediately rather than sleeping out d. First
// attempt only, like WithInjectedPanic.
func WithInjectedStall(node, round int, d time.Duration) Option {
	return func(c *config) error {
		if round < 0 {
			return fmt.Errorf("congestedclique: injected stall round must be non-negative, got %d", round)
		}
		if d <= 0 {
			return fmt.Errorf("congestedclique: injected stall duration must be positive, got %v", d)
		}
		c.faults = append(slices.Clip(c.faults), clique.Fault{Kind: clique.FaultStall, Node: node, Round: round, Stall: d})
		return nil
	}
}

// WithInjectedCancel schedules a deterministic chaos fault: the operation is
// cancelled at the exact turn-over of the chosen round — after every node
// has published its sends, instead of delivering — failing with an error
// wrapping ErrFaultInjected. This is the deterministic analogue of a context
// cancellation landing mid-operation, and takes the same failure path.
// First attempt only, like WithInjectedPanic.
func WithInjectedCancel(round int) Option {
	return func(c *config) error {
		if round < 0 {
			return fmt.Errorf("congestedclique: injected cancel round must be non-negative, got %d", round)
		}
		c.faults = append(slices.Clip(c.faults), clique.Fault{Kind: clique.FaultCancel, Node: -1, Round: round})
		return nil
	}
}

func buildNetwork(n int, cfg config) (*clique.Network, error) {
	var opts []clique.Option
	if cfg.strictBudget > 0 {
		opts = append(opts, clique.WithStrictEdgeBudget(cfg.strictBudget))
	}
	if cfg.roundDeadline > 0 {
		opts = append(opts, clique.WithRoundDeadline(cfg.roundDeadline))
	}
	return clique.New(n, opts...)
}

func applyOptions(opts []Option) (config, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// applyCallOptions layers per-call options over the handle's defaults,
// rejecting handle-scoped ones.
func applyCallOptions(base config, opts []Option) (config, error) {
	cfg := base
	cfg.handleScoped = ""
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
		if cfg.handleScoped != "" {
			return cfg, fmt.Errorf("congestedclique: %s is handle-scoped; pass it to New, not to an individual call", cfg.handleScoped)
		}
	}
	return cfg, nil
}

package clique

import (
	"fmt"
	"time"
)

// config holds the tunable behaviour of a Network. It is populated through
// functional options so the zero configuration stays usable.
type config struct {
	// maxWordsPerEdge, when positive, makes the engine fail the run as soon as
	// any directed edge carries more than this many words in a single round.
	// Zero disables strict enforcement (loads are still recorded in Metrics).
	maxWordsPerEdge int
	// sharedCache enables the deterministic shared-computation cache exposed
	// through Exchanger.SharedComputeKeyed. Disabling it makes every node perform
	// the computation itself, which changes nothing observable except
	// simulator wall-clock time.
	sharedCache bool
	// recordPerRound controls whether Metrics.PerRound is populated. Disabling
	// it saves memory for very long executions.
	recordPerRound bool
	// workers bounds scheduling concurrency. For Network.RunRounds it is the
	// size of the worker pool that n logical nodes are multiplexed onto
	// (0 = GOMAXPROCS). For Network.Run it bounds, when 0 < workers < n, how
	// many node goroutines compute concurrently.
	workers int
	// roundDeadline, when positive, arms the round watchdog of the blocking
	// Run path: a round that fails to turn over within this duration fails
	// the run with an error wrapping ErrRoundDeadline naming the unarrived
	// nodes. Zero disables the watchdog.
	roundDeadline time.Duration
}

func defaultConfig() config {
	return config{
		maxWordsPerEdge: 0,
		sharedCache:     true,
		recordPerRound:  true,
		workers:         0,
	}
}

// Option customises a Network.
type Option func(*config) error

// WithStrictEdgeBudget makes the network fail the execution if any directed
// edge ever carries more than words words in one round. This is how tests
// assert that an algorithm respects the O(log n)-bits-per-edge model.
func WithStrictEdgeBudget(words int) Option {
	return func(c *config) error {
		if words <= 0 {
			return fmt.Errorf("clique: strict edge budget must be positive, got %d", words)
		}
		c.maxWordsPerEdge = words
		return nil
	}
}

// WithWorkers bounds scheduling concurrency to k goroutines. With RunRounds,
// the n logical nodes are multiplexed onto a pool of k workers (k = 0 picks
// GOMAXPROCS), so very large cliques run without one parked goroutine per
// node. With the blocking Run API, 0 < k < n additionally bounds how many of
// the n node goroutines compute at once; nodes parked at the round barrier
// do not count. Executions are deterministic for every choice of k.
func WithWorkers(k int) Option {
	return func(c *config) error {
		if k < 0 {
			return fmt.Errorf("clique: worker count must be non-negative, got %d", k)
		}
		c.workers = k
		return nil
	}
}

// WithRoundDeadline arms the round watchdog: if a round of a run (blocking
// or engine-driven) fails to turn over within d, the run fails with an error
// wrapping ErrRoundDeadline that names the nodes that had not arrived at the
// barrier, instead of hanging forever on a stalled or wedged node. Parked
// nodes and injected stalls are woken immediately; a node blocked inside its
// own compute phase cannot be reaped (goroutines are not killable) but the
// run's error reporting no longer waits on it reaching the barrier. d must
// exceed the longest legitimate round (compute plus delivery) of the
// workload, or healthy slow rounds will be reported as failures. The
// watchdog is a wall-clock mechanism: whether a run that straddles the
// deadline fails is timing-dependent, unlike injected faults, which are
// deterministic. RunRounds arms the same watchdog over its round loop: a
// fire fails the run and interrupts injected stalls, so the sweep finishes
// and returns the deadline error.
func WithRoundDeadline(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("clique: round deadline must be positive, got %v", d)
		}
		c.roundDeadline = d
		return nil
	}
}

// WithSharedCache enables or disables the deterministic shared-computation
// cache (see Exchanger.SharedComputeKeyed). It is enabled by default.
func WithSharedCache(enabled bool) Option {
	return func(c *config) error {
		c.sharedCache = enabled
		return nil
	}
}

// WithPerRoundStats enables or disables per-round statistics retention. It is
// enabled by default.
func WithPerRoundStats(enabled bool) Option {
	return func(c *config) error {
		c.recordPerRound = enabled
		return nil
	}
}

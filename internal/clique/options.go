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
	// workers is the number of sweep workers a run executes its n logical
	// nodes on (0 = GOMAXPROCS, never more than n), and the widest fan-out of
	// a round's delivery.
	workers int
	// roundDeadline, when positive, arms the round watchdog: a round that
	// fails to turn over within this duration fails the run with an error
	// wrapping ErrRoundDeadline naming the nodes being executed. Zero
	// disables the watchdog.
	roundDeadline time.Duration
}

func defaultConfig() config {
	return config{
		maxWordsPerEdge: 0,
		sharedCache:     true,
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

// WithWorkers sets the number of sweep workers: a run — of blocking programs
// (Run) or of step programs (RunRounds) alike — executes its n logical nodes
// on k goroutines, each responsible for a contiguous range of the nodes, and
// spreads a round's delivery over at most k. k = 0 picks GOMAXPROCS; more
// than n is n. Executions are deterministic for every choice of k.
func WithWorkers(k int) Option {
	return func(c *config) error {
		if k < 0 {
			return fmt.Errorf("clique: worker count must be non-negative, got %d", k)
		}
		c.workers = k
		return nil
	}
}

// WithRoundDeadline arms the round watchdog: if a round of a run (Run or
// RunRounds) fails to turn over within d, the run fails with an error
// wrapping ErrRoundDeadline that names the nodes whose compute phase was
// being executed at that moment — the ones holding the round up. The fire
// interrupts injected stalls at once, and the run ends when the sweep in
// progress does; a node wedged inside its own compute phase cannot be reaped
// (goroutines are not killable), and the run returns only once it lets go.
// d must exceed the longest legitimate round (compute plus delivery) of the
// workload, or healthy slow rounds will be reported as failures. The
// watchdog is a wall-clock mechanism: whether a run that straddles the
// deadline fails is timing-dependent, unlike injected faults, which are
// deterministic.
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

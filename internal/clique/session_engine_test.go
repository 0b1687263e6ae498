package clique

// Tests for the multi-run engine lifecycle backing the public session API:
// repeated runs on one Network, per-run state scoping, and context
// cancellation that releases every parked node.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunContextCancelMidRun cancels the context from inside a node program
// while every node is still looping on the barrier. The run must fail with an
// error wrapping context.Canceled on every node, no goroutine may stay
// parked, and the Network must remain usable for a follow-up run.
func TestRunContextCancelMidRun(t *testing.T) {
	t.Parallel()
	const n = 16
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = nw.RunContext(ctx, func(nd *Node) error {
		for r := 0; r < 1_000_000; r++ {
			if nd.ID() == 0 && r == 3 {
				cancel()
			}
			nd.Send((nd.ID()+1)%n, Packet{Word(r)})
			if _, err := nd.Exchange(); err != nil {
				return err
			}
		}
		return errors.New("round loop ran to completion despite cancellation")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want one wrapping context.Canceled", err)
	}

	// The engine must have recovered: a fresh run on the same Network works.
	if err := nw.Run(func(nd *Node) error {
		nd.Broadcast(Packet{Word(nd.ID())})
		_, err := nd.Exchange()
		return err
	}); err != nil {
		t.Fatalf("run after cancelled run: %v", err)
	}
	if m := nw.Metrics(); m.Rounds != 1 {
		t.Fatalf("metrics not reset after cancelled run: %+v", m)
	}
}

// TestRunContextPreCancelled verifies a context that is already over fails
// the run before any node program starts, and leaves the Network reusable.
func TestRunContextPreCancelled(t *testing.T) {
	t.Parallel()
	nw, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started atomic.Bool
	err = nw.RunContext(ctx, func(nd *Node) error {
		started.Store(true)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want one wrapping context.Canceled", err)
	}
	if started.Load() {
		t.Fatal("node program ran despite pre-cancelled context")
	}
	if err := nw.Run(func(nd *Node) error { return nil }); err != nil {
		t.Fatalf("run after pre-cancelled run: %v", err)
	}
}

// TestRunRoundsContextCancel cancels mid-run in engine-driven scheduling
// mode; the round loop must stop promptly and report the cancellation.
func TestRunRoundsContextCancel(t *testing.T) {
	t.Parallel()
	const n = 32
	nw, err := New(n, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = nw.RunRoundsContext(ctx, func(nd *Node, round int, inbox Inbox) (bool, error) {
		if nd.ID() == 0 && round == 2 {
			cancel()
		}
		nd.Send((nd.ID()+round)%n, Packet{Word(round)})
		return false, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want one wrapping context.Canceled", err)
	}
	if err := nw.RunRounds(func(nd *Node, round int, inbox Inbox) (bool, error) {
		return round >= 1, nil
	}); err != nil {
		t.Fatalf("RunRounds after cancelled run: %v", err)
	}
}

// TestMixedRunModesReuse alternates blocking Run and engine-driven RunRounds
// on one Network: the segment-mode delivery state of RunRounds must not leak
// into the following blocking run, and metrics must match a fresh Network's.
func TestMixedRunModesReuse(t *testing.T) {
	t.Parallel()
	const n = 12
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	blocking := func(nd *Node) error {
		nd.Broadcast(Packet{Word(nd.ID()), Word(7)})
		inbox, err := nd.Exchange()
		if err != nil {
			return err
		}
		if countPackets(inbox) != n {
			return fmt.Errorf("node %d received %d packets, want %d", nd.ID(), countPackets(inbox), n)
		}
		return nil
	}
	stepped := func(nd *Node, round int, inbox Inbox) (bool, error) {
		if round == 0 {
			nd.Broadcast(Packet{Word(nd.ID()), Word(7)})
			return false, nil
		}
		if countPackets(inbox) != n {
			return true, fmt.Errorf("node %d received %d packets, want %d", nd.ID(), countPackets(inbox), n)
		}
		return true, nil
	}

	if err := nw.Run(blocking); err != nil {
		t.Fatal(err)
	}
	blockingMetrics := nw.Metrics()
	if err := nw.RunRounds(stepped); err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(blocking); err != nil {
		t.Fatal(err)
	}
	again := nw.Metrics()
	if blockingMetrics.TotalWords != again.TotalWords || blockingMetrics.MaxEdgeWords != again.MaxEdgeWords {
		t.Fatalf("blocking run after RunRounds produced different metrics: %+v vs %+v", blockingMetrics, again)
	}
	if cum := nw.CumulativeMetrics(); cum.Runs != 3 {
		t.Fatalf("cumulative runs = %d, want 3", cum.Runs)
	}
}

// TestSharedCacheScopedPerRun pins the correctness rule that makes engine
// reuse safe: the shared-computation cache memoises colorings of the current
// run's demand matrices, which depend on the instance data, so a second run
// must recompute rather than observe the first run's values.
func TestSharedCacheScopedPerRun(t *testing.T) {
	t.Parallel()
	const n = 8
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	var calls atomic.Int64
	program := func(nd *Node) error {
		v := nd.SharedComputeKeyed(SharedKey{Label: "schedule"}, func() interface{} {
			return calls.Add(1)
		})
		if v.(int64) < 1 {
			return fmt.Errorf("unexpected shared value %v", v)
		}
		return nil
	}
	if err := nw.Run(program); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("first run computed %d times, want 1", got)
	}
	if err := nw.Run(program); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("second run must recompute (cache is per-run): %d total computations, want 2", got)
	}
}

// TestStrictBudgetFailureThenReuse drives a run into an engine-level strict
// budget failure and checks the next run on the same Network starts clean.
func TestStrictBudgetFailureThenReuse(t *testing.T) {
	t.Parallel()
	const n = 6
	nw, err := New(n, WithStrictEdgeBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		nd.Send((nd.ID()+1)%n, Packet{1, 2, 3})
		_, err := nd.Exchange()
		return err
	})
	if !errors.Is(err, ErrBandwidthExceeded) {
		t.Fatalf("want bandwidth violation, got %v", err)
	}
	if err := nw.Run(func(nd *Node) error {
		nd.Send((nd.ID()+1)%n, Packet{1})
		_, err := nd.Exchange()
		return err
	}); err != nil {
		t.Fatalf("run after budget failure: %v", err)
	}
}

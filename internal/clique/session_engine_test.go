package clique

// Tests for the multi-run engine lifecycle backing the public session API:
// repeated runs on one Network, per-run state scoping, and context
// cancellation that releases every parked node.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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

// TestRunAndRunRoundsInterleave alternates the two program shapes on one
// Network — blocking, step, blocking — at n 8, 64 and 8 again (so the pooled
// buffers change size under it too): nothing of a run, not the coroutines'
// views nor the workers', not an outbox, a ring slot or a counter, may leak
// into the next. Every run must receive the same records and report the same
// Metrics (PerRound included) and StepsPerNode as that program on a fresh
// engine.
func TestRunAndRunRoundsInterleave(t *testing.T) {
	t.Parallel()
	const rounds = 3
	type outcome struct {
		records [][][]Word // [node][round] canonical records
		metrics Metrics
		steps   map[int]int64
	}
	// One workload in both shapes: in round r node i sends to its r-th
	// successor and to node 0, and reports steps and memory.
	compute := func(nd *Node, r int) {
		n := nd.N()
		nd.Send((nd.ID()+r+1)%n, Packet{Word(nd.ID()), Word(r)})
		nd.Send(0, Packet{Word(r)})
		nd.CountSteps(nd.ID() + r + 1)
		nd.ReportMemory(10*nd.ID() + r)
	}
	run := func(nw *Network, stepped bool) (outcome, error) {
		n := nw.N()
		out := outcome{records: make([][][]Word, n)}
		for i := range out.records {
			out.records[i] = make([][]Word, rounds)
		}
		var err error
		if stepped {
			err = nw.RunRounds(func(nd *Node, r int, inbox Inbox) (bool, error) {
				if r > 0 {
					out.records[nd.ID()][r-1] = canonical(unbox(inbox))
				}
				if r == rounds {
					return true, nil
				}
				compute(nd, r)
				return false, nil
			})
		} else {
			err = nw.Run(func(nd *Node) error {
				for r := 0; r < rounds; r++ {
					compute(nd, r)
					ps, err := receive(nd, (nd.ID()+r)%2 == 0)
					if err != nil {
						return err
					}
					out.records[nd.ID()][r] = canonical(ps)
				}
				return nil
			})
		}
		out.metrics, out.steps = nw.Metrics(), nw.StepsPerNode()
		return out, err
	}
	for _, n := range []int{8, 64, 8} {
		fresh := map[bool]outcome{}
		for _, stepped := range []bool{false, true} {
			nw, err := New(n, WithWorkers(3))
			if err != nil {
				t.Fatal(err)
			}
			fresh[stepped], err = run(nw, stepped)
			nw.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		nw, err := New(n, WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		for i, stepped := range []bool{false, true, false} {
			got, err := run(nw, stepped)
			if err != nil {
				t.Fatalf("n=%d run %d (stepped=%v): %v", n, i, stepped, err)
			}
			if want := fresh[stepped]; !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d run %d (stepped=%v) on a used engine:\n%+v\nfresh engine:\n%+v", n, i, stepped, got, want)
			}
		}
		if cum := nw.CumulativeMetrics(); cum.Runs != 3 {
			t.Fatalf("cumulative runs = %d, want 3", cum.Runs)
		}
	}
}

// TestSharedCacheScopedPerRun pins the correctness rule that makes engine
// reuse safe: the shared-computation cache memoises colorings of the current
// run's demand matrices, which depend on the instance data, so a second run
// must recompute rather than observe the first run's values. Only node 0
// consults the cache: SharedComputeKeyed lets racing nodes compute the same
// key twice by design, so counting computations across nodes would pin the
// race, not the per-run scoping.
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
		if nd.ID() != 0 {
			return nil
		}
		want := calls.Load() + 1
		v := nd.SharedComputeKeyed(SharedKey{Label: "schedule"}, func() interface{} {
			return calls.Add(1)
		})
		if v.(int64) != want {
			return fmt.Errorf("shared value %v, want this run's computation %d", v, want)
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

// releasable is a shared value that records its release.
type releasable struct{ released bool }

func (r *releasable) Release() { r.released = true }

// TestSharedValuesReleasedAtNextRun pins the ownership rule of memoised
// values with a Release method: the next run releases what the last run
// computed, unless CaptureShared snapshotted that run or ArmSharedSeed
// supplied the value, since the plan cache keeps both beyond the run.
func TestSharedValuesReleasedAtNextRun(t *testing.T) {
	t.Parallel()
	const n = 4
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	// run memoises a fresh value under each key and returns what the run
	// saw under them.
	run := func(keys ...string) []*releasable {
		t.Helper()
		seen := make([]*releasable, len(keys))
		if err := nw.Run(func(nd *Node) error {
			for i, k := range keys {
				v := nd.SharedComputeKeyed(SharedKey{Label: k}, func() interface{} { return new(releasable) })
				if nd.ID() == 0 {
					seen[i] = v.(*releasable)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	first := run("a")
	second := run("a")
	if !first[0].released || second[0].released {
		t.Fatalf("released: first run's value %v, second's %v; want true, false", first[0].released, second[0].released)
	}
	snap := nw.CaptureShared()
	run("b")
	if second[0].released {
		t.Fatal("a value CaptureShared snapshotted was released")
	}
	nw.ArmSharedSeed(snap)
	seeded := run("a", "c")
	if seeded[0] != second[0] {
		t.Fatal("the seeded run did not see the seeded value")
	}
	run()
	if second[0].released || !seeded[1].released {
		t.Fatalf("released: seeded value %v, value computed beside it %v; want false, true", second[0].released, seeded[1].released)
	}
	// Close releases the last run's values under the same rule, so a fresh
	// engine carves from them; a snapshotted run keeps them all.
	nw.ArmSharedSeed(snap)
	last := run("a", "d")
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	if second[0].released || !last[1].released {
		t.Fatalf("released at Close: seeded value %v, value computed beside it %v; want false, true", second[0].released, last[1].released)
	}
	if nw, err = New(n); err != nil {
		t.Fatal(err)
	}
	captured := run("e")
	nw.CaptureShared()
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	if captured[0].released {
		t.Fatal("Close released a value CaptureShared snapshotted")
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

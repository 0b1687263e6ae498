package congestedclique

// Chaos at scale: the step scheduler's fault paths at n=4096 on the sparse
// route. A straggler stall under a generous watchdog is absorbed; a panic
// mid-round fails the attempt and the session retry re-runs it fault-free.
// Both recoveries must reproduce the fault-free golden bit for bit.

import (
	"context"
	"testing"
	"time"

	"congestedclique/internal/workload"
)

func TestSparsePathChaosAtScale(t *testing.T) {
	const n = 4096
	ri, err := workload.ScaleSparseRoute(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	msgs := ri.Msgs
	ctx := context.Background()

	golden, err := Route(n, msgs, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	if golden.Strategy != StrategyDirect {
		t.Fatalf("scale-sparse strategy %v, want direct", golden.Strategy)
	}

	t.Run("straggler-absorbed", func(t *testing.T) {
		cl, err := New(n, WithRoundDeadline(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		res, err := cl.Route(ctx, msgs, WithAlgorithm(AlgorithmAuto),
			WithInjectedStall(n/2, 0, 5*time.Millisecond))
		if err != nil {
			t.Fatalf("stalled run failed: %v", err)
		}
		routeResultEqual(t, "straggler-absorbed", res, golden)
	})

	t.Run("panic-then-retry", func(t *testing.T) {
		cl, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		res, err := cl.Route(ctx, msgs, WithAlgorithm(AlgorithmAuto),
			WithInjectedPanic(n/4, 1), WithRetry(1, 0))
		if err != nil {
			t.Fatalf("retried run failed: %v", err)
		}
		routeResultEqual(t, "panic-then-retry", res, golden)
		if got := cl.CumulativeStats().Retries; got != 1 {
			t.Fatalf("recovery took %d retries, want 1", got)
		}
	})
}

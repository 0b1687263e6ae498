package congestedclique

// The adversarial broadcast-gate pin: two instances that straddle the
// planner's BroadcastMaxRounds gate (workload.BroadcastGateRoute). Just under
// the gate the planner takes the broadcast fast path at exactly the round
// cap; one message per source past it the fast path is rejected and the
// Theorem 5.4 pipeline handles the skew — same deliveries, exactly its 10
// rounds and per-edge words a small constant.

import (
	"fmt"
	"testing"

	"congestedclique/internal/workload"
)

func TestBroadcastGate(t *testing.T) {
	t.Parallel()
	const n = 64
	for _, over := range []bool{false, true} {
		ri, err := workload.BroadcastGateRoute(n, over)
		if err != nil {
			t.Fatal(err)
		}
		msgs := ri.Msgs

		auto, err := Route(n, msgs, WithAlgorithm(AlgorithmAuto))
		if err != nil {
			t.Fatalf("over=%v: auto: %v", over, err)
		}
		det, err := Route(n, msgs)
		if err != nil {
			t.Fatalf("over=%v: deterministic: %v", over, err)
		}
		routeDeliveredEqual(t, fmt.Sprintf("gate over=%v", over), auto, det)

		if over {
			if auto.Strategy != StrategyPipeline {
				t.Fatalf("one past the gate: strategy %v, want pipeline", auto.Strategy)
			}
			lc, err := Route(n, msgs, WithAlgorithm(LowCompute))
			if err != nil {
				t.Fatalf("over=%v: low-compute: %v", over, err)
			}
			if auto.Stats != lc.Stats {
				t.Fatalf("pipeline fallback stats %+v diverge from LowCompute %+v", auto.Stats, lc.Stats)
			}
			// Theorem 5.4: the pipeline finishes in 10 rounds with constant
			// per-edge bandwidth.
			if auto.Stats.Rounds != 10 {
				t.Fatalf("pipeline used %d rounds, Theorem 5.4's schedule is 10", auto.Stats.Rounds)
			}
			if auto.Stats.MaxEdgeWords > 64 {
				t.Fatalf("pipeline per-edge load %d words is not a small constant", auto.Stats.MaxEdgeWords)
			}
		} else {
			if auto.Strategy != StrategyBroadcast {
				t.Fatalf("just under the gate: strategy %v, want broadcast", auto.Strategy)
			}
			// Exactly at the cap: one scatter round plus BroadcastMaxRounds-1
			// delivery rounds.
			if auto.Stats.Rounds != 8 {
				t.Fatalf("broadcast at the cap used %d rounds, want 8", auto.Stats.Rounds)
			}
		}
	}
}

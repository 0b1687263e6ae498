package congestedclique

// The adversarial broadcast-gate pin: two instances that straddle the
// planner's BroadcastMaxRounds gate (workload.BroadcastGateRoute). Just under
// the gate the planner takes the broadcast fast path at exactly the round
// cap; one message per source past it the fast path is rejected and the
// Theorem 3.7 pipeline handles the skew — same deliveries, rounds within the
// theorem bound and per-edge words a small constant.

import (
	"fmt"
	"testing"

	"congestedclique/internal/workload"
)

// instanceMessages converts a workload routing instance to the public
// message type.
func instanceMessages(ri *workload.RoutingInstance) [][]Message {
	msgs := make([][]Message, ri.N)
	for i, row := range ri.Msgs {
		msgs[i] = make([]Message, len(row))
		for j, m := range row {
			msgs[i][j] = Message{Src: m.Src, Dst: m.Dst, Seq: m.Seq, Payload: int64(m.Payload)}
		}
	}
	return msgs
}

func TestBroadcastGate(t *testing.T) {
	t.Parallel()
	const n = 64
	for _, over := range []bool{false, true} {
		ri, err := workload.BroadcastGateRoute(n, over)
		if err != nil {
			t.Fatal(err)
		}
		msgs := instanceMessages(ri)

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
			if auto.Stats != det.Stats {
				t.Fatalf("pipeline fallback stats %+v diverge from deterministic %+v", auto.Stats, det.Stats)
			}
			// Theorem 3.7: the pipeline finishes within 16 rounds with
			// constant per-edge bandwidth.
			if auto.Stats.Rounds > 16 {
				t.Fatalf("pipeline used %d rounds, Theorem 3.7 allows 16", auto.Stats.Rounds)
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

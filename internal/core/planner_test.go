package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"congestedclique/internal/clique"
)

// sparseInstance builds an instance with per messages per node, each pair
// carrying mult copies, destinations spread so the per-pair multiplicity is
// exactly mult.
func sparseInstance(n, pairsPerNode, mult int) [][]Message {
	msgs := make([][]Message, n)
	for src := 0; src < n; src++ {
		for p := 0; p < pairsPerNode; p++ {
			dst := (src + 1 + p) % n
			for k := 0; k < mult; k++ {
				msgs[src] = append(msgs[src], Message{Src: src, Dst: dst, Seq: len(msgs[src]), Payload: clique.Word(src*10_000 + len(msgs[src]))})
			}
		}
	}
	return msgs
}

func TestPlanRouteClassification(t *testing.T) {
	t.Parallel()
	const n = 64
	cases := []struct {
		name string
		msgs [][]Message
		want RouteStrategy
	}{
		{"empty-nil", nil, StrategyEmpty},
		{"empty-rows", make([][]Message, n), StrategyEmpty},
		{"sparse-mult1", sparseInstance(n, 2, 1), StrategyDirect},
		{"sparse-at-direct-boundary", sparseInstance(n, 1, DirectMaxMultiplicity), StrategyDirect},
		{"sparse-past-direct-boundary", sparseInstance(n, 1, DirectMaxMultiplicity+1), StrategyPipeline},
		{"full-load-permutations", sparseInstance(n, n, 1), StrategyPipeline},
		{"one-to-many", func() [][]Message {
			msgs := make([][]Message, n)
			for j := 0; j < n; j++ {
				msgs[0] = append(msgs[0], Message{Src: 0, Dst: 1 + j%4, Seq: j, Payload: clique.Word(j)})
			}
			return msgs
		}(), StrategyBroadcast},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			plan := PlanRoute(n, tc.msgs)
			if plan.Strategy != tc.want {
				t.Fatalf("strategy = %v (%s), want %v", plan.Strategy, plan.Reason, tc.want)
			}
			if plan.Reason == "" {
				t.Error("plan has no reason")
			}
		})
	}
}

// TestPlanRouteBroadcastRejectedByRounds pins the second half of the
// broadcast gate: sources within the cap whose scatter schedule would need
// too many delivery rounds fall back to the pipeline, and the recorded
// reason says so (not that the source count was exceeded).
func TestPlanRouteBroadcastRejectedByRounds(t *testing.T) {
	t.Parallel()
	const n = 64
	// 8 sources (exactly BroadcastSourceCap(64)) each send 8 messages to the
	// same sink: multiplicity 8 rejects direct, and the overlapping scatter
	// ranges pile 8 messages for the sink onto one relay, so delivery would
	// need 1+8 > BroadcastMaxRounds rounds.
	msgs := make([][]Message, n)
	for src := 0; src < 8; src++ {
		for k := 0; k < 8; k++ {
			msgs[src] = append(msgs[src], Message{Src: src, Dst: 0, Seq: k, Payload: clique.Word(src*100 + k)})
		}
	}
	plan := PlanRoute(n, msgs)
	if plan.ActiveSources != BroadcastSourceCap(n) {
		t.Fatalf("test instance has %d sources, want the cap %d", plan.ActiveSources, BroadcastSourceCap(n))
	}
	if plan.Strategy != StrategyPipeline {
		t.Fatalf("strategy = %v (%s), want pipeline", plan.Strategy, plan.Reason)
	}
	if !strings.Contains(plan.Reason, "scatter") {
		t.Fatalf("reason %q should name the scatter-rounds rejection, not the source cap", plan.Reason)
	}
	// The instance still routes correctly through the pipeline arm.
	runPlanned(t, msgs)
}

// TestPlanRouteVolumeGate pins the full-load gate: exactly n²/4 total
// messages is still fast-path eligible, one more is not — even when the
// per-pair multiplicity would allow direct sending.
func TestPlanRouteVolumeGate(t *testing.T) {
	t.Parallel()
	const n = 16
	budget := FastPathMaxTotal(n)
	perNode := budget / n // n/4 pairs per node, multiplicity 1
	at := sparseInstance(n, perNode, 1)
	if got := PlanRoute(n, at); got.Strategy != StrategyDirect || got.TotalMessages != budget {
		t.Fatalf("at gate: %+v, want direct with %d messages", got, budget)
	}
	over := sparseInstance(n, perNode, 1)
	extra := Message{Src: 0, Dst: (0 + 1 + perNode) % n, Seq: len(over[0]), Payload: 1}
	over[0] = append(over[0], extra)
	if got := PlanRoute(n, over); got.Strategy != StrategyPipeline {
		t.Fatalf("over gate: %v (%s), want pipeline", got.Strategy, got.Reason)
	}
	if got := PlanRoute(n, over); got.MaxPairMultiplicity != 0 {
		t.Fatalf("multiplicity computed above the volume gate: %+v", got)
	}
}

// TestPlanRouteCensus spot-checks the census fields.
func TestPlanRouteCensus(t *testing.T) {
	t.Parallel()
	const n = 16
	msgs := make([][]Message, n)
	add := func(src, dst int) {
		msgs[src] = append(msgs[src], Message{Src: src, Dst: dst, Seq: len(msgs[src]), Payload: 1})
	}
	add(0, 3)
	add(0, 3)
	add(0, 5)
	add(7, 3)
	plan := PlanRoute(n, msgs)
	if plan.TotalMessages != 4 || plan.ActiveSources != 2 || plan.ActiveSinks != 2 ||
		plan.MaxSendLoad != 3 || plan.MaxRecvLoad != 3 || plan.MaxPairMultiplicity != 2 {
		t.Fatalf("census wrong: %+v", plan)
	}
	if plan.Strategy != StrategyDirect || plan.Rounds() != 1 {
		t.Fatalf("plan wrong: %+v", plan)
	}
}

// runPlanned executes AutoRoute with the instance's plan on a real engine
// and verifies exact delivery; it returns the metrics and the plan.
func runPlanned(t *testing.T, msgs [][]Message) (clique.Metrics, RoutePlan) {
	t.Helper()
	n := len(msgs)
	plan := PlanRoute(n, msgs)
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	results := make([][]Message, n)
	err = nw.Run(func(nd *clique.Node) error {
		out, rErr := AutoRoute(nd, msgs[nd.ID()], plan)
		if rErr != nil {
			return rErr
		}
		results[nd.ID()] = out
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyDelivery(t, msgs, results)
	return nw.Metrics(), plan
}

func TestDirectRouteDeliversExactly(t *testing.T) {
	t.Parallel()
	for _, mult := range []int{1, 2, DirectMaxMultiplicity} {
		mult := mult
		t.Run(fmt.Sprintf("mult=%d", mult), func(t *testing.T) {
			t.Parallel()
			msgs := sparseInstance(32, 2, mult)
			m, plan := runPlanned(t, msgs)
			if plan.Strategy != StrategyDirect {
				t.Fatalf("strategy %v, want direct", plan.Strategy)
			}
			if m.Rounds != 1 {
				t.Errorf("rounds = %d, want 1 (one-frame direct send)", m.Rounds)
			}
			// A pair's messages travel as one frame: the busiest edge carries
			// exactly mult messages of directWordsPerMessage words, within
			// the DirectFrameWords budget.
			if m.MaxEdgeWords != mult*directWordsPerMessage || m.MaxEdgeWords > DirectFrameWords {
				t.Errorf("max edge words = %d, want %d (<= %d)", m.MaxEdgeWords, mult*directWordsPerMessage, DirectFrameWords)
			}
			if m.MaxEdgeMessages != mult {
				t.Errorf("max edge messages = %d, want %d", m.MaxEdgeMessages, mult)
			}
			wantWords := int64(plan.TotalMessages * directWordsPerMessage)
			if m.TotalWords != wantWords {
				t.Errorf("total words = %d, want %d", m.TotalWords, wantWords)
			}
		})
	}
}

func TestBroadcastRouteDeliversExactly(t *testing.T) {
	t.Parallel()
	const n = 32
	// Node 0 multicasts n messages over 4 sinks: multiplicity n/4 is far
	// past the direct boundary, a single source passes the broadcast gate.
	msgs := make([][]Message, n)
	for j := 0; j < n; j++ {
		msgs[0] = append(msgs[0], Message{Src: 0, Dst: 1 + j%4, Seq: j, Payload: clique.Word(1000 + j)})
	}
	m, plan := runPlanned(t, msgs)
	if plan.Strategy != StrategyBroadcast {
		t.Fatalf("strategy %v (%s), want broadcast", plan.Strategy, plan.Reason)
	}
	if m.Rounds != 1+plan.RelayRounds {
		t.Errorf("rounds = %d, want %d", m.Rounds, 1+plan.RelayRounds)
	}
	if m.MaxEdgeWords > relayWordsPerMessage {
		t.Errorf("max edge words = %d, want <= %d", m.MaxEdgeWords, relayWordsPerMessage)
	}
	// Every message crosses exactly two edges of relayWordsPerMessage words.
	wantWords := int64(plan.TotalMessages * relayWordsPerMessage * 2)
	if m.TotalWords != wantWords {
		t.Errorf("total words = %d, want %d", m.TotalWords, wantWords)
	}
}

func TestEmptyPlanZeroRounds(t *testing.T) {
	t.Parallel()
	m, plan := runPlanned(t, make([][]Message, 16))
	if plan.Strategy != StrategyEmpty {
		t.Fatalf("strategy %v, want empty", plan.Strategy)
	}
	if m.Rounds != 0 || m.TotalWords != 0 {
		t.Errorf("empty instance cost rounds=%d words=%d, want zero", m.Rounds, m.TotalWords)
	}
}

// TestAutoRoutePipelineMatchesLowComputeRoute pins that the pipeline arm is
// the very same code path as LowComputeRoute (Theorem 5.4): identical
// outputs and identical metrics on a full-load instance, at a square and a
// non-square n.
func TestAutoRoutePipelineMatchesLowComputeRoute(t *testing.T) {
	t.Parallel()
	for _, n := range []int{25, 30} {
		msgs := buildRoutingInstance(n, n, 99)
		mAuto, plan := runPlanned(t, msgs)
		if plan.Strategy != StrategyPipeline {
			t.Fatalf("n=%d: strategy %v, want pipeline", n, plan.Strategy)
		}
		mLow := runLowComputeRouting(t, msgs)
		if mAuto.Rounds != 12 || mAuto.Rounds != mLow.Rounds || mAuto.MaxEdgeWords != mLow.MaxEdgeWords ||
			mAuto.MaxEdgeMessages != mLow.MaxEdgeMessages || mAuto.TotalMessages != mLow.TotalMessages ||
			mAuto.TotalWords != mLow.TotalWords {
			t.Fatalf("n=%d: pipeline arm metrics %+v diverge from LowComputeRoute %+v", n, mAuto, mLow)
		}
	}
}

// TestAutoRoutePlanMismatch pins the defensive errors: a plan that does not
// match the instance fails the run instead of deadlocking or mis-delivering.
func TestAutoRoutePlanMismatch(t *testing.T) {
	t.Parallel()
	const n = 16
	msgs := sparseInstance(n, 1, DirectMaxMultiplicity+1)
	plan := PlanRoute(n, msgs)
	plan.Strategy = StrategyDirect // sabotage: the multiplicity exceeds the direct frame budget
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *clique.Node) error {
		_, rErr := AutoRoute(nd, msgs[nd.ID()], plan)
		return rErr
	})
	if err == nil {
		t.Fatal("mismatched direct plan did not fail")
	}
}

// TestPlanRouteRandomSparseAgainstRoute cross-checks AutoRoute against the
// deterministic router on random sparse instances spanning all strategies.
func TestPlanRouteRandomSparseAgainstRoute(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(25)
		msgs := make([][]Message, n)
		total := rng.Intn(FastPathMaxTotal(n) + 1)
		for k := 0; k < total; k++ {
			src := rng.Intn(n)
			if len(msgs[src]) >= n {
				continue
			}
			dst := rng.Intn(n)
			msgs[src] = append(msgs[src], Message{Src: src, Dst: dst, Seq: len(msgs[src]), Payload: clique.Word(rng.Int63n(1 << 40))})
		}
		// Clamp receive overloads by dropping from the busiest rows.
		recv := make([]int, n)
		for src := range msgs {
			kept := msgs[src][:0]
			for _, m := range msgs[src] {
				if recv[m.Dst] < n {
					recv[m.Dst]++
					m.Seq = len(kept)
					kept = append(kept, m)
				}
			}
			msgs[src] = kept
		}
		runPlanned(t, msgs)
	}
}

package congestedclique

// Tests for the demand-aware planner (AlgorithmAuto) at the public API
// level: misclassification edges (empty instances, the direct-send
// boundary), the bit-identical-to-Deterministic guarantee whenever the
// pipeline is selected, the fast paths' word advantage on sparse demand, and
// a fuzzer comparing planned results against the deterministic router.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"congestedclique/internal/core"
	"congestedclique/internal/verify"
	"congestedclique/internal/workload"
)

// routeDeliveredEqual deep-compares two route results' deliveries.
func routeDeliveredEqual(t *testing.T, label string, got, want *RouteResult) {
	t.Helper()
	if len(got.Delivered) != len(want.Delivered) {
		t.Fatalf("%s: delivered to %d nodes, want %d", label, len(got.Delivered), len(want.Delivered))
	}
	for i := range want.Delivered {
		if len(got.Delivered[i]) != len(want.Delivered[i]) {
			t.Fatalf("%s: node %d received %d messages, want %d", label, i, len(got.Delivered[i]), len(want.Delivered[i]))
		}
		for j := range want.Delivered[i] {
			if got.Delivered[i][j] != want.Delivered[i][j] {
				t.Fatalf("%s: node %d message %d = %+v, want %+v", label, i, j, got.Delivered[i][j], want.Delivered[i][j])
			}
		}
	}
}

// scenarioMessages builds a workload scenario's routing instance.
func scenarioMessages(t *testing.T, name string, n int, seed int64) [][]Message {
	t.Helper()
	sc, ok := workload.ScenarioByName(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	ri, err := sc.Build(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ri.Msgs
}

// TestAutoEmptyInstance pins the degenerate edge: an instance with no
// messages costs zero rounds and zero words under the planner.
func TestAutoEmptyInstance(t *testing.T) {
	t.Parallel()
	for _, msgs := range [][][]Message{nil, make([][]Message, 64), {{}, {}}} {
		res, err := Route(64, msgs, WithAlgorithm(AlgorithmAuto))
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyEmpty {
			t.Fatalf("strategy = %v, want empty", res.Strategy)
		}
		if res.Stats.Rounds != 0 || res.Stats.TotalWords != 0 || res.Stats.TotalMessages != 0 {
			t.Fatalf("empty instance cost %+v, want all-zero", res.Stats)
		}
		for i, d := range res.Delivered {
			if len(d) != 0 {
				t.Fatalf("node %d received %d messages from an empty instance", i, len(d))
			}
		}
	}
}

// TestAutoDirectBoundary pins the planner's direct-send boundary through the
// public API: a single hot sink fed at exactly the boundary multiplicity
// goes direct; one past the boundary (with many sources) falls back to the
// pipeline, which is LowCompute's Theorem 5.4 router stat for stat. Both
// deliver exactly what the deterministic router delivers.
func TestAutoDirectBoundary(t *testing.T) {
	t.Parallel()
	const n = 64
	ctx := context.Background()
	cl, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The catalog's hotspot-sink scenario sits exactly on the boundary.
	at := scenarioMessages(t, "hotspot-sink", n, 1)
	resAt, err := cl.Route(ctx, at, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	if resAt.Strategy != StrategyDirect {
		t.Fatalf("boundary instance: strategy = %v, want direct", resAt.Strategy)
	}
	det, err := cl.Route(ctx, at)
	if err != nil {
		t.Fatal(err)
	}
	if det.Strategy != 0 || det.Strategy.String() != "unplanned" {
		t.Fatalf("deterministic run reported strategy %v, want unplanned zero value", det.Strategy)
	}
	routeDeliveredEqual(t, "at-boundary", resAt, det)

	// 12 sources sending 5 copies each to the sink: multiplicity 5 is past
	// the direct budget and 12 sources exceed the broadcast gate (64/8 = 8),
	// so the planner must keep the pipeline.
	over := make([][]Message, n)
	for src := 1; src <= 12; src++ {
		for k := 0; k < 5; k++ {
			over[src] = append(over[src], Message{Src: src, Dst: 0, Seq: k, Payload: int64(src*100 + k)})
		}
	}
	resOver, err := cl.Route(ctx, over, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	if resOver.Strategy != StrategyPipeline {
		t.Fatalf("over-boundary instance: strategy = %v, want pipeline", resOver.Strategy)
	}
	detOver, err := cl.Route(ctx, over)
	if err != nil {
		t.Fatal(err)
	}
	routeDeliveredEqual(t, "over-boundary", resOver, detOver)
	lcOver, err := cl.Route(ctx, over, WithAlgorithm(LowCompute))
	if err != nil {
		t.Fatal(err)
	}
	if resOver.Stats != lcOver.Stats {
		t.Fatalf("pipeline fallback stats %+v diverge from LowCompute %+v", resOver.Stats, lcOver.Stats)
	}
}

// TestAutoUniformFullLoadBitIdentical is the acceptance pin: on the uniform
// full-load golden workload the planner selects the pipeline, which is
// Theorem 5.4: it reproduces the LowCompute goldens (the same lcRounds and
// lcMEW TestLowComputeStatsInvariants holds LowCompute to) and LowCompute's
// stats bit for bit, and delivers exactly what Deterministic delivers.
func TestAutoUniformFullLoadBitIdentical(t *testing.T) {
	for _, g := range statsGoldens {
		g := g
		if g.n < 8 {
			continue // the planner's catalog sizes; goldens below that are tiny-clique only
		}
		t.Run(fmt.Sprintf("n=%d", g.n), func(t *testing.T) {
			t.Parallel()
			msgs := benchRouteWorkload(g.n)
			res, err := Route(g.n, msgs, WithAlgorithm(AlgorithmAuto))
			if err != nil {
				t.Fatal(err)
			}
			if res.Strategy != StrategyPipeline {
				t.Fatalf("strategy = %v, want pipeline on full load", res.Strategy)
			}
			if s := res.Stats; s.Rounds != g.lcRounds || s.MaxEdgeWords != g.lcMEW ||
				s.TotalMessages != g.lcMsgs || s.TotalWords != g.lcWords {
				t.Errorf("AlgorithmAuto stats %+v diverge from LowCompute goldens %+v", s, g)
			}
			lc, err := Route(g.n, msgs, WithAlgorithm(LowCompute))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats != lc.Stats {
				t.Errorf("AlgorithmAuto stats %+v diverge from LowCompute %+v", res.Stats, lc.Stats)
			}
			det, err := Route(g.n, msgs)
			if err != nil {
				t.Fatal(err)
			}
			routeDeliveredEqual(t, "uniform-full", res, det)
		})
	}
}

// TestAutoSparseWordAdvantage is the other acceptance pin: on the sparse
// catalog scenario the planner's direct path moves at least 5x fewer words
// than the full pipeline on the same instance.
func TestAutoSparseWordAdvantage(t *testing.T) {
	t.Parallel()
	const n = 256
	msgs := scenarioMessages(t, "sparse", n, 1)
	ctx := context.Background()
	cl, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	auto, err := cl.Route(ctx, msgs, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	if auto.Strategy != StrategyDirect {
		t.Fatalf("sparse scenario: strategy = %v, want direct", auto.Strategy)
	}
	det, err := cl.Route(ctx, msgs)
	if err != nil {
		t.Fatal(err)
	}
	routeDeliveredEqual(t, "sparse", auto, det)
	if auto.Stats.TotalWords*5 > det.Stats.TotalWords {
		t.Fatalf("sparse words: auto %d vs pipeline %d — advantage below 5x",
			auto.Stats.TotalWords, det.Stats.TotalWords)
	}
	if auto.Stats.Rounds >= det.Stats.Rounds {
		t.Fatalf("sparse rounds: auto %d vs pipeline %d", auto.Stats.Rounds, det.Stats.Rounds)
	}
}

// TestAutoRouteKeepsWideSeq is the regression pin for Seq truncation: Seq is
// the caller's bookkeeping, any int, and the fast arms must carry it whole.
// The step programs once held it as int32, so {Seq: 1 << 40} came back as
// {Seq: 0} on a WithSparsePath handle — the path every Auto Route takes now.
// The option itself is passed once more to pin that it is still accepted and
// changes nothing.
func TestAutoRouteKeepsWideSeq(t *testing.T) {
	t.Parallel()
	const n = 16
	seqs := []int{1 << 40, -1, math.MinInt64, math.MaxInt64, 7, -(1 << 33), 1<<32 + 5, 0, 1 << 31, -(1 << 31) - 1}
	direct := make([][]Message, n)
	direct[1] = []Message{{Src: 1, Dst: 3, Seq: 1 << 40, Payload: 11}, {Src: 1, Dst: 3, Seq: -1, Payload: 12}}
	direct[2] = []Message{{Src: 2, Dst: 3, Seq: math.MinInt64, Payload: 13}}
	broadcast := make([][]Message, n)
	for j, seq := range seqs {
		broadcast[0] = append(broadcast[0], Message{Src: 0, Dst: 1 + j%2, Seq: seq, Payload: int64(100 + j)})
	}
	for _, tc := range []struct {
		name string
		msgs [][]Message
		want RouteStrategy
	}{
		{"direct", direct, StrategyDirect},
		{"broadcast", broadcast, StrategyBroadcast},
	} {
		for _, opts := range [][]Option{
			{WithAlgorithm(AlgorithmAuto)},
			{WithAlgorithm(AlgorithmAuto), WithSparsePath()},
		} {
			res, err := Route(n, tc.msgs, opts...)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if res.Strategy != tc.want {
				t.Fatalf("%s: strategy %v, want %v", tc.name, res.Strategy, tc.want)
			}
			checkDelivery(t, tc.name, tc.msgs, res)
		}
	}
}

// TestSortKeysKeepsWideSeq is the sorting side of TestAutoRouteKeepsWideSeq:
// a key's Seq is the caller's bookkeeping too, so ties on (Value, Origin)
// must order by Seq without overflow. The key comparator once subtracted
// Seqs, and SortKeys put {Seq: 0} before {Seq: -1}.
func TestSortKeysKeepsWideSeq(t *testing.T) {
	t.Parallel()
	const n = 16
	keys := make([][]Key, n)
	for j, seq := range []int{1 << 40, -1, math.MinInt64, math.MaxInt64, 7, -(1 << 33), 1<<32 + 5, 0, 1 << 31, -(1 << 31) - 1} {
		keys[0] = append(keys[0], Key{Value: int64(j % 2), Origin: 0, Seq: seq})
	}
	for _, alg := range []Algorithm{Deterministic, LowCompute, AlgorithmAuto} {
		res, err := SortKeys(n, keys, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		results := make([]*core.SortResult, n)
		for i := range results {
			results[i] = &core.SortResult{Batch: res.Batches[i], Start: res.Starts[i], Total: res.Total}
		}
		if err := verify.Sorting(keys, results); err != nil {
			t.Errorf("%v: %v", alg, err)
		}
	}
}

// TestAutoSortPipelineArmBitIdentical pins the sorting planner's general
// arm: a full-load instance with a wide value domain is classified
// SortStrategyPipeline and runs Algorithm 4 with Theorem 5.4 as Step 6's
// router — stats bit-identical to LowCompute, 31 rounds, and batches
// bit-identical to Deterministic (see auto_sort_test.go for the fast arms).
func TestAutoSortPipelineArmBitIdentical(t *testing.T) {
	t.Parallel()
	const n = 16
	values := benchSortWorkload(n)
	auto, err := Sort(n, values, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := Sort(n, values, WithAlgorithm(LowCompute))
	if err != nil {
		t.Fatal(err)
	}
	det, err := Sort(n, values)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Strategy != SortStrategyPipeline {
		t.Fatalf("strategy = %v, want pipeline", auto.Strategy)
	}
	if auto.Stats != lc.Stats {
		t.Fatalf("auto sort stats %+v diverge from LowCompute %+v", auto.Stats, lc.Stats)
	}
	if auto.Stats.Rounds != 31 {
		t.Fatalf("auto sort took %d rounds, want 31", auto.Stats.Rounds)
	}
	sortBatchesEqual(t, "auto pipeline vs deterministic", auto, det)
}

// FuzzAutoMatchesDeterministic generates random (mostly sparse, sometimes
// skewed) instances and checks that AlgorithmAuto delivers exactly what the
// deterministic router delivers, whatever strategy the planner picked. A
// pipeline verdict runs Theorem 5.4, not the deterministic router, so its
// result is also checked by the internal/verify oracle and held to 12
// rounds.
func FuzzAutoMatchesDeterministic(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(4), false)
	f.Add(int64(2), uint8(9), uint8(0), false)
	f.Add(int64(3), uint8(25), uint8(12), true)
	f.Add(int64(4), uint8(31), uint8(200), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, perRaw uint8, concentrate bool) {
		n := 8 + int(nRaw)%25 // 8..32
		per := int(perRaw) % (n + 1)
		rng := rand.New(rand.NewSource(seed))
		msgs := make([][]Message, n)
		recv := make([]int, n)
		for src := 0; src < n; src++ {
			count := rng.Intn(per + 1)
			for k := 0; k < count; k++ {
				dst := rng.Intn(n)
				if concentrate {
					dst = rng.Intn(1 + n/4) // pile demand on few sinks
				}
				if recv[dst] >= n {
					continue
				}
				recv[dst]++
				msgs[src] = append(msgs[src], Message{Src: src, Dst: dst, Seq: len(msgs[src]), Payload: rng.Int63n(1 << 40)})
			}
		}
		auto, err := Route(n, msgs, WithAlgorithm(AlgorithmAuto))
		if err != nil {
			t.Fatal(err)
		}
		det, err := Route(n, msgs)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("n=%d strategy=%v", n, auto.Strategy)
		routeDeliveredEqual(t, label, auto, det)
		if auto.Strategy == StrategyPipeline {
			if err := verify.Routing(msgs, auto.Delivered); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if auto.Stats.Rounds > 10 {
				t.Fatalf("%s: %d rounds, the Theorem 5.4 pipeline takes at most 10", label, auto.Stats.Rounds)
			}
		}
	})
}

package congestedclique

// Session-level pins for the step programs: AlgorithmAuto picks the scheduler
// from the plan, so these tests fix what must not depend on that choice — the
// presorted arm's observable behaviour from sparse to full load, and a
// plan-cache hit reaching the step program with its census fingerprint
// pinned.

import (
	"context"
	"fmt"
	"testing"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
)

func routeResultEqual(t *testing.T, label string, got, want *RouteResult) {
	t.Helper()
	if got.Strategy != want.Strategy {
		t.Fatalf("%s: strategy %v, want %v", label, got.Strategy, want.Strategy)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats differ:\n got  %+v\n want %+v", label, got.Stats, want.Stats)
	}
	routeDeliveredEqual(t, label, got, want)
}

// TestSparsePathSortBitIdentical pins what a caller observes of the presorted
// arm at every density — n²/4 keys, one more (the planner's full-load
// threshold for routing, which Sort must not care about), and the n² keys of
// a full load — at square and non-square n, census on and off: the
// Deterministic pipeline's batches, Starts and Total bit for bit, the
// presorted strategy in exactly its two rounds (plus the census's), Stats
// equal to the same plan run by core.AutoSort on a bare engine's blocking
// scheduler (the driver the session does not use), and a pass from the
// Problem 4.1 oracle.
func TestSparsePathSortBitIdentical(t *testing.T) {
	t.Parallel()
	for _, n := range []int{16, 64, 48} {
		for _, total := range []int{n * n / 4, n*n/4 + 1, n * n} {
			values := make([][]int64, n)
			for k := 0; k < total; k++ {
				values[k*n/total] = append(values[k*n/total], int64(3*k))
			}
			det, err := Sort(n, values)
			if err != nil {
				t.Fatalf("n=%d/keys=%d: deterministic: %v", n, total, err)
			}
			for _, census := range []bool{false, true} {
				label := fmt.Sprintf("n=%d/keys=%d/census=%v", n, total, census)
				wantRounds := 2
				var handleOpts []Option
				if census {
					// A plan cache arms the charged census; one run on a
					// fresh handle is a miss.
					handleOpts = append(handleOpts, WithPlanCache(4))
					wantRounds += SortCensusRounds
				}
				cl, err := New(n, handleOpts...)
				if err != nil {
					t.Fatal(err)
				}
				auto, err := cl.Sort(context.Background(), values, WithAlgorithm(AlgorithmAuto))
				cl.Close()
				if err != nil {
					t.Fatalf("%s: auto: %v", label, err)
				}
				if auto.Strategy != SortStrategyPresorted || auto.Stats.Rounds != wantRounds {
					t.Fatalf("%s: strategy %v in %d rounds, want presorted in %d", label, auto.Strategy, auto.Stats.Rounds, wantRounds)
				}
				sortBatchesEqual(t, label, auto, det)
				if err := verifySortOutput(n, values, auto); err != nil {
					t.Fatalf("%s: %v", label, err)
				}

				keys := make([][]core.Key, n)
				for i, row := range values {
					for j, v := range row {
						keys[i] = append(keys[i], core.Key{Value: v, Origin: i, Seq: j})
					}
				}
				plan := core.PlanSort(n, keys)
				plan.Census = census
				nw, err := clique.New(n)
				if err != nil {
					t.Fatal(err)
				}
				err = nw.Run(func(nd *clique.Node) error {
					_, err := core.AutoSort(nd, keys[nd.ID()], plan)
					return err
				})
				stats := statsFromMetrics(nw.Metrics())
				nw.Close()
				if err != nil {
					t.Fatalf("%s: blocking driver: %v", label, err)
				}
				if stats != auto.Stats {
					t.Fatalf("%s: blocking driver's stats differ from the public result:\n blocking %+v\n public   %+v", label, stats, auto.Stats)
				}
			}
		}
	}
}

// TestSparsePathPlanCacheHit pins the interplay of the cross-run plan cache
// with the step programs: the first run of an instance is a miss, which
// matches the one-shot miss of a fresh cache handle bit for bit (census
// included); the second hits the cache, the step run is built from the
// cached verdict, every node's row check passes, and it matches a cache-off
// run bit for bit — the direct arm's one round, no census.
func TestSparsePathPlanCacheHit(t *testing.T) {
	t.Parallel()
	const n = 64
	ctx := context.Background()
	msgs := scenarioMessages(t, "sparse", n, 1)

	miss, err := Route(n, msgs, WithAlgorithm(AlgorithmAuto), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	if miss.Strategy != StrategyDirect || miss.Stats.Rounds != 1+RouteCensusRounds {
		t.Fatalf("reference miss: strategy %v in %d rounds, want direct in %d", miss.Strategy, miss.Stats.Rounds, 1+RouteCensusRounds)
	}
	hit, err := Route(n, msgs, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	if hit.Strategy != StrategyDirect || hit.Stats.Rounds != 1 {
		t.Fatalf("reference cache-off run: strategy %v in %d rounds, want direct in 1", hit.Strategy, hit.Stats.Rounds)
	}
	cl, err := New(n, WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, want := range []*RouteResult{miss, hit} {
		res, err := cl.Route(ctx, msgs, WithAlgorithm(AlgorithmAuto))
		if err != nil {
			t.Fatal(err)
		}
		routeResultEqual(t, fmt.Sprintf("run %d", i), res, want)
	}
	if cs := cl.CumulativeStats(); cs.PlanCacheHits != 1 || cs.PlanCacheMisses != 1 {
		t.Fatalf("cache ledger %d hits / %d misses, want 1 / 1", cs.PlanCacheHits, cs.PlanCacheMisses)
	}
}

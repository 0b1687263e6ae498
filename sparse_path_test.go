package congestedclique

// Session-level pins for the step programs: AlgorithmAuto picks the scheduler
// from the plan, so these tests fix what must not depend on that choice — the
// presorted arm's two implementations agreeing bit for bit on both sides of
// the density gate that selects between them, and a plan-cache hit reaching
// the step program with its census fingerprint pinned.

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

// TestSparsePathSortBitIdentical is the both-sides pin of the Sort density
// gate (sortOnStepScheduler): a presorted instance of exactly n²/4 keys runs
// as the step program, one key more runs the blocking dealByRank twin. On
// each side the public result must equal the Deterministic pipeline's
// batches, and both implementations — driven directly on a bare engine — must
// reproduce the public result's batches and Stats exactly, so nothing a
// caller can observe changes at the gate.
func TestSparsePathSortBitIdentical(t *testing.T) {
	t.Parallel()
	for _, n := range []int{16, 64} {
		for _, over := range []bool{false, true} {
			total := core.FastPathMaxTotal(n)
			if over {
				total++
			}
			values := make([][]int64, n)
			for k := 0; k < total; k++ {
				values[k*n/total] = append(values[k*n/total], int64(3*k))
			}
			for _, census := range []bool{false, true} {
				label := fmt.Sprintf("n=%d/over=%v/census=%v", n, over, census)
				var handleOpts []Option
				if census {
					handleOpts = append(handleOpts, WithChargedCensus())
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
				det, err := Sort(n, values)
				if err != nil {
					t.Fatalf("%s: deterministic: %v", label, err)
				}
				if auto.Strategy != SortStrategyPresorted {
					t.Fatalf("%s: strategy %v, want presorted", label, auto.Strategy)
				}
				sortBatchesEqual(t, label, auto, det)

				keys := make([][]core.Key, n)
				for i, row := range values {
					for j, v := range row {
						keys[i] = append(keys[i], core.Key{Value: v, Origin: i, Seq: j})
					}
				}
				plan := core.PlanSort(n, keys)
				plan.Census = census
				if got := sortOnStepScheduler(n, plan); got == over {
					t.Fatalf("%s: %d keys on the step scheduler = %v, want %v", label, plan.TotalKeys, got, !over)
				}
				for arm, run := range map[string]func(*clique.Network, []*core.SortResult) error{
					"step": func(nw *clique.Network, out []*core.SortResult) error {
						sr, err := core.NewSparseSortRun(n, keys, plan)
						if err != nil {
							return err
						}
						if err := nw.RunRounds(sr.Step); err != nil {
							return err
						}
						for i := range out {
							out[i] = sr.Result(i)
						}
						return nil
					},
					"blocking": func(nw *clique.Network, out []*core.SortResult) error {
						return nw.Run(func(nd *clique.Node) (err error) {
							out[nd.ID()], err = core.AutoSort(nd, keys[nd.ID()], plan)
							return err
						})
					},
				} {
					nw, err := clique.New(n)
					if err != nil {
						t.Fatal(err)
					}
					out := make([]*core.SortResult, n)
					err = run(nw, out)
					stats := statsFromMetrics(nw.Metrics())
					nw.Close()
					if err != nil {
						t.Fatalf("%s: %s arm: %v", label, arm, err)
					}
					if stats != auto.Stats {
						t.Fatalf("%s: %s arm stats differ from the public result:\n arm    %+v\n public %+v", label, arm, stats, auto.Stats)
					}
					got := &SortResult{Batches: make([][]Key, n), Starts: make([]int, n)}
					for i, res := range out {
						got.Total, got.Starts[i] = res.Total, res.Start
						for _, k := range res.Batch {
							got.Batches[i] = append(got.Batches[i], fromCoreKey(k))
						}
					}
					sortBatchesEqual(t, label+"/"+arm, got, auto)
				}
			}
		}
	}
}

// TestSparsePathPlanCacheHit pins the interplay of the cross-run plan cache
// with the step programs: the second run of the same instance hits the cache
// (whose plans always arm the census with a pinned fingerprint), the step
// run is built from the cached verdict, its census verify accepts it, and
// both runs match a cache-off charged-census handle bit for bit.
func TestSparsePathPlanCacheHit(t *testing.T) {
	t.Parallel()
	const n = 64
	ctx := context.Background()
	msgs := scenarioMessages(t, "sparse", n, 1)

	want, err := Route(n, msgs, WithAlgorithm(AlgorithmAuto), WithChargedCensus())
	if err != nil {
		t.Fatal(err)
	}
	if want.Strategy != StrategyDirect || want.Stats.Rounds != 1+RouteCensusRounds {
		t.Fatalf("reference run: strategy %v in %d rounds, want direct in %d", want.Strategy, want.Stats.Rounds, 1+RouteCensusRounds)
	}
	cl, err := New(n, WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 2; i++ {
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

package congestedclique

// Protocol-layer end-to-end benchmarks: one full Route respectively Sort
// execution per iteration, with allocations reported. The one-shot rows of
// BENCH_protocol.json (cliquebench record) measure the same instances; the
// benchmark judge in bench/ gates allocations at n=196 and 256, and
// allocs_test.go asserts the watchdog and cache-hit claims.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"congestedclique/internal/workload"
)

// benchProtocolSizes are the clique sizes the protocol benchmarks run at.
var benchProtocolSizes = []int{64, 256, 1024}

// benchRouteWorkload is the deterministic all-to-all instance: every node
// sends one message to every node (the paper's full-load Problem 3.1). The
// definition is shared with cliquebench record so the recorded
// before/after numbers always measure the same workload.
func benchRouteWorkload(n int) [][]Message {
	msgs, err := NewUniformMessages(workload.ProtocolBenchRoute(n))
	if err != nil {
		panic(err)
	}
	return msgs
}

// benchSortWorkload is the deterministic full-load sorting instance (shared
// with cliquebench record, see benchRouteWorkload).
func benchSortWorkload(n int) [][]int64 {
	return workload.ProtocolBenchSortValues(n)
}

func BenchmarkRoute(b *testing.B) {
	for _, n := range benchProtocolSizes {
		msgs := benchRouteWorkload(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Route(n, msgs)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Rounds > 16 {
					b.Fatalf("measured %d rounds, Theorem 3.7 claims <= 16", res.Stats.Rounds)
				}
			}
		})
	}
}

func BenchmarkSort(b *testing.B) {
	for _, n := range benchProtocolSizes {
		values := benchSortWorkload(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Sort(n, values)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Rounds > 37 {
					b.Fatalf("measured %d rounds, Theorem 4.5 claims <= 37", res.Stats.Rounds)
				}
			}
		})
	}
}

// BenchmarkRouteReuse measures the session path: the same full-load routing
// instance issued repeatedly on one long-lived Clique handle. Comparing with
// BenchmarkRoute (a fresh one-shot handle per op) isolates the amortization
// the session API provides (the judge's setup_s measures the same
// amortization).
func BenchmarkRouteReuse(b *testing.B) {
	ctx := context.Background()
	for _, n := range benchProtocolSizes {
		msgs := benchRouteWorkload(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl, err := New(n)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cl.Route(ctx, msgs)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Rounds > 16 {
					b.Fatalf("measured %d rounds, Theorem 3.7 claims <= 16", res.Stats.Rounds)
				}
			}
		})
	}
}

// BenchmarkRouteParallel measures the engine pool: the full-load routing
// instance issued from GOMAXPROCS concurrent goroutines against ONE handle
// with WithMaxConcurrency(GOMAXPROCS). Compare ns/op with
// BenchmarkRouteReuse to see the aggregate speedup concurrency buys on this
// machine (bounded by cores — the engine already runs one goroutine per
// node).
func BenchmarkRouteParallel(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{64, 256} {
		msgs := benchRouteWorkload(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl, err := New(n, WithMaxConcurrency(runtime.GOMAXPROCS(0)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					res, err := cl.Route(ctx, msgs)
					if err != nil {
						b.Fatal(err)
					}
					if res.Stats.Rounds > 16 {
						b.Fatalf("measured %d rounds, Theorem 3.7 claims <= 16", res.Stats.Rounds)
					}
				}
			})
			b.StopTimer()
			if err := cl.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSortParallel is BenchmarkRouteParallel for the sorting pipeline.
func BenchmarkSortParallel(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{64, 256} {
		values := benchSortWorkload(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl, err := New(n, WithMaxConcurrency(runtime.GOMAXPROCS(0)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					res, err := cl.Sort(ctx, values)
					if err != nil {
						b.Fatal(err)
					}
					if res.Stats.Rounds > 37 {
						b.Fatalf("measured %d rounds, Theorem 4.5 claims <= 37", res.Stats.Rounds)
					}
				}
			})
			b.StopTimer()
			if err := cl.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSortReuse is BenchmarkRouteReuse for the sorting pipeline.
func BenchmarkSortReuse(b *testing.B) {
	ctx := context.Background()
	for _, n := range benchProtocolSizes {
		values := benchSortWorkload(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl, err := New(n)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cl.Sort(ctx, values)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Rounds > 37 {
					b.Fatalf("measured %d rounds, Theorem 4.5 claims <= 37", res.Stats.Rounds)
				}
			}
		})
	}
}

// BenchmarkRouteWatchdog is BenchmarkRouteReuse with the round watchdog
// armed (WithRoundDeadline). The deadline is far above any legitimate round,
// so it never fires; the benchmark exists to guard the watchdog's fault-free
// overhead — it must add zero allocs/op to a warm Route (the watchdog
// goroutine, its timer and the arrival markers are allocated once per handle
// and reused across runs); TestWarmAllocsWatchdogAndCacheHit asserts it.
func BenchmarkRouteWatchdog(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{64, 256} {
		msgs := benchRouteWorkload(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl, err := New(n, WithRoundDeadline(5*time.Minute))
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cl.Route(ctx, msgs)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Rounds > 16 {
					b.Fatalf("measured %d rounds, Theorem 3.7 claims <= 16", res.Stats.Rounds)
				}
			}
		})
	}
}

// BenchmarkRouteCachedHit measures the validated cache-hit path: the same
// full-load routing instance issued repeatedly on one AlgorithmAuto handle
// built with WithPlanCache. The warm-up call outside the timer pays the one
// miss (planning + census + capture); every timed iteration then hits —
// fingerprint lookup, exact demand validation, each node's free check of
// its own row, and the run itself with the announcement rounds elided where
// the cached schedule applies: 8 rounds at n=64 and n=256, against the
// miss's 2 + 10 (TestPlanCacheRouteExactRounds pins the counts; see
// docs/PERFORMANCE.md, "Temporal caching"). A hit must never
// allocate more than the uncached warm path it replaces
// (TestWarmAllocsWatchdogAndCacheHit asserts it).
func BenchmarkRouteCachedHit(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{64, 256} {
		msgs := benchRouteWorkload(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(4))
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Route(ctx, msgs); err != nil { // the single miss
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Route(ctx, msgs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cs := cl.CumulativeStats()
			if cs.PlanCacheMisses != 1 || cs.PlanCacheHits != int64(b.N) {
				b.Fatalf("expected 1 miss and %d hits, got %d misses / %d hits",
					b.N, cs.PlanCacheMisses, cs.PlanCacheHits)
			}
		})
	}
}

// BenchmarkSortCachedHit is BenchmarkRouteCachedHit for the sorting
// pipeline. Sort hits skip the planner and fingerprint recomputation but by
// design elide no protocol rounds (the merge schedule is data-dependent), so
// the win is compute-side; allocs/op must still sit at or below the warm
// BenchmarkSortReuse numbers.
func BenchmarkSortCachedHit(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{64, 256} {
		values := benchSortWorkload(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(4))
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Sort(ctx, values); err != nil { // the single miss
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Sort(ctx, values); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cs := cl.CumulativeStats()
			if cs.PlanCacheMisses != 1 || cs.PlanCacheHits != int64(b.N) {
				b.Fatalf("expected 1 miss and %d hits, got %d misses / %d hits",
					b.N, cs.PlanCacheMisses, cs.PlanCacheHits)
			}
		})
	}
}

// BenchmarkSparseRoute measures the direct step program end to end: the
// O(n)-message frontier instance (workload.ScaleSparseRoute) issued
// repeatedly on one long-lived handle, planned by AlgorithmAuto and run on
// the step scheduler. Its allocs/op are O(n): a dense O(n²) structure
// creeping back into the step programs shows here at small n, and the
// judge's sparse_scale gates it at n=4096.
func BenchmarkSparseRoute(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{64, 256} {
		ri, err := workload.ScaleSparseRoute(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		msgs := ri.Msgs
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl, err := New(n)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cl.Route(ctx, msgs, WithAlgorithm(AlgorithmAuto))
				if err != nil {
					b.Fatal(err)
				}
				if res.Strategy != StrategyDirect {
					b.Fatalf("strategy %v, want direct", res.Strategy)
				}
			}
		})
	}
}

// BenchmarkSparseSort is BenchmarkSparseRoute for sorting: the presorted
// O(n)-key frontier instance on the presorted step program.
func BenchmarkSparseSort(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{64, 256} {
		values := workload.ScalePresortedValues(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl, err := New(n)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cl.Sort(ctx, values, WithAlgorithm(AlgorithmAuto))
				if err != nil {
					b.Fatal(err)
				}
				if res.Strategy != SortStrategyPresorted {
					b.Fatalf("strategy %v, want presorted", res.Strategy)
				}
			}
		})
	}
}

// BenchmarkStepReceive times what a step program's receive side costs when
// almost every node hears from a handful of senders: one op is the three
// frontier shapes — sparse direct route, one-to-many broadcast route,
// presorted sort (workload.Scale*) — on one reused AlgorithmAuto handle. All
// work in such a run is proportional to the traffic, which grows with n, so
// the reported ns/node must stay flat from n=1024 to n=4096; a receive loop
// that sweeps the n-entry inbox table instead of Exchanger.InboxSenders makes
// it grow with n (at n=4096 the sweep was ~3/4 of the op's CPU).
func BenchmarkStepReceive(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{1024, 4096} {
		sparse, err := workload.ScaleSparseRoute(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		bcast, err := workload.ScaleBroadcastRoute(n)
		if err != nil {
			b.Fatal(err)
		}
		routes := [][][]Message{sparse.Msgs, bcast.Msgs}
		values := workload.ScalePresortedValues(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl, err := New(n, WithAlgorithm(AlgorithmAuto))
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, msgs := range routes {
					if _, err := cl.Route(ctx, msgs); err != nil {
						b.Fatal(err)
					}
				}
				res, err := cl.Sort(ctx, values)
				if err != nil {
					b.Fatal(err)
				}
				if res.Strategy != SortStrategyPresorted {
					b.Fatalf("strategy %v, want presorted", res.Strategy)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
		})
	}
}

// BenchmarkPresortedFull is the other end of the presorted step program's
// range: the catalog's sort-presorted instance (n keys at every node) on one
// reused handle. A blocking twin on the comms' dense staging used to serve
// this density; per-node buffers that stop being recycled show up here
// (the judge's auto_mix runs this arm at n=256).
func BenchmarkPresortedFull(b *testing.B) {
	ctx := context.Background()
	sc, _ := workload.SortScenarioByName("sort-presorted")
	for _, n := range []int{64, 256} {
		si, err := sc.Build(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		keys := si.Keys
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl, err := New(n)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cl.SortKeys(ctx, keys, WithAlgorithm(AlgorithmAuto))
				if err != nil {
					b.Fatal(err)
				}
				if res.Strategy != SortStrategyPresorted {
					b.Fatalf("strategy %v, want presorted", res.Strategy)
				}
			}
		})
	}
}

// BenchmarkSortWatchdog is BenchmarkRouteWatchdog for the sorting pipeline.
func BenchmarkSortWatchdog(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{64, 256} {
		values := benchSortWorkload(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cl, err := New(n, WithRoundDeadline(5*time.Minute))
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cl.Sort(ctx, values)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Rounds > 37 {
					b.Fatalf("measured %d rounds, Theorem 4.5 claims <= 37", res.Stats.Rounds)
				}
			}
		})
	}
}

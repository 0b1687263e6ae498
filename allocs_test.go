//go:build !race

package congestedclique

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"congestedclique/internal/workload"
)

// TestWarmAllocsWatchdogAndCacheHit pins two allocation claims the benchmark
// judge does not gate, on warm n=64 handles:
//
//   - the round watchdog (WithRoundDeadline) allocates its goroutine, timer
//     and per-worker markers once per handle, so a watched fault-free Route
//     or Sort allocates at most 5% more than the unwatched one
//     (docs/RESILIENCE.md);
//   - a validated WithPlanCache hit replaces planning and the announcement
//     rounds with a fingerprint lookup, an exact demand check and the
//     charged census, so it allocates no more than the warm uncached
//     Deterministic op.
//
// Race instrumentation changes allocation counts, hence the build tag. The
// garbage collector is off while measuring: a collection in the window
// empties the sync.Pools the engine and the protocols recycle through, and
// the refills (about ±1% of a Sort) would swamp the 2% between a Sort hit
// and the uncached op.
func TestWarmAllocsWatchdogAndCacheHit(t *testing.T) {
	const n, runs = 64, 20
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	msgs := benchRouteWorkload(n)
	values := benchSortWorkload(n)
	ops := []struct {
		name string
		run  func(*Clique) error
	}{
		{"Route", func(cl *Clique) error { _, err := cl.Route(ctx, msgs); return err }},
		{"Sort", func(cl *Clique) error { _, err := cl.Sort(ctx, values); return err }},
	}
	// warmAllocs is the mean allocation count of op on a fresh handle built
	// with opts, after one warm-up op (AllocsPerRun runs one more itself).
	warmAllocs := func(run func(*Clique) error, opts ...Option) (float64, *Clique) {
		t.Helper()
		cl, err := New(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if err := run(cl); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		return testing.AllocsPerRun(runs, func() {
			if err := run(cl); err != nil {
				t.Fatal(err)
			}
		}), cl
	}
	for _, op := range ops {
		plain, _ := warmAllocs(op.run)
		watched, _ := warmAllocs(op.run, WithRoundDeadline(5*time.Minute))
		hit, cached := warmAllocs(op.run, WithAlgorithm(AlgorithmAuto), WithPlanCache(4))
		t.Logf("%s n=%d allocs/op: plain %.0f, watchdog %.0f, cache hit %.0f", op.name, n, plain, watched, hit)
		if watched > 1.05*plain {
			t.Errorf("%s: watched op allocates %.0f, more than 1.05 x the unwatched %.0f", op.name, watched, plain)
		}
		if hit > plain {
			t.Errorf("%s: plan-cache hit allocates %.0f, more than the warm uncached op's %.0f", op.name, hit, plain)
		}
		if cs := cached.CumulativeStats(); cs.PlanCacheMisses != 1 || cs.PlanCacheHits != runs+1 {
			t.Errorf("%s: %d misses / %d hits, want 1 / %d", op.name, cs.PlanCacheMisses, cs.PlanCacheHits, runs+1)
		}
	}
}

// TestWarmAllocsLowComputeRoute pins that Theorem 5.4, the router
// AlgorithmAuto's pipeline arm runs, allocates no more per warm op than
// Theorem 3.7 at n=64 and n=256. The instance is the drift-shuffle trace's
// first full load: its Step 5 demands are not uniform, so every group runs
// the greedy coloring (bipartite.ColorDemandGreedy), whose per-cell and
// per-removal slices once made a Theorem 5.4 op allocate five times as much.
func TestWarmAllocsLowComputeRoute(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	sc, ok := workload.TemporalScenarioByName("drift-shuffle")
	if !ok {
		t.Fatal("temporal scenario drift-shuffle missing from the catalog")
	}
	for _, n := range []int{64, 256} {
		tr, err := sc.Build(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		msgs := instanceMessages(tr.Distinct[0])
		warm := func(alg Algorithm) float64 {
			cl, err := New(n, WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			route := func() {
				if _, err := cl.Route(ctx, msgs); err != nil {
					t.Fatal(err)
				}
			}
			route()
			runtime.GC()
			return testing.AllocsPerRun(5, route)
		}
		det, low := warm(Deterministic), warm(LowCompute)
		t.Logf("n=%d allocs/op: Theorem 3.7 %.0f, Theorem 5.4 %.0f", n, det, low)
		if low > det {
			t.Errorf("n=%d: a warm Theorem 5.4 op allocates %.0f, more than Theorem 3.7's %.0f", n, low, det)
		}
	}
}

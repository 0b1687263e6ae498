package congestedclique

// Tests for the cross-run plan and schedule cache (WithPlanCache) and the
// charged census it arms. The safety claim under test: a cached
// hit can never change a result — every hit is validated against the exact
// instance, the seeded schedule replays only on the run that matched, and a
// drifted or colliding instance always re-plans. The perf claim: a pipeline
// hit skips the set-total aggregation and the Step 5 count announcement of
// Theorem 5.4 (12 -> 8, plus the 3-round census either way).

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// cachePipelineInstance is a full-load pipeline-shaped demand (total n^2
// messages beats the n^2/4 volume gate) with a rotation so rows differ.
func cachePipelineInstance(n, salt int) [][]Message {
	msgs := make([][]Message, n)
	for i := 0; i < n; i++ {
		row := make([]Message, n)
		for j := 0; j < n; j++ {
			row[j] = Message{Src: i, Dst: (i + j + salt) % n, Seq: j, Payload: int64(salt<<20 | i<<10 | j)}
		}
		msgs[i] = row
	}
	return msgs
}

func cacheSortInstance(n, salt int) [][]int64 {
	vals := make([][]int64, n)
	for i := 0; i < n; i++ {
		vals[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			vals[i][j] = int64((i*31+j*17+salt*101)%997) - 500
		}
	}
	return vals
}

// TestPlanCacheRouteHitBitIdentical pins the whole contract on the route
// side at once: the miss and every subsequent hit deliver bit-identically to
// a cache-off handle, the hit skips the two schedule exchanges
// (12 -> 8 protocol rounds) while the census adds its 3 rounds to both, and
// the handle counters account for every lookup.
func TestPlanCacheRouteHitBitIdentical(t *testing.T) {
	t.Parallel()
	const n = 64
	ctx := context.Background()
	msgs := cachePipelineInstance(n, 0)

	base, err := New(n, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	golden, err := base.Route(ctx, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if golden.Strategy != StrategyPipeline {
		t.Fatalf("instance classified %v, the cache round-skip needs pipeline", golden.Strategy)
	}

	cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	miss, err := cl.Route(ctx, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(miss.Delivered, golden.Delivered) {
		t.Fatal("miss run diverged from cache-off golden")
	}
	if want := golden.Stats.Rounds + RouteCensusRounds; miss.Stats.Rounds != want {
		t.Fatalf("miss rounds = %d, want %d (plain %d + census %d)", miss.Stats.Rounds, want, golden.Stats.Rounds, RouteCensusRounds)
	}

	for rep := 0; rep < 3; rep++ {
		hit, err := cl.Route(ctx, msgs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hit.Delivered, golden.Delivered) {
			t.Fatalf("hit run %d diverged from cache-off golden", rep)
		}
		if hit.Strategy != golden.Strategy {
			t.Fatalf("hit strategy %v, golden %v", hit.Strategy, golden.Strategy)
		}
		// Hit cost: census (3) + the 8 payload rounds; the 4 rounds of the
		// set totals and the Step 5 announcement are replayed from the cached
		// schedule.
		if hit.Stats.Rounds >= miss.Stats.Rounds {
			t.Fatalf("hit rounds = %d, no cheaper than the miss's %d", hit.Stats.Rounds, miss.Stats.Rounds)
		}
		if want := RouteCensusRounds + golden.Stats.Rounds - 4; hit.Stats.Rounds != want {
			t.Fatalf("hit rounds = %d, want %d (census %d + payload %d)", hit.Stats.Rounds, want, RouteCensusRounds, golden.Stats.Rounds-4)
		}
		if hit.Stats.TotalWords >= miss.Stats.TotalWords {
			t.Fatalf("hit words = %d, no cheaper than the miss's %d", hit.Stats.TotalWords, miss.Stats.TotalWords)
		}
	}

	cs := cl.CumulativeStats()
	if cs.PlanCacheHits != 3 || cs.PlanCacheMisses != 1 || cs.PlanCacheInvalidations != 0 {
		t.Fatalf("cache counters = (%d,%d,%d), want (3,1,0)", cs.PlanCacheHits, cs.PlanCacheMisses, cs.PlanCacheInvalidations)
	}
}

// TestPlanCacheRouteExactRounds pins the round schedule of a plan-cache
// handle on full loads: a miss is the census plus Theorem 5.4 (3 + 12), a
// hit at perfect-square n replays the cached schedule (3 + 8), and at
// non-square n, where the V1/V2 decomposition has no capturable schedule, a
// hit costs what the miss did. Hits deliver exactly what the miss did.
func TestPlanCacheRouteExactRounds(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for _, tc := range []struct{ n, miss, hit int }{
		{64, 15, 11},
		{256, 15, 11},
		{90, 15, 15},
	} {
		tc := tc
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			t.Parallel()
			cl, err := New(tc.n, WithAlgorithm(AlgorithmAuto), WithPlanCache(8))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			msgs := cachePipelineInstance(tc.n, 2)
			miss, err := cl.Route(ctx, msgs)
			if err != nil {
				t.Fatal(err)
			}
			if miss.Strategy != StrategyPipeline || miss.Stats.Rounds != tc.miss {
				t.Fatalf("miss: strategy %v, %d rounds, want pipeline in %d", miss.Strategy, miss.Stats.Rounds, tc.miss)
			}
			for rep := 0; rep < 2; rep++ {
				hit, err := cl.Route(ctx, msgs)
				if err != nil {
					t.Fatal(err)
				}
				if hit.Stats.Rounds != tc.hit {
					t.Fatalf("hit %d: %d rounds, want %d", rep, hit.Stats.Rounds, tc.hit)
				}
				if !reflect.DeepEqual(hit.Delivered, miss.Delivered) {
					t.Fatalf("hit %d diverged from the miss", rep)
				}
			}
			if cs := cl.CumulativeStats(); cs.PlanCacheHits != 2 || cs.PlanCacheMisses != 1 {
				t.Fatalf("cache counters = (%d,%d), want (2,1)", cs.PlanCacheHits, cs.PlanCacheMisses)
			}
		})
	}
}

// TestPlanCacheRouteDrift pins that touching a single destination after the
// cache is warm re-plans from scratch and still delivers correctly: the
// seeded schedule never leaks across instances.
func TestPlanCacheRouteDrift(t *testing.T) {
	t.Parallel()
	const n = 64
	ctx := context.Background()

	cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Route(ctx, cachePipelineInstance(n, 0)); err != nil {
		t.Fatal(err)
	}

	// Swap two destinations within one row: receive totals are unchanged
	// (still a legal full-load instance) but the ordered destination
	// sequence — which the captured schedule depends on — differs.
	drifted := cachePipelineInstance(n, 0)
	drifted[7][11].Dst, drifted[7][12].Dst = drifted[7][12].Dst, drifted[7][11].Dst
	got, err := cl.Route(ctx, drifted)
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(n, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want, err := base.Route(ctx, drifted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Delivered, want.Delivered) {
		t.Fatal("drifted instance diverged from cache-off golden")
	}
	cs := cl.CumulativeStats()
	if cs.PlanCacheHits != 0 || cs.PlanCacheMisses != 2 {
		t.Fatalf("cache counters = (%d,%d), want (0,2): drift must miss", cs.PlanCacheHits, cs.PlanCacheMisses)
	}
}

// TestPlanCacheSortHitBitIdentical: the sort side caches the plan verdict
// and shared colorings (no round skip — see the sort census honesty note),
// so hits must match cache-off output exactly and count correctly.
func TestPlanCacheSortHitBitIdentical(t *testing.T) {
	t.Parallel()
	const n = 64
	ctx := context.Background()
	vals := cacheSortInstance(n, 0)

	base, err := New(n, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	golden, err := base.Sort(ctx, vals)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for rep := 0; rep < 3; rep++ {
		got, err := cl.Sort(ctx, vals)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Batches, golden.Batches) || got.Total != golden.Total {
			t.Fatalf("sort run %d diverged from cache-off golden", rep)
		}
		if got.Strategy != golden.Strategy {
			t.Fatalf("sort run %d strategy %v, golden %v", rep, got.Strategy, golden.Strategy)
		}
		if want := golden.Stats.Rounds + SortCensusRounds; got.Stats.Rounds != want {
			t.Fatalf("sort run %d rounds = %d, want %d", rep, got.Stats.Rounds, want)
		}
	}
	cs := cl.CumulativeStats()
	if cs.PlanCacheHits != 2 || cs.PlanCacheMisses != 1 {
		t.Fatalf("cache counters = (%d,%d), want (2,1)", cs.PlanCacheHits, cs.PlanCacheMisses)
	}
}

// TestPlanCacheSortKeysBypass: SortKeys with caller-owned Seq labels is not
// cacheable (the fingerprint covers values only, so two instances differing
// only in bookkeeping would collide) and must leave the counters untouched
// while still sorting correctly.
func TestPlanCacheSortKeysBypass(t *testing.T) {
	t.Parallel()
	const n = 16
	ctx := context.Background()
	keys := make([][]Key, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			keys[i] = append(keys[i], Key{Value: int64((i*7 + j*3) % 40), Origin: i, Seq: j * 2})
		}
	}
	cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for rep := 0; rep < 2; rep++ {
		if _, err := cl.SortKeys(ctx, keys); err != nil {
			t.Fatal(err)
		}
	}
	cs := cl.CumulativeStats()
	if cs.PlanCacheHits != 0 || cs.PlanCacheMisses != 0 || cs.PlanCacheInvalidations != 0 {
		t.Fatalf("non-canonical SortKeys touched the cache: (%d,%d,%d)", cs.PlanCacheHits, cs.PlanCacheMisses, cs.PlanCacheInvalidations)
	}
}

// TestChargedCensusRounds pins the cost of a plan-cache miss: the first Auto
// Route and Sort on a WithPlanCache handle pay exactly the documented census
// rounds on top of plain Auto and stay bit-identical; non-Auto algorithms on
// the same handle are untouched.
func TestChargedCensusRounds(t *testing.T) {
	t.Parallel()
	const n = 64
	ctx := context.Background()
	msgs := cachePipelineInstance(n, 1)
	vals := cacheSortInstance(n, 1)

	base, err := New(n, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	cen, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cen.Close()

	r0, err := base.Route(ctx, msgs)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := cen.Route(ctx, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Delivered, r0.Delivered) {
		t.Fatal("census run diverged from plain Auto")
	}
	if r1.Stats.Rounds != r0.Stats.Rounds+RouteCensusRounds {
		t.Fatalf("census route rounds = %d, want %d + %d", r1.Stats.Rounds, r0.Stats.Rounds, RouteCensusRounds)
	}

	s0, err := base.Sort(ctx, vals)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := cen.Sort(ctx, vals)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Batches, s0.Batches) {
		t.Fatal("census sort diverged from plain Auto")
	}
	if s1.Stats.Rounds != s0.Stats.Rounds+SortCensusRounds {
		t.Fatalf("census sort rounds = %d, want %d + %d", s1.Stats.Rounds, s0.Stats.Rounds, SortCensusRounds)
	}
	if cs := cen.CumulativeStats(); cs.PlanCacheHits != 0 || cs.PlanCacheMisses != 2 {
		t.Fatalf("cache ledger %d hits / %d misses, want 0 / 2", cs.PlanCacheHits, cs.PlanCacheMisses)
	}

	// Deterministic (non-Auto) calls on a cache handle pay nothing extra.
	d0, err := base.Route(ctx, msgs, WithAlgorithm(Deterministic))
	if err != nil {
		t.Fatal(err)
	}
	d1, err := cen.Route(ctx, msgs, WithAlgorithm(Deterministic))
	if err != nil {
		t.Fatal(err)
	}
	if d1.Stats.Rounds != d0.Stats.Rounds {
		t.Fatalf("cache handle charged a Deterministic call: %d vs %d rounds", d1.Stats.Rounds, d0.Stats.Rounds)
	}
}

// TestPlanCacheSeedScopedToOneRun pins the per-run shared-cache invariant
// the cache must not weaken: a hit seeds the engine's shared-compute cache
// for that one run only, so an immediately following different instance on
// the same engine re-derives everything and still matches its own golden.
func TestPlanCacheSeedScopedToOneRun(t *testing.T) {
	t.Parallel()
	const n = 64
	ctx := context.Background()
	a := cachePipelineInstance(n, 0)
	b := cachePipelineInstance(n, 3)

	cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Warm and hit A so the engine run consuming the seed is the one right
	// before B.
	for i := 0; i < 2; i++ {
		if _, err := cl.Route(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cl.Route(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(n, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want, err := base.Route(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Delivered, want.Delivered) {
		t.Fatal("instance B after a seeded run of A diverged from B's golden")
	}
}

// TestPlanCacheConcurrentHammer is the -race stress for the handle-shared
// cache: four engines route and sort a small set of repeated and drifted
// instances concurrently, every result deep-compared against cache-off
// goldens. Exercises concurrent lookups, stores of the same fingerprint
// (replace-on-insert), seeded and capturing runs interleaving across
// engines, and LRU churn (capacity 2 < distinct instances).
func TestPlanCacheConcurrentHammer(t *testing.T) {
	t.Parallel()
	const (
		n       = 36
		workers = 8
		iters   = 12
	)
	ctx := context.Background()

	routeIn := make([][][]Message, 3)
	sortIn := make([][][]int64, 2)
	routeGold := make([]*RouteResult, len(routeIn))
	sortGold := make([]*SortResult, len(sortIn))
	base, err := New(n, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	for i := range routeIn {
		routeIn[i] = cachePipelineInstance(n, i)
		if routeGold[i], err = base.Route(ctx, routeIn[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range sortIn {
		sortIn[i] = cacheSortInstance(n, i)
		if sortGold[i], err = base.Sort(ctx, sortIn[i]); err != nil {
			t.Fatal(err)
		}
	}

	cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(2), WithMaxConcurrency(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				k := (w + it) % (len(routeIn) + len(sortIn))
				if k < len(routeIn) {
					res, err := cl.Route(ctx, routeIn[k])
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res.Delivered, routeGold[k].Delivered) {
						errs <- fmt.Errorf("worker %d iter %d: route %d diverged from golden", w, it, k)
						return
					}
				} else {
					k -= len(routeIn)
					res, err := cl.Sort(ctx, sortIn[k])
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res.Batches, sortGold[k].Batches) {
						errs <- fmt.Errorf("worker %d iter %d: sort %d diverged from golden", w, it, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cs := cl.CumulativeStats()
	if got := cs.PlanCacheHits + cs.PlanCacheMisses; got != workers*iters {
		t.Fatalf("hits+misses = %d, want one cacheable lookup per op = %d", got, workers*iters)
	}
	if cs.PlanCacheInvalidations != 0 {
		t.Fatalf("unexpected invalidations: %d", cs.PlanCacheInvalidations)
	}
}

package congestedclique

// Tests for the cross-run plan and schedule cache (WithPlanCache) and the
// charged census it arms. The safety claim under test: a cached
// hit can never change a result — every hit is validated against the exact
// instance, the seeded schedule replays only on the run that matched, and a
// drifted or colliding instance always re-plans. The perf claim: a miss pays
// the 2-round census, a hit pays only for payload — its nodes check their
// own rows instead — and a pipeline hit skips the Step 5 count announcement
// of Theorem 5.4 (2 + 10 -> 8).

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"congestedclique/internal/core"
	"congestedclique/internal/workload"
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
// a cache-off handle, the census adds its 2 rounds to the miss only, the hit
// skips the Step 5 announcement (10 -> 8 protocol rounds), and the handle
// counters account for every lookup.
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
		// Hit cost: the 8 payload rounds; the 2 rounds of the Step 5
		// announcement are replayed from the cached schedule, and the row
		// check that replaces the census costs nothing.
		if hit.Stats.Rounds >= miss.Stats.Rounds {
			t.Fatalf("hit rounds = %d, no cheaper than the miss's %d", hit.Stats.Rounds, miss.Stats.Rounds)
		}
		if want := golden.Stats.Rounds - 2; hit.Stats.Rounds != want {
			t.Fatalf("hit rounds = %d, want %d (payload only)", hit.Stats.Rounds, want)
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
// handle on full loads: a miss is the census plus Theorem 5.4 (2 + 10), a
// hit pays no census and at perfect-square n replays the cached schedule
// (8), and at non-square n, where the V1/V2 decomposition has no capturable
// schedule, a hit is Theorem 5.4's 10. Hits deliver exactly what the miss
// did.
func TestPlanCacheRouteExactRounds(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for _, tc := range []struct{ n, miss, hit int }{
		{64, 12, 8},
		{256, 12, 8},
		{90, 12, 10},
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

// TestPlanCacheSortHitBitIdentical: a sort miss costs the census plus the
// pipeline's 31 rounds and captures Algorithm 4's announcements; every hit
// replays that schedule from Step 5 with no census — no Steps 2–4, no
// bucket-size aggregation, no Step 6 count announcement at square n, no
// Step 7 sample, count or bundle-count announcement — so it costs 8+2+2 = 12
// rounds at square n and 10+2+2 = 14 at non-square n. Miss and hits match
// cache-off output exactly, a hit sends fewer words
// than the miss and loads no edge more, the handle counts correctly, and
// the stored entry carries the shared-compute snapshot (Step 6's Theorem 5.4
// and Algorithm 3's colorings) that a hit arms.
func TestPlanCacheSortHitBitIdentical(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ n, hitRounds int }{{64, 12}, {90, 14}, {256, 12}} {
		n := tc.n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
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
			if golden.Strategy != SortStrategyPipeline || golden.Stats.Rounds != 31 {
				t.Fatalf("cache-off sort: strategy %v, %d rounds, want pipeline in 31", golden.Strategy, golden.Stats.Rounds)
			}

			cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(8))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			var miss, hit Stats
			for rep := 0; rep < 3; rep++ {
				got, err := cl.Sort(ctx, vals)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Batches, golden.Batches) || !reflect.DeepEqual(got.Starts, golden.Starts) || got.Total != golden.Total {
					t.Fatalf("sort run %d diverged from cache-off golden", rep)
				}
				if got.Strategy != golden.Strategy {
					t.Fatalf("sort run %d strategy %v, golden %v", rep, got.Strategy, golden.Strategy)
				}
				want := tc.hitRounds
				if rep == 0 {
					want = SortCensusRounds + golden.Stats.Rounds
				}
				if got.Stats.Rounds != want {
					t.Fatalf("sort run %d rounds = %d, want %d", rep, got.Stats.Rounds, want)
				}
				switch rep {
				case 0:
					miss = got.Stats
				case 1:
					hit = got.Stats
				default:
					if got.Stats != hit {
						t.Fatalf("hit %d stats %+v differ from the first hit's %+v", rep, got.Stats, hit)
					}
				}
			}
			if hit.TotalWords >= miss.TotalWords {
				t.Errorf("hit sends %d words, not fewer than the miss's %d", hit.TotalWords, miss.TotalWords)
			}
			if hit.MaxEdgeWords > miss.MaxEdgeWords || hit.MaxEdgeWords > 64 {
				t.Errorf("hit max edge words %d, miss %d: want ≤ both the miss's and 64", hit.MaxEdgeWords, miss.MaxEdgeWords)
			}
			cs := cl.CumulativeStats()
			if cs.PlanCacheHits != 2 || cs.PlanCacheMisses != 1 {
				t.Fatalf("cache counters = (%d,%d), want (2,1)", cs.PlanCacheHits, cs.PlanCacheMisses)
			}

			keys := make([][]core.Key, n)
			for i, row := range vals {
				for j, v := range row {
					keys[i] = append(keys[i], core.Key{Value: v, Origin: i, Seq: j})
				}
			}
			_, entry, _ := cl.planCache.LookupSort(n, keys)
			if entry == nil || entry.Shared.Len() == 0 {
				t.Fatal("the cached sort entry carries no shared-compute seed for a hit to arm")
			}
			if entry.Plan.Sched == nil {
				t.Fatal("the cached sort entry carries no Algorithm 4 schedule to replay")
			}
		})
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
// rounds, words and packets on top of plain Auto — 2 rounds, 6n words in 2n
// packets for Route ([sendTotal, rowPairMax, rowHash] in, the 3-word verdict
// out) and 2 rounds, 4n words in 2n packets for Sort — and stay
// bit-identical; non-Auto algorithms on the same handle are untouched.
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
	if dw, dm := r1.Stats.TotalWords-r0.Stats.TotalWords, r1.Stats.TotalMessages-r0.Stats.TotalMessages; dw != 6*n || dm != 2*n {
		t.Fatalf("census route cost %d words / %d packets, want %d / %d", dw, dm, 6*n, 2*n)
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
	if dw, dm := s1.Stats.TotalWords-s0.Stats.TotalWords, s1.Stats.TotalMessages-s0.Stats.TotalMessages; dw != 4*n || dm != 2*n {
		t.Fatalf("census sort cost %d words / %d packets, want %d / %d", dw, dm, 4*n, 2*n)
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

// TestPlanCacheCorollaryCensus: an AlgorithmAuto corollary on a
// WithPlanCache handle is looked up, stored and hit exactly as Sort is. Its
// first call misses and pays the sort census on top of plain Auto —
// SortCensusRounds rounds, 4n words in 2n packets — and its repeat hits,
// paying the Sort hit on the same values plus the corollary's own epilogue
// (its cache-off rounds minus cache-off Sort's). Every output, at square and
// non-square n, uniform and pre-sorted, passes internal/verify.
func TestPlanCacheCorollaryCensus(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for _, n := range []int{64, 90} {
		for _, dist := range []workload.KeyDistribution{workload.KeysUniform, workload.KeysPreSorted} {
			t.Run(fmt.Sprintf("n=%d/%s", n, dist), func(t *testing.T) {
				inst, err := workload.NewSortingInstance(n, n, dist, 1)
				if err != nil {
					t.Fatal(err)
				}
				vals := keyValues(inst.Keys)
				base, err := New(n, WithAlgorithm(AlgorithmAuto))
				if err != nil {
					t.Fatal(err)
				}
				defer base.Close()
				sortOff, err := base.Sort(ctx, vals)
				if err != nil {
					t.Fatal(err)
				}
				sortHit := cachedStats(t, n, func(cl *Clique) (Stats, error) {
					res, err := cl.Sort(ctx, vals)
					if err != nil {
						return Stats{}, err
					}
					return res.Stats, nil
				})[1]
				for _, op := range corollaryOps(ctx, inst.Keys) {
					off, err := op.run(base)
					if err != nil {
						t.Fatalf("%s cache off: %v", op.name, err)
					}
					st := cachedStats(t, n, op.run)
					if miss := st[0]; miss.Rounds != off.Rounds+SortCensusRounds || miss.TotalWords-off.TotalWords != 4*int64(n) || miss.TotalMessages-off.TotalMessages != 2*int64(n) {
						t.Fatalf("%s miss %+v, cache off %+v: want +%d rounds, +%d words, +%d packets",
							op.name, miss, off, SortCensusRounds, 4*n, 2*n)
					}
					if want := sortHit.Rounds + off.Rounds - sortOff.Stats.Rounds; st[1].Rounds != want {
						t.Fatalf("%s hit: %d rounds, want the Sort hit's %d + the epilogue's %d = %d",
							op.name, st[1].Rounds, sortHit.Rounds, off.Rounds-sortOff.Stats.Rounds, want)
					}
				}
			})
		}
	}
}

// cachedStats runs op twice on a fresh WithPlanCache handle, requires a
// miss and then a hit on the handle's ledger, and returns both calls' Stats.
func cachedStats(t *testing.T, n int, op func(*Clique) (Stats, error)) [2]Stats {
	t.Helper()
	cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var st [2]Stats
	for rep := range st {
		if st[rep], err = op(cl); err != nil {
			t.Fatalf("call %d: %v", rep, err)
		}
		if cs := cl.CumulativeStats(); cs.PlanCacheHits != int64(rep) || cs.PlanCacheMisses != 1 || cs.PlanCacheInvalidations != 0 {
			t.Fatalf("call %d: ledger (hits, misses, invalidations) = (%d, %d, %d), want (%d, 1, 0)",
				rep, cs.PlanCacheHits, cs.PlanCacheMisses, cs.PlanCacheInvalidations, rep)
		}
	}
	return st
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
// cache: four engines route, sort and rank a small set of repeated and
// drifted instances concurrently, every result deep-compared against
// cache-off goldens. Exercises concurrent lookups, stores of the same
// fingerprint (replace-on-insert), seeded and capturing runs interleaving
// across engines, a corollary and a Sort sharing one entry, and LRU churn
// (capacity 2 < distinct instances).
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
	// The one corollary op ranks sortIn[0], the values one Sort op sorts.
	rankGold, err := base.Rank(ctx, sortIn[0])
	if err != nil {
		t.Fatal(err)
	}
	ops := len(routeIn) + len(sortIn) + 1

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
				k := (w + it) % ops
				switch {
				case k == ops-1:
					res, err := cl.Rank(ctx, sortIn[0])
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res.Ranks, rankGold.Ranks) || res.DistinctTotal != rankGold.DistinctTotal {
						errs <- fmt.Errorf("worker %d iter %d: rank diverged from golden", w, it)
						return
					}
				case k < len(routeIn):
					res, err := cl.Route(ctx, routeIn[k])
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res.Delivered, routeGold[k].Delivered) {
						errs <- fmt.Errorf("worker %d iter %d: route %d diverged from golden", w, it, k)
						return
					}
				default:
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

// TestPlanCacheArenaAliasing pins the ownership rule of the comms' int
// arena (internal/core commScratch): the count matrices a miss captures
// into its entry (RouteSchedule.S5Counts, SortSchedule.S7Counts) are
// clones, so the pooled scratches that later instances on the same handle
// carve their matrices from cannot rewrite them. A miss on instance A,
// misses on three other instances (which reuse those scratches), then A
// again: the repeat must hit in exactly the hit rounds and return what a
// cache-off run returns, bit for bit. A route is the drift-shuffle trace's
// first instance, whose Step 5 counts are not uniform; the others are
// rotations (cachePipelineInstance), whose counts differ from A's.
func TestPlanCacheArenaAliasing(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	sc, ok := workload.TemporalScenarioByName("drift-shuffle")
	if !ok {
		t.Fatal("temporal scenario drift-shuffle missing from the catalog")
	}
	const others = 3
	for _, tc := range []struct{ n, routeHit, sortHit int }{{64, 8, 12}, {90, 10, 14}, {256, 8, 12}} {
		n := tc.n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			routes := make([][][]Message, others+1)
			sorts := make([][][]int64, others+1)
			tr, err := sc.Build(n, 1)
			if err != nil {
				t.Fatal(err)
			}
			routes[0] = tr.Distinct[0].Msgs
			for i := range routes {
				if i > 0 {
					routes[i] = cachePipelineInstance(n, i)
				}
				inst, err := workload.NewSortingInstance(n, n, workload.KeysUniform, int64(i+1))
				if err != nil {
					t.Fatal(err)
				}
				sorts[i] = keyValues(inst.Keys)
			}
			base, err := New(n, WithAlgorithm(AlgorithmAuto))
			if err != nil {
				t.Fatal(err)
			}
			defer base.Close()
			cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(2*(others+1)))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			goldenRoute, err := base.Route(ctx, routes[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, msgs := range routes {
				if _, err := cl.Route(ctx, msgs); err != nil {
					t.Fatal(err)
				}
			}
			route, err := cl.Route(ctx, routes[0])
			if err != nil {
				t.Fatal(err)
			}
			if route.Stats.Rounds != tc.routeHit {
				t.Errorf("route repeat: %d rounds, want a %d-round hit", route.Stats.Rounds, tc.routeHit)
			}
			if !reflect.DeepEqual(route.Delivered, goldenRoute.Delivered) {
				t.Error("route repeat diverged from the cache-off run")
			}

			goldenSort, err := base.Sort(ctx, sorts[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, vals := range sorts {
				if _, err := cl.Sort(ctx, vals); err != nil {
					t.Fatal(err)
				}
			}
			sorted, err := cl.Sort(ctx, sorts[0])
			if err != nil {
				t.Fatal(err)
			}
			if sorted.Stats.Rounds != tc.sortHit {
				t.Errorf("sort repeat: %d rounds, want a %d-round hit", sorted.Stats.Rounds, tc.sortHit)
			}
			if !reflect.DeepEqual(sorted.Batches, goldenSort.Batches) || !reflect.DeepEqual(sorted.Starts, goldenSort.Starts) {
				t.Error("sort repeat diverged from the cache-off run")
			}
			if cs := cl.CumulativeStats(); cs.PlanCacheHits != 2 || cs.PlanCacheMisses != 2*(others+1) {
				t.Errorf("cache counters = (%d,%d), want (2,%d)", cs.PlanCacheHits, cs.PlanCacheMisses, 2*(others+1))
			}
		})
	}
}

// TestCorollaryMissStoresOnlySortShared: a corollary's cache entry keeps
// only the sort's shared computations (core.SortShared), not its
// epilogue's, which no hit could find again — so a Rank or Mode miss stores
// exactly as many as a Sort miss on the same values.
func TestCorollaryMissStoresOnlySortShared(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	const n = 64
	inst, err := workload.NewSortingInstance(n, n, workload.KeysUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	vals := keyValues(inst.Keys)
	keys := make([][]core.Key, n)
	for i, row := range vals {
		for j, v := range row {
			keys[i] = append(keys[i], core.Key{Value: v, Origin: i, Seq: j})
		}
	}
	stored := func(op func(*Clique) error) int {
		t.Helper()
		cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(4))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := op(cl); err != nil {
			t.Fatal(err)
		}
		_, entry, _ := cl.planCache.LookupSort(n, keys)
		if entry == nil {
			t.Fatal("the miss stored no entry")
		}
		return entry.Shared.Len()
	}
	sortLen := stored(func(cl *Clique) error { _, err := cl.Sort(ctx, vals); return err })
	if sortLen == 0 {
		t.Fatal("a Sort miss stored no shared computations")
	}
	for _, op := range []struct {
		name string
		run  func(*Clique) error
	}{
		{"Rank", func(cl *Clique) error { _, err := cl.Rank(ctx, vals); return err }},
		{"Mode", func(cl *Clique) error { _, err := cl.Mode(ctx, vals); return err }},
	} {
		if got := stored(op.run); got != sortLen {
			t.Errorf("%s miss stored %d shared computations, a Sort miss %d", op.name, got, sortLen)
		}
	}
}

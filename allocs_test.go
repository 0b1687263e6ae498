//go:build !race

package congestedclique

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"

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
//     rounds with a fingerprint lookup, an exact demand check and each
//     node's check of its own row, so it allocates no more than the warm
//     uncached Deterministic op.
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
		msgs := tr.Distinct[0].Msgs
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

// TestWarmAllocsRouteBytes pins the bytes a warm n=256 Route allocates per
// op to at most routeBytesPerRow times what its result rows take (n² Message
// values of 32 bytes), under Theorem 3.7 (Deterministic) and Theorem 5.4
// (LowCompute), on the protocol benchmark's full load and on the
// drift-shuffle trace's first instance (non-uniform Step 5 demands). The
// routers' bookkeeping — count matrices, balance plans, member lists —
// comes from each comm's pooled scratch, and parcels travel in its rotating
// held slots, so what is left per op is mostly the rows themselves: 1.2x
// and 1.0x on the full load under Theorems 3.7 and 5.4, 1.5x and 1.9x on
// drift-shuffle, where Step 5's greedy colourings add their runs. Routers
// that build their matrices and parcel slices per op read 4.4x to 7.9x.
func TestWarmAllocsRouteBytes(t *testing.T) {
	const (
		n                = 256
		runs             = 5
		routeBytesPerRow = 3.0
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	sc, ok := workload.TemporalScenarioByName("drift-shuffle")
	if !ok {
		t.Fatal("temporal scenario drift-shuffle missing from the catalog")
	}
	tr, err := sc.Build(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := float64(n * n * int(unsafe.Sizeof(Message{})))
	for _, inst := range []struct {
		name string
		msgs [][]Message
	}{{"full load", benchRouteWorkload(n)}, {"drift-shuffle", tr.Distinct[0].Msgs}} {
		for _, alg := range []Algorithm{Deterministic, LowCompute} {
			cl, err := New(n, WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			route := func() {
				if _, err := cl.Route(ctx, inst.msgs); err != nil {
					t.Fatal(err)
				}
			}
			route()
			route()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				route()
			}
			runtime.ReadMemStats(&after)
			cl.Close()
			perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("%s, %v: %.0f KiB/op, %.2f x the rows' %.0f KiB", inst.name, alg, perOp/1024, perOp/rows, rows/1024)
			if perOp > routeBytesPerRow*rows {
				t.Errorf("%s, %v: a warm Route allocates %.0f KiB/op, more than %.1f x its rows' %.0f KiB",
					inst.name, alg, perOp/1024, routeBytesPerRow, rows/1024)
			}
		}
	}
}

// TestWarmAllocsSortBytes pins the bytes a warm n=196 Sort (the benchmark's
// sort_full instance) allocates per op to at most sortBytesPerBatch times
// what its batches take (n² Key values of 24 bytes), under Algorithm 4 with
// Theorem 3.7 (Deterministic) and with Theorem 5.4 (LowCompute) at Step 6.
// Every comm carves from its executor's buffer sets (core's scratchStack),
// which grow to what they carved last; the sort's key sets come from its
// comm's key arena, Algorithm 3 sorts the slice it is handed in place, the
// Mux's send queues stay on its pooled coroutines and the shared colorings
// are recycled across runs, so what is left per op is mostly the batches:
// 2.4-2.8x and 1.7-2.3x under Theorems 3.7 and 5.4, the spread mostly the
// redistribution logs, which migrate between nodes through rankLogs and
// regrow. Copying the key set at every step, growing a send queue per Mux
// instance and coloring afresh per run read 26x and 30x.
func TestWarmAllocsSortBytes(t *testing.T) {
	const (
		n                 = 196
		runs              = 5
		sortBytesPerBatch = 7.0
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	values := benchSortWorkload(n)
	batches := float64(n * n * int(unsafe.Sizeof(Key{})))
	for _, alg := range []Algorithm{Deterministic, LowCompute} {
		// Two collections empty the pools of what earlier tests left in
		// them (scratches of other shapes, each regrowing once when it
		// resurfaces), so the figure does not depend on the test order.
		runtime.GC()
		runtime.GC()
		cl, err := New(n, WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		sort := func() {
			if _, err := cl.Sort(ctx, values); err != nil {
				t.Fatal(err)
			}
		}
		sort()
		sort()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			sort()
		}
		runtime.ReadMemStats(&after)
		cl.Close()
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%v: %.0f KiB/op, %.2f x the batches' %.0f KiB", alg, perOp/1024, perOp/batches, batches/1024)
		if perOp > sortBytesPerBatch*batches {
			t.Errorf("%v: a warm Sort allocates %.0f KiB/op, more than %.1f x its batches' %.0f KiB",
				alg, perOp/1024, sortBytesPerBatch, batches/1024)
		}
	}
}

// TestWarmAllocsNonSquareSort pins the bytes a warm Sort allocates per op at
// non-square n to at most perBatch times what its batches take (n² Key
// values of 24 bytes). There Deterministic's Step 6 route is Theorem 3.7's
// V1/V2/corner construction, a Mux nested in an instance of Step 6's own
// Mux, and LowCompute routes Step 6 with Theorem 5.4 beside the same root
// Mux. Nested instances tag their frames by instance path, queue them into
// the parent instance as they are and read the node's records like every
// other instance: n=90 reads 9.1-10.0x and 6.6-7.4x (Deterministic,
// LowCompute), n=200 8.7-9.9x and 6.2-6.4x. A nested Mux that copied every
// frame behind a second tag and demultiplexed the records into per-instance
// rings read 18.0-18.1x and 16.0-16.1x, 15.5-15.8x and 13.2-14.1x.
func TestWarmAllocsNonSquareSort(t *testing.T) {
	const runs = 5
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	for _, tc := range []struct {
		n        int
		alg      Algorithm
		perBatch float64
	}{
		{90, Deterministic, 13},
		{90, LowCompute, 11},
		{200, Deterministic, 12},
		{200, LowCompute, 9.5},
	} {
		t.Run(fmt.Sprintf("n=%d/%v", tc.n, tc.alg), func(t *testing.T) {
			runtime.GC()
			runtime.GC()
			cl, err := New(tc.n, WithAlgorithm(tc.alg))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			values := benchSortWorkload(tc.n)
			perOp := warmBytesPerOp(2, runs, func() {
				if _, err := cl.Sort(ctx, values); err != nil {
					t.Fatal(err)
				}
			})
			batches := float64(tc.n * tc.n * int(unsafe.Sizeof(Key{})))
			t.Logf("%.0f KiB/op, %.2f x the batches' %.0f KiB", perOp/1024, perOp/batches, batches/1024)
			if perOp > tc.perBatch*batches {
				t.Errorf("a warm Sort allocates %.0f KiB/op, more than %.1f x its batches' %.0f KiB",
					perOp/1024, tc.perBatch, batches/1024)
			}
		})
	}
}

// TestWarmAllocsMixedSizes checks that handles of two clique sizes keep
// their warm allocation figures when their Sorts interleave: a warm n=196
// and a warm n=144 Sort, run alternately and run side by side, allocate at
// most mixedSizesBytes times what each allocates on its own. The comm
// buffers are the buffer sets of each handle's own executors, which grow to
// what they carved last, so no comm of one size resizes the other's; only
// the redistribution logs of rankLogs pass between the sizes: 0.75-1.00x
// here. Buffers taken from process-wide pools and sized by one hint per comm
// kind, which every comm of the other size replaced, left fresh arenas
// ungrown and read 1.5-1.6x side by side in some runs.
func TestWarmAllocsMixedSizes(t *testing.T) {
	const (
		warm            = 5
		runs            = 8
		mixedSizesBytes = 1.35
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	runtime.GC()
	runtime.GC()
	sizes := []int{196, 144}
	sorts := make([]func(), len(sizes))
	for i, n := range sizes {
		cl, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		values := benchSortWorkload(n)
		sorts[i] = func() {
			if _, err := cl.Sort(ctx, values); err != nil {
				t.Error(err)
			}
		}
	}
	perOp := func(op func()) float64 {
		for i := 0; i < warm; i++ {
			op()
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	alone := perOp(sorts[0]) + perOp(sorts[1])
	mixes := []struct {
		name string
		op   func()
	}{
		{"alternately", func() {
			for _, sort := range sorts {
				sort()
			}
		}},
		{"side by side", func() {
			var wg sync.WaitGroup
			for _, sort := range sorts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sort()
				}()
			}
			wg.Wait()
		}},
	}
	for _, mix := range mixes {
		got := perOp(mix.op)
		t.Logf("%s: %.0f KiB/op, %.2f x the %.0f KiB/op of each size on its own", mix.name, got/1024, got/alone, alone/1024)
		if got > mixedSizesBytes*alone {
			t.Errorf("sizes %v sorting %s allocate %.0f KiB/op, more than %.2f x the %.0f KiB/op of each on its own",
				sizes, mix.name, got/1024, mixedSizesBytes, alone/1024)
		}
	}
}

// warmBytesPerOp is the mean of the bytes op allocates over runs calls, after
// warm calls that warm the handle it runs on.
func warmBytesPerOp(warm, runs int, op func()) float64 {
	for i := 0; i < warm; i++ {
		op()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWarmAllocsMemoryBound turns Section 5's memory claim into a gate: a
// warm AlgorithmAuto Route and Sort at n=256 (Theorem 5.4, and Algorithm 4
// with it at Step 6) allocate per op at most memoryBoundMultiple times
// n · Stats.MaxMemoryWordsPerNode · 8 bytes, the whole clique's resident
// words as the protocol reports them. Warm comms carve from their executor's
// buffer sets, so what is left per op is mostly the result rows: the Route
// reads 0.58x and the Sort 0.71-0.91x here, the Sort's spread mostly its
// redistribution logs, which come from the shared rankLogs pool. Routers
// that built their bookkeeping per op read 4.4-7.9x their rows
// (TestWarmAllocsRouteBytes), 2.5-4.5x this bound.
func TestWarmAllocsMemoryBound(t *testing.T) {
	const (
		n                   = 256
		runs                = 5
		memoryBoundMultiple = 1.5
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	cl, err := New(n, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	msgs, values := benchRouteWorkload(n), benchSortWorkload(n)
	for _, op := range []struct {
		name string
		run  func() (Stats, error)
	}{
		{"Route", func() (Stats, error) { res, err := cl.Route(ctx, msgs); return res.Stats, err }},
		{"Sort", func() (Stats, error) { res, err := cl.Sort(ctx, values); return res.Stats, err }},
	} {
		var stats Stats
		perOp := warmBytesPerOp(2, runs, func() {
			var err error
			if stats, err = op.run(); err != nil {
				t.Fatal(err)
			}
		})
		bound := float64(n) * float64(stats.MaxMemoryWordsPerNode) * 8
		if bound == 0 {
			t.Fatalf("%s: the protocol reported no resident memory", op.name)
		}
		t.Logf("%s: %.0f KiB/op, %.2f x n · %d words · 8 B = %.0f KiB", op.name, perOp/1024, perOp/bound, stats.MaxMemoryWordsPerNode, bound/1024)
		if perOp > memoryBoundMultiple*bound {
			t.Errorf("%s: a warm op allocates %.0f KiB, more than %.1f x n · MaxMemoryWordsPerNode · 8 B = %.0f KiB",
				op.name, perOp/1024, memoryBoundMultiple, bound/1024)
		}
	}
}

// TestWarmAllocsChangingRoles checks that executors whose buffer sets serve
// changing roles stay warm: one n=196 handle cycling Route, Sort and Rank
// (Theorem 3.7, Algorithm 4 with its Mux instances, and a sort under a live
// Rank comm, so each set serves another comm at every op) allocates per
// cycle at most changingRolesBytes times the sum of what each op allocates
// warm on a handle of its own. Sets grow to what they carved last and keep
// their capacity, so each converges to the largest role it serves: 0.95-0.97x
// here (0.91x with process-wide pools sized by hints).
func TestWarmAllocsChangingRoles(t *testing.T) {
	const (
		n                  = 196
		warm               = 3
		runs               = 5
		changingRolesBytes = 1.35
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	msgs, values := benchRouteWorkload(n), benchSortWorkload(n)
	ops := []func(*Clique) error{
		func(cl *Clique) error { _, err := cl.Route(ctx, msgs); return err },
		func(cl *Clique) error { _, err := cl.Sort(ctx, values); return err },
		func(cl *Clique) error { _, err := cl.Rank(ctx, values); return err },
	}
	handle := func() *Clique {
		cl, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	alone := 0.0
	for _, op := range ops {
		cl := handle()
		alone += warmBytesPerOp(warm, runs, func() {
			if err := op(cl); err != nil {
				t.Fatal(err)
			}
		})
	}
	cl := handle()
	cycle := warmBytesPerOp(warm, runs, func() {
		for _, op := range ops {
			if err := op(cl); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("Route, Sort, Rank on one handle: %.0f KiB/cycle, %.2f x the %.0f KiB of each op on its own", cycle/1024, cycle/alone, alone/1024)
	if cycle > changingRolesBytes*alone {
		t.Errorf("a cycle of Route, Sort and Rank allocates %.0f KiB, more than %.2f x the %.0f KiB of each op on its own",
			cycle/1024, changingRolesBytes, alone/1024)
	}
}

// TestWarmAllocsAutoSortArms holds the AlgorithmAuto Sort arms that end in
// Algorithm 4's Step 8 alone — the presorted arm (pre-sorted and
// near-sorted rows) and the Section 6.3 small-domain arm (duplicate-heavy
// rows) — to at most autoSortArmsBytes times their batches' bytes per warm
// n=256 op (n² keys of 24 B). Every key arrives with its global rank, so the
// receiver writes it straight to its slot, and the counting arm ranks by a
// counting sort carved from its comm's arenas: what is left per op is mostly
// the batches: 1.03x, 1.02x and 1.05x here. Sorting every received batch
// by rank and copying, comparison-sorting and re-ranking each small-domain
// row read 1.03x, 1.02x and 3.38x: the presorted arm's buffers were warm
// already, the counting arm allocated two copies of its row per op.
func TestWarmAllocsAutoSortArms(t *testing.T) {
	const (
		n                 = 256
		runs              = 5
		autoSortArmsBytes = 1.5
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	cl, err := New(n, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	batches := float64(n * n * int(unsafe.Sizeof(Key{})))
	for _, name := range []string{"sort-presorted", "sort-near-sorted", "sort-duplicate-heavy"} {
		sc, ok := workload.SortScenarioByName(name)
		if !ok {
			t.Fatalf("sorting scenario %q missing from the catalog", name)
		}
		inst, err := sc.Build(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		values, err := workload.SortScenarioValues(inst)
		if err != nil {
			t.Fatal(err)
		}
		perOp := warmBytesPerOp(2, runs, func() {
			if _, err := cl.Sort(ctx, values); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f KiB/op, %.2f x the batches' %.0f KiB", name, perOp/1024, perOp/batches, batches/1024)
		if perOp > autoSortArmsBytes*batches {
			t.Errorf("%s: a warm AlgorithmAuto Sort allocates %.0f KiB/op, more than %.1f x its batches' %.0f KiB",
				name, perOp/1024, autoSortArmsBytes, batches/1024)
		}
	}
}

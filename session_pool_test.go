package congestedclique

// Tests for the concurrent executor: the engine pool behind one Clique
// handle. Covered here: parallel mixed operations produce results
// bit-identical to a serial handle (the -race hammer), CumulativeStats
// merges exactly across engines, Close drains in-flight checkouts and fails
// later ones with ErrClosed, checkout respects context cancellation while
// waiting, and the pool grows lazily — never beyond WithMaxConcurrency.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolGoldens computes the serial reference results every concurrent run is
// checked against.
type poolGoldens struct {
	n      int
	msgs   [][]Message
	values [][]int64
	route  *RouteResult
	sorted *SortResult
	ranked *RankResult
	median Key
	mode   *ModeResult
}

func newPoolGoldens(t *testing.T, n int) *poolGoldens {
	t.Helper()
	g := &poolGoldens{n: n, msgs: benchRouteWorkload(n), values: benchSortWorkload(n)}
	var err error
	if g.route, err = Route(n, g.msgs); err != nil {
		t.Fatal(err)
	}
	if g.sorted, err = Sort(n, g.values); err != nil {
		t.Fatal(err)
	}
	if g.ranked, err = Rank(n, g.values); err != nil {
		t.Fatal(err)
	}
	if g.median, _, err = Median(n, g.values); err != nil {
		t.Fatal(err)
	}
	if g.mode, err = Mode(n, g.values); err != nil {
		t.Fatal(err)
	}
	return g
}

// checkRoute deep-compares a concurrent Route result against the serial
// golden.
func (g *poolGoldens) checkRoute(res *RouteResult) error {
	if res.Stats != g.route.Stats {
		return fmt.Errorf("route stats %+v, serial %+v", res.Stats, g.route.Stats)
	}
	for i := range res.Delivered {
		if len(res.Delivered[i]) != len(g.route.Delivered[i]) {
			return fmt.Errorf("node %d received %d messages, serial %d", i, len(res.Delivered[i]), len(g.route.Delivered[i]))
		}
		for j := range res.Delivered[i] {
			if res.Delivered[i][j] != g.route.Delivered[i][j] {
				return fmt.Errorf("delivery diverged at node %d message %d", i, j)
			}
		}
	}
	return nil
}

func (g *poolGoldens) checkSort(res *SortResult) error {
	if res.Stats != g.sorted.Stats || res.Total != g.sorted.Total {
		return fmt.Errorf("sort stats/total diverged: %+v vs %+v", res.Stats, g.sorted.Stats)
	}
	for i := range res.Batches {
		if res.Starts[i] != g.sorted.Starts[i] || len(res.Batches[i]) != len(g.sorted.Batches[i]) {
			return fmt.Errorf("batch %d shape diverged", i)
		}
		for j := range res.Batches[i] {
			if res.Batches[i][j] != g.sorted.Batches[i][j] {
				return fmt.Errorf("sorted key diverged at batch %d index %d", i, j)
			}
		}
	}
	return nil
}

func (g *poolGoldens) checkRank(res *RankResult) error {
	if res.Stats != g.ranked.Stats || res.DistinctTotal != g.ranked.DistinctTotal {
		return fmt.Errorf("rank stats diverged")
	}
	for i := range res.Ranks {
		for j := range res.Ranks[i] {
			if res.Ranks[i][j] != g.ranked.Ranks[i][j] {
				return fmt.Errorf("rank diverged at node %d index %d", i, j)
			}
		}
	}
	return nil
}

// TestPoolHammerMixedOps is the -race hammer: many goroutines issue mixed
// operations on one pooled handle, every result is cross-checked against
// the serial goldens, and the merged cumulative stats must equal the exact
// sum over all operations.
func TestPoolHammerMixedOps(t *testing.T) {
	t.Parallel()
	const (
		n       = 25
		workers = 8
		iters   = 3
	)
	g := newPoolGoldens(t, n)
	ctx := context.Background()
	cl, err := New(n, WithMaxConcurrency(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				routed, err := cl.Route(ctx, g.msgs)
				if err == nil {
					err = g.checkRoute(routed)
				}
				if err != nil {
					errs[w] = fmt.Errorf("worker %d iter %d route: %w", w, it, err)
					return
				}
				sorted, err := cl.Sort(ctx, g.values)
				if err == nil {
					err = g.checkSort(sorted)
				}
				if err != nil {
					errs[w] = fmt.Errorf("worker %d iter %d sort: %w", w, it, err)
					return
				}
				ranked, err := cl.Rank(ctx, g.values)
				if err == nil {
					err = g.checkRank(ranked)
				}
				if err != nil {
					errs[w] = fmt.Errorf("worker %d iter %d rank: %w", w, it, err)
					return
				}
				med, stats, err := cl.Median(ctx, g.values)
				if err != nil {
					errs[w] = fmt.Errorf("worker %d iter %d median: %w", w, it, err)
					return
				}
				if med != g.median || stats.Rounds == 0 {
					errs[w] = fmt.Errorf("worker %d iter %d: median %+v, serial %+v", w, it, med, g.median)
					return
				}
				mode, err := cl.Mode(ctx, g.values)
				if err != nil {
					errs[w] = fmt.Errorf("worker %d iter %d mode: %w", w, it, err)
					return
				}
				if mode.Value != g.mode.Value || mode.Count != g.mode.Count || mode.Stats != g.mode.Stats {
					errs[w] = fmt.Errorf("worker %d iter %d: mode diverged", w, it)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The merged aggregate must account for every operation exactly once.
	const opsPerIter = 5
	cum := cl.CumulativeStats()
	if want := workers * iters * opsPerIter; cum.Operations != want {
		t.Fatalf("cumulative operations = %d, want %d", cum.Operations, want)
	}
	_, medianStats, err := Median(n, g.values)
	if err != nil {
		t.Fatal(err)
	}
	perIter := g.route.Stats.TotalWords + g.sorted.Stats.TotalWords +
		g.ranked.Stats.TotalWords + medianStats.TotalWords + g.mode.Stats.TotalWords
	if want := int64(workers*iters) * perIter; cum.TotalWords != want {
		t.Fatalf("cumulative words = %d, want %d", cum.TotalWords, want)
	}
}

// TestPoolCumulativeStatsExact pins the satellite contract: after N
// concurrent successful runs the merged CumulativeStats equal exactly N
// times the single-run stats (totals summed, maxima unchanged).
func TestPoolCumulativeStatsExact(t *testing.T) {
	t.Parallel()
	const (
		n   = 25
		ops = 12
	)
	msgs := benchRouteWorkload(n)
	single, err := Route(n, msgs)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(n, WithMaxConcurrency(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make([]error, ops)
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.Route(context.Background(), msgs)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	cum := cl.CumulativeStats()
	want := CumulativeStats{
		Operations:      ops,
		Rounds:          ops * single.Stats.Rounds,
		MaxEdgeWords:    single.Stats.MaxEdgeWords,
		MaxEdgeMessages: single.Stats.MaxEdgeMessages,
		TotalMessages:   ops * single.Stats.TotalMessages,
		TotalWords:      ops * single.Stats.TotalWords,
	}
	if cum != want {
		t.Fatalf("cumulative stats %+v, want exactly %d x single run %+v", cum, ops, want)
	}
}

// TestPoolCloseDrainsInFlight starts operations, waits until at least one
// holds an engine, then Closes: in-flight operations must complete with
// golden results (Close waits for them), waiters and later calls must fail
// with ErrClosed, and Close must be idempotent.
func TestPoolCloseDrainsInFlight(t *testing.T) {
	t.Parallel()
	const n = 64
	msgs := benchRouteWorkload(n)
	want, err := Route(n, msgs)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(n, WithMaxConcurrency(2))
	if err != nil {
		t.Fatal(err)
	}

	const callers = 4
	results := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			res, err := cl.Route(context.Background(), msgs)
			if err == nil && res.Stats != want.Stats {
				err = fmt.Errorf("in-flight op survived Close with wrong stats: %+v", res.Stats)
			}
			results <- err
		}()
	}
	// Wait until at least one operation has actually checked an engine out,
	// so Close genuinely races an in-flight run.
	for {
		cl.mu.Lock()
		busy := len(cl.engines) > len(cl.idle)
		cl.mu.Unlock()
		if busy {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	completed := 0
	for i := 0; i < callers; i++ {
		err := <-results
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrClosed):
		default:
			t.Fatal(err)
		}
	}
	if completed == 0 {
		t.Fatal("Close drained, but no in-flight operation completed — it should have waited for the checkout")
	}
	if _, err := cl.Route(context.Background(), msgs); !errors.Is(err, ErrClosed) {
		t.Fatalf("Route after Close returned %v, want ErrClosed", err)
	}
	// The aggregate of the completed operations survives Close.
	if cum := cl.CumulativeStats(); cum.Operations != completed {
		t.Fatalf("cumulative operations after Close = %d, want %d", cum.Operations, completed)
	}
}

// TestPoolCheckoutContextWhileWaiting holds the only engine of a k=1 handle
// via a direct checkout, then verifies a waiting operation fails with the
// context error instead of blocking, and that the handle works again once
// the engine is released.
func TestPoolCheckoutContextWhileWaiting(t *testing.T) {
	t.Parallel()
	const n = 16
	msgs := benchRouteWorkload(n)
	cl, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	u, err := cl.checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := cl.Route(ctx, msgs); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiting Route returned %v, want context.DeadlineExceeded", err)
	}
	cl.release(u)
	if _, err := cl.Route(context.Background(), msgs); err != nil {
		t.Fatalf("Route after release: %v", err)
	}
}

// TestPoolLazyGrowth pins the construction policy: a serial caller never
// pays for more than the eager first engine, concurrent checkouts grow the
// pool on demand, and the pool never exceeds WithMaxConcurrency.
func TestPoolLazyGrowth(t *testing.T) {
	t.Parallel()
	const n = 16
	msgs := benchRouteWorkload(n)
	cl, err := New(n, WithMaxConcurrency(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.MaxConcurrency(); got != 3 {
		t.Fatalf("MaxConcurrency() = %d, want 3", got)
	}

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := cl.Route(ctx, msgs); err != nil {
			t.Fatal(err)
		}
	}
	cl.mu.Lock()
	built := len(cl.engines)
	cl.mu.Unlock()
	if built != 1 {
		t.Fatalf("serial use built %d engines, want 1", built)
	}

	// Three direct checkouts exhaust the pool and force lazy growth.
	var units []*execUnit
	for i := 0; i < 3; i++ {
		u, err := cl.checkout(ctx)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, u)
	}
	cl.mu.Lock()
	built = len(cl.engines)
	cl.mu.Unlock()
	if built != 3 {
		t.Fatalf("three concurrent checkouts built %d engines, want 3", built)
	}
	// A fourth checkout must wait (and here, time out) rather than grow past k.
	waitCtx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	defer cancel()
	if _, err := cl.checkout(waitCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("over-capacity checkout returned %v, want context.DeadlineExceeded", err)
	}
	for _, u := range units {
		cl.release(u)
	}
	if _, err := cl.Route(ctx, msgs); err != nil {
		t.Fatal(err)
	}
}

// TestPoolCloseRacesOperations is the dedicated Close-vs-operations race
// test: goroutines hammer a pooled handle while Close lands mid-stream.
// Every operation must either succeed with golden stats or fail with
// ErrClosed — nothing may deadlock, panic, or return a corrupted result.
func TestPoolCloseRacesOperations(t *testing.T) {
	t.Parallel()
	const n = 16
	msgs := benchRouteWorkload(n)
	want, err := Route(n, msgs)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		cl, err := New(n, WithMaxConcurrency(2))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 4)
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 8; i++ {
					res, err := cl.Route(context.Background(), msgs)
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						errs[g] = err
						return
					}
					if res.Stats != want.Stats {
						errs[g] = fmt.Errorf("trial %d goroutine %d op %d: stats diverged under Close race", trial, g, i)
						return
					}
				}
			}(g)
		}
		close(start)
		time.Sleep(time.Duration(trial) * 500 * time.Microsecond)
		if err := cl.Close(); err != nil {
			t.Fatalf("trial %d: Close: %v", trial, err)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPoolValidationBeforeCheckout pins the hoisted-validation contract for
// the sort-based paths: a malformed instance or an unsupported algorithm is
// rejected without consuming an engine, even when the pool is fully checked
// out (the call returns the validation error immediately instead of
// blocking).
func TestPoolValidationBeforeCheckout(t *testing.T) {
	t.Parallel()
	const n = 8
	cl, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Occupy the only engine: a blocked pool proves rejection happens first.
	u, err := cl.checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.release(u)

	ctx := context.Background()
	tooWide := make([][]int64, n+1)
	badRow := [][]int64{make([]int64, n+1)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := cl.Sort(ctx, tooWide); !errors.Is(err, ErrInvalidInstance) {
			t.Errorf("Sort(too many rows) = %v, want ErrInvalidInstance", err)
		}
		if _, err := cl.Rank(ctx, badRow); !errors.Is(err, ErrInvalidInstance) {
			t.Errorf("Rank(oversized row) = %v, want ErrInvalidInstance", err)
		}
		if _, _, err := cl.Median(ctx, badRow); !errors.Is(err, ErrInvalidInstance) {
			t.Errorf("Median(oversized row) = %v, want ErrInvalidInstance", err)
		}
		if _, err := cl.Mode(ctx, nil, WithAlgorithm(Algorithm(3))); err == nil {
			t.Error("Mode(Algorithm(3)) accepted a retired algorithm value")
		}
		if _, err := cl.CountSmallKeys(ctx, make([][]int, n+1), 1); !errors.Is(err, ErrInvalidInstance) {
			t.Errorf("CountSmallKeys(too many rows) = %v, want ErrInvalidInstance", err)
		}
		if _, err := cl.CountSmallKeys(ctx, nil, 0); !errors.Is(err, ErrInvalidInstance) {
			t.Errorf("CountSmallKeys(domain 0) = %v, want ErrInvalidInstance", err)
		}
		if _, err := cl.CountSmallKeys(ctx, nil, n); !errors.Is(err, ErrInvalidInstance) {
			t.Errorf("CountSmallKeys(domain too large for n) = %v, want ErrInvalidInstance", err)
		}
		if _, err := cl.CountSmallKeys(ctx, [][]int{{-1}}, 1); !errors.Is(err, ErrInvalidInstance) {
			t.Errorf("CountSmallKeys(value out of domain) = %v, want ErrInvalidInstance", err)
		}
		if _, err := cl.Sort(ctx, nil, WithAlgorithm(Algorithm(4))); err == nil {
			t.Error("Sort(Algorithm(4)) accepted a retired algorithm value")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("validation blocked on a busy pool — it must run before checkout")
	}
}

// TestPoolChaosHammer is the -race chaos hammer of the fault-injection
// subsystem: 8 workers drive 512 mixed operations against a
// WithMaxConcurrency(4) handle, with a seeded per-worker mix of clean
// operations, injected panics (with and without a retry budget), injected
// cancellations and absorbed stalls. Every failure must be a transient error
// wrapping the expected sentinel, the handle must stay usable after every
// failure (the next operations run on the same pool), every surviving result
// must be bit-identical to the serial goldens, and the handle's cumulative
// counters must account for every success, failure and retry exactly.
func TestPoolChaosHammer(t *testing.T) {
	t.Parallel()
	const (
		n       = 16
		workers = 8
		iters   = 64
	)
	g := newPoolGoldens(t, n)
	ctx := context.Background()
	cl, err := New(n, WithMaxConcurrency(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var succeeded, failed, retried atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			for it := 0; it < iters; it++ {
				switch rng.Intn(6) {
				case 0: // clean route
					res, err := cl.Route(ctx, g.msgs)
					if err == nil {
						err = g.checkRoute(res)
					}
					if err != nil {
						errs[w] = fmt.Errorf("worker %d iter %d clean route: %w", w, it, err)
						return
					}
					succeeded.Add(1)
				case 1: // clean sort
					res, err := cl.Sort(ctx, g.values)
					if err == nil {
						err = g.checkSort(res)
					}
					if err != nil {
						errs[w] = fmt.Errorf("worker %d iter %d clean sort: %w", w, it, err)
						return
					}
					succeeded.Add(1)
				case 2: // injected panic, no retry budget: must fail transient
					_, err := cl.Route(ctx, g.msgs, WithInjectedPanic(rng.Intn(n), rng.Intn(3)))
					if err == nil {
						errs[w] = fmt.Errorf("worker %d iter %d: injected panic did not surface", w, it)
						return
					}
					if !errors.Is(err, ErrTransient) || !errors.Is(err, ErrFaultInjected) {
						errs[w] = fmt.Errorf("worker %d iter %d: panic error %v must wrap ErrTransient and ErrFaultInjected", w, it, err)
						return
					}
					failed.Add(1)
				case 3: // injected panic, one retry: must recover bit-identical
					res, err := cl.Route(ctx, g.msgs, WithInjectedPanic(rng.Intn(n), rng.Intn(3)), WithRetry(1, 0))
					if err == nil {
						err = g.checkRoute(res)
					}
					if err != nil {
						errs[w] = fmt.Errorf("worker %d iter %d retried panic route: %w", w, it, err)
						return
					}
					succeeded.Add(1)
					retried.Add(1)
				case 4: // injected cancel, one retry: must recover bit-identical
					res, err := cl.Sort(ctx, g.values, WithInjectedCancel(1), WithRetry(1, 0))
					if err == nil {
						err = g.checkSort(res)
					}
					if err != nil {
						errs[w] = fmt.Errorf("worker %d iter %d retried cancel sort: %w", w, it, err)
						return
					}
					succeeded.Add(1)
					retried.Add(1)
				case 5: // short stall, no deadline armed: absorbed, bit-identical
					res, err := cl.Sort(ctx, g.values, WithInjectedStall(rng.Intn(n), 1, 200*time.Microsecond))
					if err == nil {
						err = g.checkSort(res)
					}
					if err != nil {
						errs[w] = fmt.Errorf("worker %d iter %d stalled sort: %w", w, it, err)
						return
					}
					succeeded.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := succeeded.Load() + failed.Load(); got != workers*iters {
		t.Fatalf("accounted for %d operations, want %d", got, workers*iters)
	}
	// The cumulative counters must agree exactly with what the workers saw:
	// Operations counts successes only, FailedOperations the final failures,
	// Retries every transparent re-run (one per recovered injected fault).
	cum := cl.CumulativeStats()
	if int64(cum.Operations) != succeeded.Load() {
		t.Fatalf("cumulative operations = %d, want %d", cum.Operations, succeeded.Load())
	}
	if cum.FailedOperations != failed.Load() {
		t.Fatalf("cumulative failed operations = %d, want %d", cum.FailedOperations, failed.Load())
	}
	if cum.Retries != retried.Load() {
		t.Fatalf("cumulative retries = %d, want %d", cum.Retries, retried.Load())
	}
	// The handle survived 512 chaotic operations; Close must still drain
	// cleanly (the deferred Close would catch a failure, but assert the
	// post-chaos handle also still runs a clean op first).
	res, err := cl.Route(ctx, g.msgs)
	if err != nil {
		t.Fatalf("clean route after chaos: %v", err)
	}
	if err := g.checkRoute(res); err != nil {
		t.Fatalf("post-chaos route diverged: %v", err)
	}
}

// TestInjectedPanicNonSquareN pins fault injection on the multiplexed
// routing path: non-square n runs Theorem 3.7's V1/V2 decomposition through
// the Mux, where an injected panic fires inside the physical exchange that
// Mux.Run performs for its instances. A panic there once deadlocked the
// whole run (it was downgraded to a graceful instance error and peers waited
// forever at the engine barrier); it must instead fail fast as
// a transient ErrFaultInjected, recover under WithRetry bit-identical to the
// golden, and leave the handle usable.
func TestInjectedPanicNonSquareN(t *testing.T) {
	t.Parallel()
	const n = 32 // not a perfect square: routing multiplexes sub-instances
	g := newPoolGoldens(t, n)
	ctx := context.Background()
	cl, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := cl.Route(ctx, g.msgs, WithInjectedPanic(n/4, 2))
		if err == nil {
			t.Error("injected panic on the mux path did not surface")
			return
		}
		if !errors.Is(err, ErrTransient) || !errors.Is(err, ErrFaultInjected) {
			t.Errorf("mux-path panic error %v must wrap ErrTransient and ErrFaultInjected", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("injected panic on the mux path deadlocked the run")
	}

	res, err := cl.Route(ctx, g.msgs, WithInjectedPanic(n/4, 2), WithRetry(1, 0))
	if err != nil {
		t.Fatalf("retried mux-path panic did not recover: %v", err)
	}
	if err := g.checkRoute(res); err != nil {
		t.Fatalf("recovered mux-path route diverged from golden: %v", err)
	}
}

// TestInjectedPanicErrorReplaysIdentically pins the canonical form of a
// failed run's error (cliquebench chaos compares the strings of two
// replays).
// At n=48 the route is multiplexed, so the lowest-id bystander learns of node
// 12's crash in whichever Mux sub-step it has reached — step2.1 or step2.3,
// by goroutine scheduling — and its wrapper used to be the run's error. The
// engine now returns the root cause such a wrapper wraps.
func TestInjectedPanicErrorReplaysIdentically(t *testing.T) {
	t.Parallel()
	const n = 48
	msgs := benchRouteWorkload(n)
	cl, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var first string
	for i := 0; i < 50; i++ {
		_, err := cl.Route(context.Background(), msgs, WithInjectedPanic(n/4, 2))
		if !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("replay %d: error %v does not wrap ErrFaultInjected", i, err)
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("replay %d: error %q differs from the first replay's %q", i, err, first)
		}
	}
}

// FuzzPoolCancelAtRandomRound cancels Route operations at fuzzer-chosen
// rounds, with and without a retry budget. Invariants: a cancellation that
// fires surfaces as a deterministic transient error (two runs, identical
// error text) naming the round; a retry recovers it bit-identical to the
// golden; a cancellation scheduled past the last round never fires and the
// operation succeeds; and the handle stays usable afterwards.
func FuzzPoolCancelAtRandomRound(f *testing.F) {
	f.Add(uint8(0), false)
	f.Add(uint8(1), false)
	f.Add(uint8(1), true)
	f.Add(uint8(3), true)
	f.Add(uint8(200), false)
	const n = 8
	msgs := benchRouteWorkload(n)
	golden, err := Route(n, msgs)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, round uint8, retry bool) {
		ctx := context.Background()
		cl, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		opts := []Option{WithInjectedCancel(int(round))}
		if retry {
			opts = append(opts, WithRetry(1, 0))
		}
		res, err := cl.Route(ctx, msgs, opts...)
		if err != nil {
			if retry {
				t.Fatalf("round %d: retry must recover an injected cancellation, got %v", round, err)
			}
			if !errors.Is(err, ErrTransient) || !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("round %d: error %v must wrap ErrTransient and ErrFaultInjected", round, err)
			}
			_, err2 := cl.Route(ctx, msgs, opts...)
			if err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("round %d: cancellation not deterministic: %q vs %q", round, err, err2)
			}
		} else if res.Stats != golden.Stats {
			t.Fatalf("round %d: surviving run diverged from golden: %+v vs %+v", round, res.Stats, golden.Stats)
		}
		// The handle must stay usable after the injected failure.
		clean, err := cl.Route(ctx, msgs)
		if err != nil {
			t.Fatalf("round %d: clean route after injection: %v", round, err)
		}
		if clean.Stats != golden.Stats {
			t.Fatalf("round %d: post-injection route diverged from golden", round)
		}
	})
}

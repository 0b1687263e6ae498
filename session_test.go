package congestedclique

// Tests for the session API semantics: handle reuse produces bit-identical
// statistics, handles are independent under concurrency, context
// cancellation aborts without stranding the barrier, closed handles fail
// cleanly, and the option scope split is enforced.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSessionReuseStatsBitIdentical runs the golden full-load workloads
// repeatedly (and interleaved with other operations) on one handle and
// checks every run's statistics against a fresh one-shot call.
func TestSessionReuseStatsBitIdentical(t *testing.T) {
	t.Parallel()
	const n = 64
	ctx := context.Background()
	msgs := benchRouteWorkload(n)
	values := benchSortWorkload(n)

	oneShotRoute, err := Route(n, msgs)
	if err != nil {
		t.Fatal(err)
	}
	oneShotSort, err := Sort(n, values)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for round := 0; round < 3; round++ {
		res, err := cl.Route(ctx, msgs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Stats != oneShotRoute.Stats {
			t.Fatalf("round %d: session Route stats %+v differ from one-shot %+v", round, res.Stats, oneShotRoute.Stats)
		}
		sorted, err := cl.Sort(ctx, values)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if sorted.Stats != oneShotSort.Stats {
			t.Fatalf("round %d: session Sort stats %+v differ from one-shot %+v", round, sorted.Stats, oneShotSort.Stats)
		}
		// Results, not just stats, must be identical.
		for i := range res.Delivered {
			if len(res.Delivered[i]) != len(oneShotRoute.Delivered[i]) {
				t.Fatalf("round %d: node %d received %d messages, one-shot %d", round, i, len(res.Delivered[i]), len(oneShotRoute.Delivered[i]))
			}
			for j := range res.Delivered[i] {
				if res.Delivered[i][j] != oneShotRoute.Delivered[i][j] {
					t.Fatalf("round %d: delivery diverged at node %d message %d", round, i, j)
				}
			}
		}
	}
	cum := cl.CumulativeStats()
	if cum.Operations != 6 {
		t.Fatalf("cumulative operations = %d, want 6", cum.Operations)
	}
	wantWords := 3 * (oneShotRoute.Stats.TotalWords + oneShotSort.Stats.TotalWords)
	if cum.TotalWords != wantWords {
		t.Fatalf("cumulative words = %d, want %d", cum.TotalWords, wantWords)
	}
}

// TestSessionMixedOperations exercises every method of one handle in
// sequence, ensuring no operation leaks state into the next.
func TestSessionMixedOperations(t *testing.T) {
	t.Parallel()
	const n = 128 // large enough for the Section 6.3 helper-node requirement
	ctx := context.Background()
	cl, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	values := make([][]int64, n)
	codes := make([][]int, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			values[i] = append(values[i], int64((i*7+k*3)%11))
		}
		codes[i] = []int{i % 2}
	}

	if _, err := cl.Route(ctx, benchRouteWorkload(n)); err != nil {
		t.Fatal(err)
	}
	sorted, err := cl.Sort(ctx, values)
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Total != n*n {
		t.Fatalf("sorted %d keys, want %d", sorted.Total, n*n)
	}
	if _, err := cl.Rank(ctx, values); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.SelectKth(ctx, values, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Median(ctx, values); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Mode(ctx, values); err != nil {
		t.Fatal(err)
	}
	hist, err := cl.CountSmallKeys(ctx, codes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Counts[0]+hist.Counts[1] != int64(n) {
		t.Fatalf("histogram counted %d keys, want %d", hist.Counts[0]+hist.Counts[1], n)
	}
	if cum := cl.CumulativeStats(); cum.Operations != 7 {
		t.Fatalf("cumulative operations = %d, want 7", cum.Operations)
	}
}

// TestSessionConcurrentHandles runs independent handles from concurrent
// goroutines (the intended scaling pattern) under -race and checks each
// produces the golden deterministic stats.
func TestSessionConcurrentHandles(t *testing.T) {
	t.Parallel()
	const n = 25
	const handles = 4
	ctx := context.Background()
	msgs := benchRouteWorkload(n)
	want, err := Route(n, msgs)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, handles)
	for h := 0; h < handles; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			cl, err := New(n)
			if err != nil {
				errs[h] = err
				return
			}
			defer cl.Close()
			for round := 0; round < 3; round++ {
				res, err := cl.Route(ctx, msgs)
				if err != nil {
					errs[h] = err
					return
				}
				if res.Stats != want.Stats {
					errs[h] = fmt.Errorf("handle %d round %d: stats %+v, want %+v", h, round, res.Stats, want.Stats)
					return
				}
			}
		}(h)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionSerializesSharedHandle verifies a single handle used from many
// goroutines stays correct (operations serialize internally).
func TestSessionSerializesSharedHandle(t *testing.T) {
	t.Parallel()
	const n = 16
	ctx := context.Background()
	msgs := benchRouteWorkload(n)
	want, err := Route(n, msgs)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				res, err := cl.Route(ctx, msgs)
				if err != nil {
					errs[g] = err
					return
				}
				if res.Stats != want.Stats {
					errs[g] = fmt.Errorf("goroutine %d: stats diverged", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if cum := cl.CumulativeStats(); cum.Operations != 8 {
		t.Fatalf("cumulative operations = %d, want 8", cum.Operations)
	}
}

// TestSessionContextCancellation cancels an in-flight Route shortly after it
// starts: the call must return an error wrapping context.Canceled without
// stranding any node, and the handle must produce golden results afterwards.
func TestSessionContextCancellation(t *testing.T) {
	t.Parallel()
	const n = 256 // large enough that the run is mid-flight when cancel lands
	msgs := benchRouteWorkload(n)
	cl, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	if _, err := cl.Route(ctx, msgs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Route returned %v, want an error wrapping context.Canceled", err)
	}

	// The handle recovered: a fresh context produces the golden stats.
	want, err := Route(n, msgs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Route(context.Background(), msgs)
	if err != nil {
		t.Fatalf("Route after cancellation: %v", err)
	}
	if res.Stats != want.Stats {
		t.Fatalf("stats after cancellation %+v, want %+v", res.Stats, want.Stats)
	}
	// Only the successful operation counts toward the session aggregate.
	if cum := cl.CumulativeStats(); cum.Operations != 1 || cum.TotalWords != want.Stats.TotalWords {
		t.Fatalf("cancelled run leaked into cumulative stats: %+v", cum)
	}
}

// TestSessionPreCancelledContext: a context that is already over fails fast.
func TestSessionPreCancelledContext(t *testing.T) {
	t.Parallel()
	cl, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Route(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Route returned %v", err)
	}
	if _, err := cl.Route(context.Background(), nil); err != nil {
		t.Fatalf("Route after pre-cancelled call: %v", err)
	}
}

// TestSessionUseAfterClose: every method fails with ErrClosed, Close is
// idempotent. The clique is large enough (domain 2 needs n >= 128, Section
// 6.3) that every call below is well-formed — input validation runs before
// the pool checkout, so a malformed call would report its validation error
// instead of exercising the ErrClosed path.
func TestSessionUseAfterClose(t *testing.T) {
	t.Parallel()
	cl, err := New(128)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.Route(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := cl.Route(ctx, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Route after Close returned %v, want ErrClosed", err)
	}
	if _, err := cl.Sort(ctx, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sort after Close returned %v, want ErrClosed", err)
	}
	if _, err := cl.CountSmallKeys(ctx, nil, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("CountSmallKeys after Close returned %v, want ErrClosed", err)
	}
}

// TestHandleScopedOptionRejectedPerCall: every handle-scoped option is
// accepted by New but rejected, by name, by individual calls.
func TestHandleScopedOptionRejectedPerCall(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	cl, err := New(8, WithStrictBandwidth(64), WithMaxConcurrency(2),
		WithRoundDeadline(time.Minute), WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for name, opt := range map[string]Option{
		"WithStrictBandwidth": WithStrictBandwidth(16),
		"WithMaxConcurrency":  WithMaxConcurrency(3),
		"WithRoundDeadline":   WithRoundDeadline(time.Second),
		"WithPlanCache":       WithPlanCache(8),
	} {
		if _, err := cl.Route(ctx, nil, opt); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s per call: got %v, want a handle-scoped rejection naming it", name, err)
		}
	}
	// Call-scoped options work per call and override handle defaults.
	if _, err := cl.Route(ctx, nil, WithAlgorithm(LowCompute), WithRetry(1, 0)); err != nil {
		t.Fatalf("call-scoped options rejected: %v", err)
	}
}

// TestSortAlgorithmFallbackAndRejection pins how the algorithms share
// sorters — LowCompute sorting is AlgorithmAuto's pipeline arm (Algorithm 4
// with Theorem 5.4 at Step 6, 31 rounds) with Deterministic's batches, and
// the sorting-based corollaries sort with the call's algorithm — and that
// the one-shot sorting shims
// reject a retired algorithm value instead of sorting under another
// algorithm.
func TestSortAlgorithmFallbackAndRejection(t *testing.T) {
	t.Parallel()
	const n = 16
	values := benchSortWorkload(n)

	det, err := Sort(n, values)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Sort(n, values, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := Sort(n, values, WithAlgorithm(LowCompute))
	if err != nil {
		t.Fatalf("LowCompute sorting: %v", err)
	}
	if auto.Strategy != SortStrategyPipeline || lc.Stats != auto.Stats {
		t.Fatalf("LowCompute sort stats %+v differ from the Auto pipeline's %+v (strategy %v)", lc.Stats, auto.Stats, auto.Strategy)
	}
	if lc.Stats.Rounds != 31 {
		t.Fatalf("LowCompute sort took %d rounds, want 31", lc.Stats.Rounds)
	}
	sortBatchesEqual(t, "LowCompute vs deterministic", lc, det)
	if _, err := Sort(n, values, WithAlgorithm(Algorithm(4))); err == nil {
		t.Fatal("Sort accepted the retired algorithm value 4")
	}
	if _, err := SortKeys(n, nil, WithAlgorithm(Algorithm(3))); err == nil {
		t.Fatal("SortKeys accepted the retired algorithm value 3")
	}

	// The corollaries sort with the call's algorithm: Median under LowCompute
	// and AlgorithmAuto (pipeline arm) is the 31-round Sort plus one
	// broadcast, and selects Deterministic's key.
	cl, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	want, _, err := cl.Median(ctx, values)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{LowCompute, AlgorithmAuto} {
		got, stats, err := cl.Median(ctx, values, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("Median under %v: %v", alg, err)
		}
		if got != want || stats.Rounds != 32 {
			t.Fatalf("Median under %v: key %+v in %d rounds, want deterministic's %+v in 32", alg, got, stats.Rounds, want)
		}
	}
}

// TestRouteValidationSeqPaths exercises both sequence-dedup paths of the
// allocation-free validator: the dense bitmap window and the sorted
// fallback for out-of-window sequence numbers.
func TestRouteValidationSeqPaths(t *testing.T) {
	t.Parallel()
	// In-window duplicate (bitmap path).
	dup := [][]Message{{{Src: 0, Dst: 1, Seq: 0}, {Src: 0, Dst: 2, Seq: 0}}}
	if _, err := Route(4, dup); !errors.Is(err, ErrInvalidInstance) {
		t.Fatalf("bitmap path missed duplicate: %v", err)
	}
	// Out-of-window duplicates (sorted path): seqs far outside [0, len).
	dup = [][]Message{{{Src: 0, Dst: 1, Seq: 1 << 20}, {Src: 0, Dst: 2, Seq: 1 << 20}}}
	if _, err := Route(4, dup); !errors.Is(err, ErrInvalidInstance) {
		t.Fatalf("sorted path missed duplicate: %v", err)
	}
	// Mixed in/out of window, all distinct (including negatives): valid.
	ok := [][]Message{{
		{Src: 0, Dst: 1, Seq: -5},
		{Src: 0, Dst: 2, Seq: 0},
		{Src: 0, Dst: 3, Seq: 99999},
	}}
	if _, err := Route(4, ok); err != nil {
		t.Fatalf("distinct mixed seqs rejected: %v", err)
	}
	// Repeated validation on one handle must stay correct (scratch reuse).
	cl, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := cl.Route(ctx, ok); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if _, err := cl.Route(ctx, dup); !errors.Is(err, ErrInvalidInstance) {
			t.Fatalf("iteration %d: duplicate accepted after scratch reuse: %v", i, err)
		}
	}
}

// TestCallerOwnership pins the ownership contract of the pass-through: the
// protocol reads the caller's input rows in place, so every Route, Sort and
// SortKeys must leave them byte-identical; every result row is a slice
// allocated for its own call, so a later operation on the same handle must
// not change an earlier result; and a node that received nothing gets a nil
// row. It covers every algorithm, the dense (blocking) and step arms of
// AlgorithmAuto, and a plan-cache miss followed by a hit.
func TestCallerOwnership(t *testing.T) {
	t.Parallel()
	const n = 16
	ctx := context.Background()
	full := benchRouteWorkload(n)
	few := [][]Message{{{Src: 0, Dst: 1, Seq: 0, Payload: 7}, {Src: 0, Dst: 2, Seq: 1, Payload: 8}}}
	dense := benchSortWorkload(n)
	presorted := [][]int64{{1, 2, 3}}
	labelled := func(values [][]int64) [][]Key {
		keys := make([][]Key, len(values))
		for i, row := range values {
			for j, v := range row {
				keys[i] = append(keys[i], Key{Value: v, Origin: i, Seq: j})
			}
		}
		return keys
	}

	for _, h := range []struct {
		name   string
		opts   []Option
		cached bool
	}{
		{name: "deterministic", opts: []Option{WithAlgorithm(Deterministic)}},
		{name: "low-compute", opts: []Option{WithAlgorithm(LowCompute)}},
		{name: "auto", opts: []Option{WithAlgorithm(AlgorithmAuto)}},
		{name: "auto+cache", opts: []Option{WithAlgorithm(AlgorithmAuto), WithPlanCache(8)}, cached: true},
	} {
		t.Run(h.name, func(t *testing.T) {
			cl, err := New(n, h.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			auto := strings.HasPrefix(h.name, "auto")

			// held lists every result returned so far with a deep copy taken
			// when it was returned; each later operation must leave all of
			// them as they were.
			type heldResult struct {
				label     string
				got, want any
			}
			var held []heldResult
			checkHeld := func(after string) {
				t.Helper()
				for _, r := range held {
					if !reflect.DeepEqual(r.got, r.want) {
						t.Fatalf("%s changed the result of %s", after, r.label)
					}
				}
			}

			for _, rc := range []struct {
				name string
				msgs [][]Message
				want RouteStrategy
			}{{"full", full, StrategyPipeline}, {"few", few, StrategyDirect}} {
				for pass := 0; pass < 2; pass++ { // with a plan cache: miss, then hit
					label := fmt.Sprintf("route %s pass %d", rc.name, pass)
					before := cloneRows(rc.msgs)
					res, err := cl.Route(ctx, rc.msgs)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(rc.msgs, before) {
						t.Fatalf("%s wrote to the caller's input rows", label)
					}
					if auto && res.Strategy != rc.want {
						t.Fatalf("%s: strategy %v, want %v", label, res.Strategy, rc.want)
					}
					checkNilWhenEmpty(t, label, res.Delivered, rc.name == "few")
					checkHeld(label)
					held = append(held, heldResult{label, res.Delivered, cloneRows(res.Delivered)})
				}
			}

			for _, sc := range []struct {
				name   string
				values [][]int64
				want   SortStrategy
			}{{"dense", dense, SortStrategyPipeline}, {"presorted", presorted, SortStrategyPresorted}} {
				keys := labelled(sc.values)
				for pass := 0; pass < 2; pass++ {
					for _, byKeys := range []bool{false, true} {
						label := fmt.Sprintf("sort %s pass %d keys=%v", sc.name, pass, byKeys)
						valuesBefore, keysBefore := cloneRows(sc.values), cloneRows(keys)
						var res *SortResult
						if byKeys {
							res, err = cl.SortKeys(ctx, keys)
						} else {
							res, err = cl.Sort(ctx, sc.values)
						}
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !reflect.DeepEqual(sc.values, valuesBefore) || !reflect.DeepEqual(keys, keysBefore) {
							t.Fatalf("%s wrote to the caller's input rows", label)
						}
						if auto && res.Strategy != sc.want {
							t.Fatalf("%s: strategy %v, want %v", label, res.Strategy, sc.want)
						}
						checkNilWhenEmpty(t, label, res.Batches, sc.name == "presorted")
						checkHeld(label)
						held = append(held, heldResult{label, res.Batches, cloneRows(res.Batches)})
					}
				}
			}

			if cs := cl.CumulativeStats(); h.cached && (cs.PlanCacheMisses == 0 || cs.PlanCacheHits == 0) {
				t.Fatalf("plan cache saw %d misses and %d hits, want both", cs.PlanCacheMisses, cs.PlanCacheHits)
			}
		})
	}
}

// TestCallerOwnershipTinyCliques extends TestCallerOwnership below the
// clique size at which Algorithm 4 degenerates into one Algorithm 3 over
// the whole clique (n < 9, core's sortTiny), which sorts the keys it is
// handed in place: Sort, SortKeys and a corollary must leave the caller's
// rows, each in descending order so that any sort would reorder it, as they
// were.
func TestCallerOwnershipTinyCliques(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for _, n := range []int{4, 8} {
		values := make([][]int64, n)
		keys := make([][]Key, n)
		for i := range values {
			for j := 0; j < n; j++ {
				v := int64((n-j)*n + i)
				values[i] = append(values[i], v)
				keys[i] = append(keys[i], Key{Value: v, Origin: i, Seq: j})
			}
		}
		for _, alg := range []Algorithm{Deterministic, LowCompute, AlgorithmAuto} {
			t.Run(fmt.Sprintf("n=%d/%v", n, alg), func(t *testing.T) {
				cl, err := New(n, WithAlgorithm(alg))
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				valuesBefore, keysBefore := cloneRows(values), cloneRows(keys)
				for _, op := range []struct {
					name string
					run  func() error
				}{
					{"Sort", func() error { _, err := cl.Sort(ctx, values); return err }},
					{"SortKeys", func() error { _, err := cl.SortKeys(ctx, keys); return err }},
					{"Rank", func() error { _, err := cl.Rank(ctx, values); return err }},
				} {
					if err := op.run(); err != nil {
						t.Fatalf("%s: %v", op.name, err)
					}
					if !reflect.DeepEqual(values, valuesBefore) || !reflect.DeepEqual(keys, keysBefore) {
						t.Fatalf("%s wrote to the caller's input rows", op.name)
					}
				}
			})
		}
	}
}

// cloneRows deep-copies rows, keeping nil rows nil.
func cloneRows[T any](rows [][]T) [][]T {
	out := make([][]T, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// checkNilWhenEmpty fails if a result row is empty but not nil, and, when
// someEmpty is set, if no row is empty.
func checkNilWhenEmpty[T any](t *testing.T, label string, rows [][]T, someEmpty bool) {
	t.Helper()
	empty := 0
	for i, r := range rows {
		if len(r) == 0 {
			if r != nil {
				t.Fatalf("%s: node %d got an empty non-nil row", label, i)
			}
			empty++
		}
	}
	if someEmpty && empty == 0 {
		t.Fatalf("%s: every node received something; the instance should leave some empty", label)
	}
}

package core

import (
	"fmt"
	"testing"

	"congestedclique/internal/clique"
)

// Tests for the demand-aware sorting planner: the classification table over
// the workload families, boundary flips at the partition and distinct-cap
// gates, and output identity of every planner arm against the Algorithm 4
// pipeline.

// smallDomainKeys builds a non-partitioned instance whose values cycle
// through exactly distinct values, interleaved across all origins so the
// presorted gate cannot fire.
func smallDomainKeys(n, per, distinct int) [][]Key {
	keys := make([][]Key, n)
	for i := 0; i < n; i++ {
		for k := 0; k < per; k++ {
			keys[i] = append(keys[i], Key{Value: int64((i + k) % distinct), Origin: i, Seq: k})
		}
	}
	return keys
}

// runAutoSort plans the instance centrally and executes AutoSort on every
// node, returning the per-node results and the run's metrics.
func runAutoSort(t *testing.T, keys [][]Key) ([]*SortResult, clique.Metrics) {
	t.Helper()
	n := len(keys)
	plan := PlanSort(n, keys)
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	results := make([]*SortResult, n)
	err = nw.Run(func(nd *clique.Node) error {
		res, sErr := AutoSort(nd, keys[nd.ID()], plan)
		if sErr != nil {
			return sErr
		}
		results[nd.ID()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, nw.Metrics()
}

// runPipelineSort executes the deterministic Sort on every node.
func runPipelineSort(t *testing.T, keys [][]Key) []*SortResult {
	t.Helper()
	n := len(keys)
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	results := make([]*SortResult, n)
	err = nw.Run(func(nd *clique.Node) error {
		res, sErr := Sort(nd, keys[nd.ID()])
		if sErr != nil {
			return sErr
		}
		results[nd.ID()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// sortResultsEqual fails unless the two per-node result sets agree bit for
// bit (batches, starts, totals).
func sortResultsEqual(t *testing.T, label string, got, want []*SortResult) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if g.Start != w.Start || g.Total != w.Total || len(g.Batch) != len(w.Batch) {
			t.Fatalf("%s: node %d got start=%d len=%d total=%d, want start=%d len=%d total=%d",
				label, i, g.Start, len(g.Batch), g.Total, w.Start, len(w.Batch), w.Total)
		}
		for j := range w.Batch {
			if g.Batch[j] != w.Batch[j] {
				t.Fatalf("%s: node %d batch[%d] = %+v, want %+v", label, i, j, g.Batch[j], w.Batch[j])
			}
		}
	}
}

// TestPlanSortClassification pins the planner's verdict for each workload
// family at a clique size (n=64) whose distinct-value cap is 1, so only the
// partition gate can fire.
func TestPlanSortClassification(t *testing.T) {
	t.Parallel()
	const n, per = 64, 8
	cases := []struct {
		distribution string
		want         SortStrategy
		locallySorted,
		partitioned bool
	}{
		// Node i holds block i of the sorted sequence, in order.
		{"sorted", SortStrategyPresorted, true, true},
		// Disjoint per-node value ranges, shuffled within each row: the rows
		// partition the global order only after the free local sort.
		{"clustered", SortStrategyPresorted, false, true},
		// All keys equal: the footnote-5 tie-break (Value, Origin, Seq)
		// partitions them by origin, so the presorted gate fires before the
		// small-domain census is even consulted.
		{"constant", SortStrategyPresorted, true, true},
		// Descending across nodes and within rows: nothing partitions.
		{"reverse", SortStrategyPipeline, false, false},
		{"uniform", SortStrategyPipeline, false, false},
		// Seven distinct values, but SmallDomainDistinctCap(64) = 1: the
		// clique is too small for the counting arm.
		{"duplicates", SortStrategyPipeline, false, false},
	}
	if cap := SmallDomainDistinctCap(n); cap != 1 {
		t.Fatalf("SmallDomainDistinctCap(%d) = %d, test assumes 1", n, cap)
	}
	for _, tc := range cases {
		t.Run(tc.distribution, func(t *testing.T) {
			t.Parallel()
			plan := PlanSort(n, buildKeys(n, per, tc.distribution, 7))
			if plan.Strategy != tc.want {
				t.Fatalf("strategy = %v (%s), want %v", plan.Strategy, plan.Reason, tc.want)
			}
			if plan.LocallySorted != tc.locallySorted || plan.Partitioned != tc.partitioned {
				t.Fatalf("locallySorted=%v partitioned=%v, want %v/%v",
					plan.LocallySorted, plan.Partitioned, tc.locallySorted, tc.partitioned)
			}
			if plan.TotalKeys != n*per || plan.MaxLoad != per || plan.ActiveHolders != n {
				t.Fatalf("census = %d keys / max %d / %d holders, want %d/%d/%d",
					plan.TotalKeys, plan.MaxLoad, plan.ActiveHolders, n*per, per, n)
			}
		})
	}
}

// TestPlanSortEmpty pins the degenerate classification: no keys at all.
func TestPlanSortEmpty(t *testing.T) {
	t.Parallel()
	for _, keys := range [][][]Key{nil, make([][]Key, 16), {{}, {}}} {
		plan := PlanSort(16, keys)
		if plan.Strategy != SortStrategyEmpty || plan.TotalKeys != 0 {
			t.Fatalf("empty instance planned as %v with %d keys", plan.Strategy, plan.TotalKeys)
		}
		if plan.Rounds() != 0 {
			t.Fatalf("empty plan costs %d rounds, want 0", plan.Rounds())
		}
	}
}

// TestPlanSortPartitionBoundaryFlip flips the partition gate with a single
// key: a sorted instance is presorted, and moving one out-of-range value into
// node 0 demotes it to the pipeline.
func TestPlanSortPartitionBoundaryFlip(t *testing.T) {
	t.Parallel()
	const n, per = 64, 4
	keys := buildKeys(n, per, "sorted", 1)
	if plan := PlanSort(n, keys); plan.Strategy != SortStrategyPresorted {
		t.Fatalf("sorted instance planned as %v", plan.Strategy)
	}
	keys[0][per-1].Value = int64(n * per) // larger than everything held later
	plan := PlanSort(n, keys)
	if plan.Strategy != SortStrategyPipeline {
		t.Fatalf("one overlapping key still planned as %v (%s)", plan.Strategy, plan.Reason)
	}
	if plan.Partitioned {
		t.Fatal("plan still reports a partitioned instance")
	}
}

// TestPlanSortDistinctCapBoundaryFlip flips the small-domain gate by one
// distinct value: exactly SmallDomainDistinctCap(n) values select the
// counting arm, one more falls back to the pipeline.
func TestPlanSortDistinctCapBoundaryFlip(t *testing.T) {
	t.Parallel()
	const n, per = 256, 4
	distinctCap := SmallDomainDistinctCap(n)
	if distinctCap < 2 {
		t.Fatalf("SmallDomainDistinctCap(%d) = %d, test needs >= 2", n, distinctCap)
	}

	at := PlanSort(n, smallDomainKeys(n, per, distinctCap))
	if at.Strategy != SortStrategySmallDomain {
		t.Fatalf("%d distinct values planned as %v (%s)", distinctCap, at.Strategy, at.Reason)
	}
	if at.DistinctValues != distinctCap || len(at.Domain) != distinctCap {
		t.Fatalf("census found %d distinct (domain %d), want %d", at.DistinctValues, len(at.Domain), distinctCap)
	}
	for i := 1; i < len(at.Domain); i++ {
		if at.Domain[i-1] >= at.Domain[i] {
			t.Fatalf("domain table not strictly ascending: %v", at.Domain)
		}
	}
	if at.MaxDuplicity <= 0 {
		t.Fatalf("max duplicity = %d, want positive", at.MaxDuplicity)
	}

	over := PlanSort(n, smallDomainKeys(n, per, distinctCap+1))
	if over.Strategy != SortStrategyPipeline {
		t.Fatalf("%d distinct values planned as %v", distinctCap+1, over.Strategy)
	}
	if over.DistinctValues != distinctCap+1 {
		t.Fatalf("bailed census reports %d distinct, want cap+1 = %d", over.DistinctValues, distinctCap+1)
	}
}

// TestPlanSortRounds pins the strategy-to-round-count map.
func TestPlanSortRounds(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		strategy SortStrategy
		want     int
	}{
		{SortStrategyEmpty, 0},
		{SortStrategyPresorted, 2},
		{SortStrategySmallDomain, 4},
		{SortStrategyPipeline, -1},
	} {
		if got := (SortPlan{Strategy: tc.strategy}).Rounds(); got != tc.want {
			t.Fatalf("Rounds(%v) = %d, want %d", tc.strategy, got, tc.want)
		}
	}
}

// TestAutoSortArmsMatchPipeline runs every planner arm and checks the output
// is bit-identical to the deterministic pipeline's, and that the fast arms
// pay exactly their advertised round counts.
func TestAutoSortArmsMatchPipeline(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name       string
		keys       [][]Key
		strategy   SortStrategy
		wantRounds int // -1: don't check
	}{
		{"presorted", buildKeys(64, 8, "sorted", 3), SortStrategyPresorted, 2},
		{"near-sorted", buildKeys(64, 8, "clustered", 3), SortStrategyPresorted, 2},
		{"constant", buildKeys(64, 8, "constant", 3), SortStrategyPresorted, 2},
		{"small-domain", smallDomainKeys(256, 3, 3), SortStrategySmallDomain, 4},
		{"pipeline", buildKeys(64, 8, "uniform", 3), SortStrategyPipeline, -1},
		{"empty", make([][]Key, 16), SortStrategyEmpty, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			n := len(tc.keys)
			plan := PlanSort(n, tc.keys)
			if plan.Strategy != tc.strategy {
				t.Fatalf("strategy = %v (%s), want %v", plan.Strategy, plan.Reason, tc.strategy)
			}
			got, metrics := runAutoSort(t, tc.keys)
			want := runPipelineSort(t, tc.keys)
			sortResultsEqual(t, tc.name, got, want)
			if tc.wantRounds >= 0 && metrics.Rounds != tc.wantRounds {
				t.Fatalf("auto sort took %d rounds, want %d", metrics.Rounds, tc.wantRounds)
			}
		})
	}
}

// TestAutoSortUnevenPresorted exercises the presorted arm with ragged row
// sizes (including empty rows), where the StartRanks prefix sums are the only
// source of the global ranks.
func TestAutoSortUnevenPresorted(t *testing.T) {
	t.Parallel()
	const n = 32
	keys := make([][]Key, n)
	next := int64(0)
	for i := 0; i < n; i++ {
		load := (i * 7) % (n + 1) // ragged, some rows empty (i=0), some full
		for k := 0; k < load; k++ {
			keys[i] = append(keys[i], Key{Value: next, Origin: i, Seq: k})
			next++
		}
	}
	plan := PlanSort(n, keys)
	if plan.Strategy != SortStrategyPresorted {
		t.Fatalf("strategy = %v (%s), want presorted", plan.Strategy, plan.Reason)
	}
	got, metrics := runAutoSort(t, keys)
	want := runPipelineSort(t, keys)
	sortResultsEqual(t, "uneven-presorted", got, want)
	if metrics.Rounds != 2 {
		t.Fatalf("took %d rounds, want 2", metrics.Rounds)
	}
}

// TestAutoSortSmallDomainDuplicates exercises the counting arm where every
// value collides heavily across origins, so the per-origin prefix bits carry
// the whole ordering.
func TestAutoSortSmallDomainDuplicates(t *testing.T) {
	t.Parallel()
	const n = 256
	distinctCap := SmallDomainDistinctCap(n)
	for distinct := 1; distinct <= distinctCap; distinct++ {
		keys := smallDomainKeys(n, 4, distinct)
		plan := PlanSort(n, keys)
		if plan.Strategy != SortStrategySmallDomain {
			// distinct == 1 is partitioned by the tie-break; skip it.
			if distinct == 1 && plan.Strategy == SortStrategyPresorted {
				continue
			}
			t.Fatalf("distinct=%d: strategy = %v (%s)", distinct, plan.Strategy, plan.Reason)
		}
		got, _ := runAutoSort(t, keys)
		want := runPipelineSort(t, keys)
		sortResultsEqual(t, fmt.Sprintf("small-domain distinct=%d", distinct), got, want)
	}
}

// TestAutoSortPlanMismatch pins the defensive errors: a plan computed for a
// different clique size or instance is rejected instead of silently
// misdelivering.
func TestAutoSortPlanMismatch(t *testing.T) {
	t.Parallel()
	keys := buildKeys(16, 2, "sorted", 5)
	plan := PlanSort(16, keys)
	nw, err := clique.New(16)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	// Shrink every row after planning: the presorted arm must notice the
	// StartRanks mismatch (before any communication, so no node blocks on a
	// barrier its peers never reach).
	err = nw.Run(func(nd *clique.Node) error {
		if _, sErr := AutoSort(nd, keys[nd.ID()][:1], plan); sErr == nil {
			return fmt.Errorf("stale plan accepted at node %d", nd.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	wrong := plan
	wrong.N = 8
	nw2, err := clique.New(16)
	if err != nil {
		t.Fatal(err)
	}
	defer nw2.Close()
	err = nw2.Run(func(nd *clique.Node) error {
		if _, sErr := AutoSort(nd, keys[nd.ID()], wrong); sErr == nil {
			return fmt.Errorf("plan for n=8 accepted on n=16")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

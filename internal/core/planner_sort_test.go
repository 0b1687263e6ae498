package core

import (
	"fmt"
	"slices"
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
	nw := newTestNetwork(t, len(keys))
	defer nw.Close()
	plan := PlanSort(len(keys), keys)
	return runSorter(t, nw, keys, func(ex clique.Exchanger, row []Key) (*SortResult, error) {
		return AutoSort(ex, row, plan)
	}), nw.Metrics()
}

// runPipelineSort executes the deterministic Sort on every node.
func runPipelineSort(t *testing.T, keys [][]Key) []*SortResult {
	t.Helper()
	nw := newTestNetwork(t, len(keys))
	defer nw.Close()
	return runSorter(t, nw, keys, Sort)
}

// newTestNetwork returns an n-node network; the caller closes it.
func newTestNetwork(t *testing.T, n int) *clique.Network {
	t.Helper()
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// runSorter runs sorter on every node of nw, each on its row of keys, and
// returns the per-node results.
func runSorter(t *testing.T, nw *clique.Network, keys [][]Key, sorter func(ex clique.Exchanger, row []Key) (*SortResult, error)) []*SortResult {
	t.Helper()
	results := make([]*SortResult, len(keys))
	err := nw.Run(func(nd *clique.Node) error {
		res, sErr := sorter(nd, keys[nd.ID()])
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
// the whole ordering. Every instance also runs with each row reversed, out
// of Seq order, which the arm's counting sort must put back. At n=64 and
// n=90 the cap admits a single value, an instance PlanSort sends to the
// presorted arm (the tie-break partitions it by origin), so those rows hand
// AutoSort a small-domain plan of their own, as a core-level caller may.
// Both orders yield the pipeline's batches, and the cost is pinned: the arm
// stages the same frames as the comparison-sorting implementation it
// replaced.
func TestAutoSortSmallDomainDuplicates(t *testing.T) {
	t.Parallel()
	type cost struct {
		words              int64
		maxEdgeWords, msgs int
	}
	for _, tc := range []struct {
		n, per, distinct int
		want             cost
	}{
		{256, 4, 2, cost{133120, 9, 84480}},
		{256, 4, 3, cost{195328, 9, 125952}},
		{64, 8, 1, cost{13760, 9, 7040}},
		{90, 8, 1, cost{19350, 9, 9900}},
		{90, 3, 1, cost{15570, 9, 9270}},
	} {
		t.Run(fmt.Sprintf("n=%d/per=%d/distinct=%d", tc.n, tc.per, tc.distinct), func(t *testing.T) {
			keys := smallDomainKeys(tc.n, tc.per, tc.distinct)
			nw := newTestNetwork(t, tc.n)
			defer nw.Close()
			// The batches depend only on the keys, not on the order rows
			// list them.
			want := runSorter(t, nw, keys, Sort)
			for _, reversed := range []bool{false, true} {
				if reversed {
					for _, row := range keys {
						slices.Reverse(row)
					}
				}
				plan := PlanSort(tc.n, keys)
				if tc.distinct == 1 {
					plan = SortPlan{N: tc.n, Strategy: SortStrategySmallDomain, Domain: []int64{0}}
				}
				if plan.Strategy != SortStrategySmallDomain {
					t.Fatalf("reversed=%v: strategy = %v (%s)", reversed, plan.Strategy, plan.Reason)
				}
				got := runSorter(t, nw, keys, func(ex clique.Exchanger, row []Key) (*SortResult, error) {
					return AutoSort(ex, row, plan)
				})
				sortResultsEqual(t, fmt.Sprintf("reversed=%v", reversed), got, want)
				m := nw.Metrics()
				if c := (cost{m.TotalWords, m.MaxEdgeWords, int(m.TotalMessages)}); m.Rounds != 4 || c != tc.want {
					t.Errorf("reversed=%v: %d rounds, %+v, want 4 rounds, %+v", reversed, m.Rounds, c, tc.want)
				}
			}
		})
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

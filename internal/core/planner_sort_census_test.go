package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"congestedclique/internal/core"
	"congestedclique/internal/workload"
)

// referencePlanSort is PlanSort as it was before its census pass stopped
// comparing once both verdicts were known: every key of every row costs
// three comparisons. Only the per-run Capture is left out (see
// TestPlanSortCensusMatchesReference).
func referencePlanSort(n int, keys [][]core.Key) core.SortPlan {
	plan := core.SortPlan{N: n, LocallySorted: true, Partitioned: true}
	var runningMax core.Key
	havePrev := false
	for i := 0; i < n; i++ {
		var row []core.Key
		if i < len(keys) {
			row = keys[i]
		}
		if len(row) == 0 {
			continue
		}
		plan.ActiveHolders++
		plan.TotalKeys += len(row)
		if len(row) > plan.MaxLoad {
			plan.MaxLoad = len(row)
		}
		rowMin, rowMax := row[0], row[0]
		for j := 1; j < len(row); j++ {
			if row[j].Less(row[j-1]) {
				plan.LocallySorted = false
			}
			if row[j].Less(rowMin) {
				rowMin = row[j]
			}
			if rowMax.Less(row[j]) {
				rowMax = row[j]
			}
		}
		if havePrev && rowMin.Less(runningMax) {
			plan.Partitioned = false
		}
		if !havePrev || runningMax.Less(rowMax) {
			runningMax = rowMax
		}
		havePrev = true
	}
	if plan.TotalKeys == 0 {
		plan.Strategy = core.SortStrategyEmpty
		plan.Partitioned = false
		plan.Reason = "no keys"
		return plan
	}
	if plan.Partitioned {
		plan.Strategy = core.SortStrategyPresorted
		plan.StartRanks = make([]int, n+1)
		for i := 0; i < n; i++ {
			plan.StartRanks[i+1] = plan.StartRanks[i]
			if i < len(keys) {
				plan.StartRanks[i+1] += len(keys[i])
			}
		}
		if plan.LocallySorted {
			plan.Reason = "pre-sorted input: rows already hold consecutive runs of the global order, rank-balanced redistribution only"
		} else {
			plan.Reason = "near-sorted input: rows partition the global order after a free local sort, rank-balanced redistribution only"
		}
		return plan
	}
	distinctCap := core.SmallDomainDistinctCap(n)
	if distinctCap >= 1 {
		counts := make(map[int64]int, distinctCap+1)
		for i := 0; i < len(keys) && i < n && len(counts) <= distinctCap; i++ {
			for _, k := range keys[i] {
				counts[k.Value]++
				if len(counts) > distinctCap {
					break
				}
			}
		}
		if len(counts) <= distinctCap {
			plan.DistinctValues = len(counts)
			for v, c := range counts {
				plan.Domain = append(plan.Domain, v)
				plan.MaxDuplicity = max(plan.MaxDuplicity, c)
			}
			slices.Sort(plan.Domain)
			plan.Strategy = core.SortStrategySmallDomain
			plan.Reason = fmt.Sprintf("small key domain: %d distinct value(s) ≤ distinctCap %d, Section 6.3 counting + rank delivery in 4 rounds",
				plan.DistinctValues, distinctCap)
			return plan
		}
		plan.DistinctValues = distinctCap + 1
	}
	plan.Strategy = core.SortStrategyPipeline
	if distinctCap >= 1 {
		plan.Reason = fmt.Sprintf("general instance: more than %d distinct values and rows do not partition the global order", distinctCap)
	} else {
		plan.Reason = "general instance: clique too small for the counting arm and rows do not partition the global order"
	}
	return plan
}

// TestPlanSortCensusMatchesReference checks that PlanSort's early-exit
// census yields every SortPlan field of the full census, over every
// cliquesim -dist distribution and every sorting-catalog shape at square
// and non-square n, and over perturbed copies of each that break a row's
// order or the partition at random places (the prefix and suffix paths of
// the scan).
func TestPlanSortCensusMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{64, 90, 256} {
		var shapes []*workload.SortingInstance
		for _, dist := range workload.KeyDistributions() {
			for _, per := range []int{1, 8, n} {
				inst, err := workload.NewSortingInstance(n, per, dist, int64(n+per))
				if err != nil {
					t.Fatal(err)
				}
				shapes = append(shapes, inst)
			}
		}
		for _, sc := range workload.SortScenarios() {
			inst, err := sc.Build(n, 3)
			if err != nil {
				t.Fatal(err)
			}
			shapes = append(shapes, inst)
		}
		for s, inst := range shapes {
			variants := [][][]core.Key{inst.Keys, inst.Keys[:n/2]}
			for range 4 {
				keys := make([][]core.Key, len(inst.Keys))
				for i, row := range inst.Keys {
					keys[i] = slices.Clone(row)
				}
				switch i := rng.Intn(n); rng.Intn(3) {
				case 0: // swap two keys of one row
					if row := keys[i]; len(row) > 1 {
						a, b := rng.Intn(len(row)), rng.Intn(len(row))
						row[a], row[b] = row[b], row[a]
					}
				case 1: // lift one key above everything
					if row := keys[i]; len(row) > 0 {
						row[rng.Intn(len(row))].Value = 1 << 50
					}
				default: // empty a row
					keys[i] = nil
				}
				variants = append(variants, keys)
			}
			for v, keys := range variants {
				got := core.PlanSort(n, keys)
				if (got.Capture != nil) != (got.Strategy == core.SortStrategyPipeline) {
					t.Fatalf("n=%d shape %d variant %d: %v plan with capture %v", n, s, v, got.Strategy, got.Capture)
				}
				got.Capture = nil
				if want := referencePlanSort(n, keys); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d shape %d (%s) variant %d:\ngot  %+v\nwant %+v", n, s, inst.Distribution, v, got, want)
				}
			}
		}
	}
}

package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
	"congestedclique/internal/verify"
)

// sortOnNetwork runs sorter on every node of a fresh n-node engine with the
// strict 64-words-per-edge budget, checks the batches with internal/verify
// and returns them with the run's metrics.
func sortOnNetwork(t *testing.T, keys [][]core.Key, sorter func(clique.Exchanger, []core.Key) (*core.SortResult, error)) ([]*core.SortResult, clique.Metrics) {
	t.Helper()
	n := len(keys)
	nw, err := clique.New(n, clique.WithStrictEdgeBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	results := make([]*core.SortResult, n)
	err = nw.Run(func(nd *clique.Node) error {
		res, sErr := sorter(nd, keys[nd.ID()])
		results[nd.ID()] = res
		return sErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Sorting(keys, results); err != nil {
		t.Fatal(err)
	}
	return results, nw.Metrics()
}

// TestLowComputeSortExactRounds pins Algorithm 4 with Theorem 5.4 as Step 6's
// router: a uniform full load sorts in exactly 1+8+2+10+8+2 = 31 rounds at
// square and non-square n within the strict edge budget, and AutoSort's
// pipeline arm is that sorter, metrics included. Both produce Sort's
// batches (verified here against the oracle; TestSortRoundsExactOnSquares
// keeps Sort itself at 37).
func TestLowComputeSortExactRounds(t *testing.T) {
	t.Parallel()
	for _, n := range []int{16, 25, 64, 90, 196, 200} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			keys := core.BuildKeys(n, n, "uniform", int64(n)*13)
			lc, lcM := sortOnNetwork(t, keys, core.LowComputeSort)
			if lcM.Rounds != 31 {
				t.Errorf("LowComputeSort: %d rounds, the schedule says 31", lcM.Rounds)
			}
			plan := core.PlanSort(n, keys)
			if plan.Strategy != core.SortStrategyPipeline {
				t.Fatalf("uniform full load planned as %v, want pipeline", plan.Strategy)
			}
			auto, autoM := sortOnNetwork(t, keys, func(ex clique.Exchanger, ks []core.Key) (*core.SortResult, error) {
				return core.AutoSort(ex, ks, plan)
			})
			if !reflect.DeepEqual(autoM, lcM) {
				t.Errorf("AutoSort pipeline metrics %+v differ from LowComputeSort's %+v", autoM, lcM)
			}
			if !reflect.DeepEqual(auto, lc) {
				t.Error("AutoSort pipeline batches differ from LowComputeSort's")
			}
		})
	}
}

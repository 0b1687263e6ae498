package core

import (
	"fmt"
	"sort"
	"testing"

	"congestedclique/internal/clique"
)

// expectedDistinctRanks computes, for reference, the rank of each distinct
// value in the union of all inputs.
func expectedDistinctRanks(keys [][]Key) (map[int64]int, int) {
	seen := map[int64]bool{}
	for _, ks := range keys {
		for _, k := range ks {
			seen[k.Value] = true
		}
	}
	values := make([]int64, 0, len(seen))
	for v := range seen {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	ranks := make(map[int64]int, len(values))
	for i, v := range values {
		ranks[v] = i
	}
	return ranks, len(values)
}

// runSorted sorts keys with sorter on a fresh clique and hands every node's
// result to epilogue in the same run, as the session's sort path does for
// a corollary; it returns the run's metrics.
func runSorted(t *testing.T, keys [][]Key, sorter func(clique.Exchanger, []Key) (*SortResult, error), epilogue func(nd *clique.Node, res *SortResult) error) clique.Metrics {
	t.Helper()
	nw, err := clique.New(len(keys))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *clique.Node) error {
		res, sErr := sorter(nd, keys[nd.ID()])
		if sErr != nil {
			return sErr
		}
		return epilogue(nd, res)
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw.Metrics()
}

// TestRankMatchesReference runs Corollary 4.6 on both sorter/router pairs:
// Algorithm 4 with Theorem 3.7 (37 + 1 + 16 rounds) and with Theorem 5.4
// (31 + 1 + 10).
func TestRankMatchesReference(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		n    int
		dist string
	}{
		{16, "uniform"}, {16, "duplicates"}, {25, "duplicates"}, {20, "constant"}, {12, "clustered"},
	} {
		tc := tc
		t.Run(fmt.Sprintf("n=%d_%s", tc.n, tc.dist), func(t *testing.T) {
			t.Parallel()
			keys := buildKeys(tc.n, tc.n, tc.dist, int64(tc.n))
			wantRanks, wantDistinct := expectedDistinctRanks(keys)

			for _, alg := range []struct {
				name   string
				sorter func(clique.Exchanger, []Key) (*SortResult, error)
				route  func(clique.Exchanger, []Message) ([]Message, error)
				rounds int
			}{
				{"thm3.7", Sort, Route, 54},
				{"thm5.4", LowComputeSort, LowComputeRoute, 42},
			} {
				results := make([]*RankResult, tc.n)
				m := runSorted(t, keys, alg.sorter, func(nd *clique.Node, res *SortResult) (err error) {
					results[nd.ID()], err = Rank(nd, res, alg.route)
					return err
				})
				if m.Rounds != alg.rounds {
					t.Errorf("%s: rank used %d rounds, want %d", alg.name, m.Rounds, alg.rounds)
				}
				for i, res := range results {
					if res.DistinctTotal != wantDistinct {
						t.Fatalf("%s: node %d reports %d distinct values, want %d", alg.name, i, res.DistinctTotal, wantDistinct)
					}
					if len(res.Ranks) != len(keys[i]) {
						t.Fatalf("%s: node %d received %d ranks for %d keys", alg.name, i, len(res.Ranks), len(keys[i]))
					}
					for _, k := range keys[i] {
						if got := res.Ranks[k.Seq]; got != wantRanks[k.Value] {
							t.Fatalf("%s: node %d key %d (value %d): rank %d, want %d", alg.name, i, k.Seq, k.Value, got, wantRanks[k.Value])
						}
					}
				}
			}
		})
	}
}

func TestSelectAndMedian(t *testing.T) {
	t.Parallel()
	const n = 16
	keys := buildKeys(n, n, "uniform", 3)
	var all []Key
	for _, ks := range keys {
		all = append(all, ks...)
	}
	sortKeys(all)

	for _, k := range []int{0, 1, n, len(all) / 2, len(all) - 1} {
		k := k
		t.Run(fmt.Sprintf("rank=%d", k), func(t *testing.T) {
			t.Parallel()
			got := make([]Key, n)
			runSorted(t, keys, Sort, func(nd *clique.Node, res *SortResult) (err error) {
				got[nd.ID()], err = Select(nd, res, k)
				return err
			})
			for i := range got {
				if got[i] != all[k] {
					t.Fatalf("node %d selected %+v, want %+v", i, got[i], all[k])
				}
			}
		})
	}

	t.Run("median", func(t *testing.T) {
		t.Parallel()
		want := all[(len(all)-1)/2]
		runSorted(t, keys, LowComputeSort, func(nd *clique.Node, res *SortResult) error {
			got, err := Median(nd, res)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("node %d median %+v, want %+v", nd.ID(), got, want)
			}
			return nil
		})
	})

	t.Run("select-out-of-range", func(t *testing.T) {
		t.Parallel()
		small := buildKeys(4, 2, "uniform", 9)
		runSorted(t, small, Sort, func(nd *clique.Node, res *SortResult) error {
			if _, err := Select(nd, res, 100); err == nil {
				return fmt.Errorf("out-of-range rank accepted")
			}
			return nil
		})
	})
}

func TestModeMatchesReference(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		n    int
		dist string
	}{
		{16, "duplicates"}, {25, "duplicates"}, {16, "constant"}, {20, "clustered"}, {12, "uniform"},
	} {
		tc := tc
		t.Run(fmt.Sprintf("n=%d_%s", tc.n, tc.dist), func(t *testing.T) {
			t.Parallel()
			keys := buildKeys(tc.n, tc.n, tc.dist, int64(tc.n)*31)
			counts := map[int64]int{}
			for _, ks := range keys {
				for _, k := range ks {
					counts[k.Value]++
				}
			}
			wantCount := 0
			var wantValue int64
			for v, ct := range counts {
				if ct > wantCount || (ct == wantCount && v < wantValue) {
					wantCount = ct
					wantValue = v
				}
			}
			runSorted(t, keys, Sort, func(nd *clique.Node, res *SortResult) error {
				got, err := Mode(nd, res)
				if err != nil {
					return err
				}
				if got.Count != wantCount || got.Value != wantValue {
					return fmt.Errorf("node %d mode (%d,%d), want (%d,%d)", nd.ID(), got.Value, got.Count, wantValue, wantCount)
				}
				return nil
			})
		})
	}
}

func TestModeRunSpanningManyNodes(t *testing.T) {
	t.Parallel()
	// One value occupies several consecutive batches entirely; the stitching
	// across node boundaries must count the full run.
	const n = 9
	keys := make([][]Key, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			v := int64(1000)
			if i >= 6 {
				v = int64(i*100 + k) // unique values elsewhere
			}
			keys[i] = append(keys[i], Key{Value: v, Origin: i, Seq: k})
		}
	}
	runSorted(t, keys, Sort, func(nd *clique.Node, res *SortResult) error {
		got, err := Mode(nd, res)
		if err != nil {
			return err
		}
		if got.Value != 1000 || got.Count != 6*n {
			return fmt.Errorf("mode (%d,%d), want (1000,%d)", got.Value, got.Count, 6*n)
		}
		return nil
	})
}

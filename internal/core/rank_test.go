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

			nw, err := clique.New(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			results := make([]*RankResult, tc.n)
			err = nw.Run(func(nd *clique.Node) error {
				res, rErr := Rank(nd, keys[nd.ID()])
				if rErr != nil {
					return rErr
				}
				results[nd.ID()] = res
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			m := nw.Metrics()
			if m.Rounds > 60 {
				t.Errorf("rank used %d rounds, expected a constant (<= 54 + slack)", m.Rounds)
			}
			for i, res := range results {
				if res.DistinctTotal != wantDistinct {
					t.Fatalf("node %d reports %d distinct values, want %d", i, res.DistinctTotal, wantDistinct)
				}
				for _, k := range keys[i] {
					got, ok := res.Ranks[k.Seq]
					if !ok {
						t.Fatalf("node %d missing rank for seq %d", i, k.Seq)
					}
					if got != wantRanks[k.Value] {
						t.Fatalf("node %d key %d (value %d): rank %d, want %d", i, k.Seq, k.Value, got, wantRanks[k.Value])
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
			nw, err := clique.New(n)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			got := make([]Key, n)
			err = nw.Run(func(nd *clique.Node) error {
				res, sErr := Select(nd, keys[nd.ID()], k)
				if sErr != nil {
					return sErr
				}
				got[nd.ID()] = res
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != all[k] {
					t.Fatalf("node %d selected %+v, want %+v", i, got[i], all[k])
				}
			}
		})
	}

	t.Run("median", func(t *testing.T) {
		t.Parallel()
		nw, err := clique.New(n)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		want := all[(len(all)-1)/2]
		err = nw.Run(func(nd *clique.Node) error {
			res, mErr := Median(nd, keys[nd.ID()])
			if mErr != nil {
				return mErr
			}
			if res != want {
				return fmt.Errorf("node %d median %+v, want %+v", nd.ID(), res, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("select-out-of-range", func(t *testing.T) {
		t.Parallel()
		nw, err := clique.New(4)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		small := buildKeys(4, 2, "uniform", 9)
		err = nw.Run(func(nd *clique.Node) error {
			_, sErr := Select(nd, small[nd.ID()], 100)
			if sErr == nil {
				return fmt.Errorf("out-of-range rank accepted")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
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
			nw, err := clique.New(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			err = nw.Run(func(nd *clique.Node) error {
				res, mErr := Mode(nd, keys[nd.ID()])
				if mErr != nil {
					return mErr
				}
				if res.Count != wantCount || res.Value != wantValue {
					return fmt.Errorf("node %d mode (%d,%d), want (%d,%d)", nd.ID(), res.Value, res.Count, wantValue, wantCount)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
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
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *clique.Node) error {
		res, mErr := Mode(nd, keys[nd.ID()])
		if mErr != nil {
			return mErr
		}
		if res.Value != 1000 || res.Count != 6*n {
			return fmt.Errorf("mode (%d,%d), want (1000,%d)", res.Value, res.Count, 6*n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

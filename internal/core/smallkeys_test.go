package core

import (
	"fmt"
	"math/rand"
	"testing"

	"congestedclique/internal/clique"
)

func runSmallKeyCount(t *testing.T, n, domain int, values [][]int) (*SmallKeyResult, clique.Metrics) {
	t.Helper()
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	results := make([]*SmallKeyResult, n)
	err = nw.Run(func(nd *clique.Node) error {
		res, sErr := SmallKeyCount(nd, values[nd.ID()], domain)
		if sErr != nil {
			return sErr
		}
		results[nd.ID()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		for v := 0; v < domain; v++ {
			if results[i].Counts[v] != results[0].Counts[v] {
				t.Fatalf("nodes 0 and %d disagree on count of %d", i, v)
			}
		}
	}
	return results[0], nw.Metrics()
}

func TestSmallKeyCountMatchesHistogram(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ n, domain, perNode int }{
		{64, 1, 64}, {100, 2, 100}, {256, 3, 256}, {256, 3, 10}, {400, 4, 0}, {1024, 8, 50},
	} {
		tc := tc
		t.Run(fmt.Sprintf("n=%d_K=%d", tc.n, tc.domain), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(tc.n*7 + tc.domain)))
			values := make([][]int, tc.n)
			want := make([]int64, tc.domain)
			for i := 0; i < tc.n; i++ {
				for k := 0; k < tc.perNode; k++ {
					v := rng.Intn(tc.domain)
					values[i] = append(values[i], v)
					want[v]++
				}
			}
			res, m := runSmallKeyCount(t, tc.n, tc.domain, values)
			for v := 0; v < tc.domain; v++ {
				if res.Counts[v] != want[v] {
					t.Fatalf("count of %d = %d, want %d", v, res.Counts[v], want[v])
				}
			}
			if m.Rounds != 2 {
				t.Errorf("small-key counting used %d rounds, Section 6.3 describes 2", m.Rounds)
			}
			if m.MaxEdgeWords > 2 {
				t.Errorf("small-key counting used %d words on an edge, messages should stay tiny", m.MaxEdgeWords)
			}
			if res.Total() != int64(tc.n*tc.perNode) {
				t.Errorf("total %d, want %d", res.Total(), tc.n*tc.perNode)
			}
		})
	}
}

func TestSmallKeyResultHelpers(t *testing.T) {
	t.Parallel()
	res := &SmallKeyResult{Counts: []int64{0, 5, 0, 3, 2}, Domain: 5}
	if got := res.DistinctRank(1); got != 0 {
		t.Fatalf("distinct rank of 1 = %d, want 0", got)
	}
	if got := res.DistinctRank(3); got != 1 {
		t.Fatalf("distinct rank of 3 = %d, want 1", got)
	}
	if got := res.DistinctRank(0); got != -1 {
		t.Fatalf("distinct rank of absent value = %d, want -1", got)
	}
	if got := res.DistinctRank(99); got != -1 {
		t.Fatalf("distinct rank outside domain = %d, want -1", got)
	}
	if got := res.Rank(3); got != 5 {
		t.Fatalf("rank of 3 = %d, want 5", got)
	}
	if got := res.Rank(100); got != 10 {
		t.Fatalf("rank beyond domain = %d, want 10", got)
	}
	v, c, ok := res.Mode()
	if !ok || v != 1 || c != 5 {
		t.Fatalf("mode = (%d,%d,%v), want (1,5,true)", v, c, ok)
	}
	empty := &SmallKeyResult{Counts: []int64{0, 0}, Domain: 2}
	if _, _, ok := empty.Mode(); ok {
		t.Fatal("mode of empty histogram should report absence")
	}
}

func TestSmallKeyCountRejectsBadInput(t *testing.T) {
	t.Parallel()
	nw, err := clique.New(16)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *clique.Node) error {
		// Domain too large for n=16 (needs K*log^2 <= n).
		if _, sErr := SmallKeyCount(nd, nil, 10); sErr == nil {
			return fmt.Errorf("oversized domain accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	nw2, err := clique.New(64)
	if err != nil {
		t.Fatal(err)
	}
	defer nw2.Close()
	err = nw2.Run(func(nd *clique.Node) error {
		if _, sErr := SmallKeyCount(nd, nil, 0); sErr == nil {
			return fmt.Errorf("zero domain accepted")
		}
		var vals []int
		if nd.ID() == 0 {
			vals = []int{5} // outside domain 1
		}
		if _, sErr := SmallKeyCount(nd, vals, 1); nd.ID() == 0 && sErr == nil {
			return fmt.Errorf("out-of-domain value accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"congestedclique/internal/clique"
)

// buildKeys generates per keys for every node according to a named
// distribution, deterministically from the seed.
func buildKeys(n, per int, distribution string, seed int64) [][]Key {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]Key, n)
	for i := 0; i < n; i++ {
		for k := 0; k < per; k++ {
			var v int64
			switch distribution {
			case "uniform":
				v = rng.Int63n(1 << 40)
			case "duplicates":
				v = int64(rng.Intn(7))
			case "clustered":
				v = int64(i)*1000 + int64(rng.Intn(10))
			case "sorted":
				v = int64(i*per + k)
			case "reverse":
				v = int64((n-i)*per - k)
			case "constant":
				v = 42
			default:
				panic("unknown distribution " + distribution)
			}
			keys[i] = append(keys[i], Key{Value: v, Origin: i, Seq: k})
		}
	}
	return keys
}

// runSorting executes Sort on every node and validates the global result.
func runSorting(t *testing.T, keys [][]Key, opts ...clique.Option) clique.Metrics {
	t.Helper()
	n := len(keys)
	nw, err := clique.New(n, opts...)
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
	verifySorted(t, keys, results)
	return nw.Metrics()
}

// verifySorted checks that the concatenation of all batches is exactly the
// multiset of input keys in globally sorted order, split contiguously.
func verifySorted(t *testing.T, input [][]Key, results []*SortResult) {
	t.Helper()
	var want []Key
	for _, ks := range input {
		want = append(want, ks...)
	}
	sortKeys(want)

	var got []Key
	expectedStart := 0
	for i, res := range results {
		if res == nil {
			t.Fatalf("node %d has no result", i)
		}
		if res.Total != len(want) {
			t.Fatalf("node %d reports total %d, want %d", i, res.Total, len(want))
		}
		if len(res.Batch) > 0 && res.Start != expectedStart {
			t.Fatalf("node %d batch starts at rank %d, want %d", i, res.Start, expectedStart)
		}
		expectedStart += len(res.Batch)
		got = append(got, res.Batch...)
	}
	if len(got) != len(want) {
		t.Fatalf("output has %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// Batch sizes must be balanced: every node holds ceil(total/n) keys except
	// possibly the trailing nodes.
	n := len(results)
	perNode := (len(want) + n - 1) / n
	if perNode == 0 {
		perNode = 1
	}
	for i, res := range results {
		if len(res.Batch) > perNode {
			t.Fatalf("node %d holds %d keys, more than the balanced %d", i, len(res.Batch), perNode)
		}
	}
}

func TestSortFullLoadPerfectSquares(t *testing.T) {
	t.Parallel()
	for _, n := range []int{16, 25, 36, 64} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			m := runSorting(t, buildKeys(n, n, "uniform", int64(n)))
			if m.Rounds > 37 {
				t.Errorf("n=%d: %d rounds, Theorem 4.5 claims at most 37", n, m.Rounds)
			}
			if m.MaxEdgeWords > 48 {
				t.Errorf("n=%d: max edge words %d, expected a small constant", n, m.MaxEdgeWords)
			}
		})
	}
}

func TestSortFullLoadNonSquares(t *testing.T) {
	t.Parallel()
	for _, n := range []int{12, 20, 30, 45} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			m := runSorting(t, buildKeys(n, n, "uniform", int64(n)*3))
			if m.Rounds > 37 {
				t.Errorf("n=%d: %d rounds, Theorem 4.5 claims at most 37", n, m.Rounds)
			}
		})
	}
}

func TestSortDistributions(t *testing.T) {
	t.Parallel()
	for _, dist := range []string{"uniform", "duplicates", "clustered", "sorted", "reverse", "constant"} {
		dist := dist
		t.Run(dist, func(t *testing.T) {
			t.Parallel()
			m := runSorting(t, buildKeys(25, 25, dist, 7))
			if m.Rounds > 37 {
				t.Errorf("%s: %d rounds", dist, m.Rounds)
			}
		})
	}
}

func TestSortTinyCliques(t *testing.T) {
	t.Parallel()
	for n := 1; n < 9; n++ {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			m := runSorting(t, buildKeys(n, n, "uniform", int64(n)*11))
			if m.Rounds > 37 {
				t.Errorf("n=%d: %d rounds", n, m.Rounds)
			}
		})
	}
}

func TestSortPartialLoad(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ n, per int }{{16, 1}, {16, 5}, {25, 0}, {25, 10}, {30, 7}} {
		tc := tc
		t.Run(fmt.Sprintf("n=%d_per=%d", tc.n, tc.per), func(t *testing.T) {
			t.Parallel()
			m := runSorting(t, buildKeys(tc.n, tc.per, "uniform", int64(tc.n*100+tc.per)))
			if m.Rounds > 37 {
				t.Errorf("n=%d per=%d: %d rounds", tc.n, tc.per, m.Rounds)
			}
		})
	}
}

func TestSortUnevenLoad(t *testing.T) {
	t.Parallel()
	// Some nodes contribute no keys at all, others the full n.
	const n = 25
	keys := buildKeys(n, n, "uniform", 5)
	for i := 0; i < n; i += 2 {
		keys[i] = nil
	}
	m := runSorting(t, keys)
	if m.Rounds > 37 {
		t.Errorf("uneven load: %d rounds", m.Rounds)
	}
}

func TestSortRoundsExactOnSquares(t *testing.T) {
	t.Parallel()
	m := runSorting(t, buildKeys(36, 36, "uniform", 123))
	if m.Rounds != 37 {
		t.Errorf("full-load perfect-square sort used %d rounds, the Algorithm 4 schedule says 37", m.Rounds)
	}
}

func TestSortRejectsTooManyKeys(t *testing.T) {
	t.Parallel()
	nw, err := clique.New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *clique.Node) error {
		var ks []Key
		if nd.ID() == 0 {
			for k := 0; k < 10; k++ {
				ks = append(ks, Key{Value: int64(k), Origin: 0, Seq: k})
			}
		}
		_, sErr := Sort(nd, ks)
		if nd.ID() == 0 && sErr == nil {
			return fmt.Errorf("oversized input accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortRejectsForeignOrigin(t *testing.T) {
	t.Parallel()
	nw, err := clique.New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *clique.Node) error {
		var ks []Key
		if nd.ID() == 0 {
			ks = []Key{{Value: 1, Origin: 3, Seq: 0}}
		}
		_, sErr := Sort(nd, ks)
		if nd.ID() == 0 && sErr == nil {
			return fmt.Errorf("foreign origin accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortSharedCacheEquivalence(t *testing.T) {
	t.Parallel()
	keys := buildKeys(16, 16, "uniform", 77)
	mCached := runSorting(t, keys)
	mUncached := runSorting(t, keys, clique.WithSharedCache(false))
	if mCached.Rounds != mUncached.Rounds {
		t.Fatalf("rounds differ with cache: %d vs %d", mCached.Rounds, mUncached.Rounds)
	}
	if mCached.TotalMessages != mUncached.TotalMessages {
		t.Fatalf("traffic differs with cache: %d vs %d", mCached.TotalMessages, mUncached.TotalMessages)
	}
}

package core

import (
	"fmt"
	"testing"

	"congestedclique/internal/clique"
)

// runLowComputeRouting mirrors runRouting but uses the Section 5 router.
func runLowComputeRouting(t *testing.T, msgs [][]Message, opts ...clique.Option) clique.Metrics {
	t.Helper()
	n := len(msgs)
	nw, err := clique.New(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	results := make([][]Message, n)
	err = nw.Run(func(nd *clique.Node) error {
		out, rErr := LowComputeRoute(nd, msgs[nd.ID()])
		if rErr != nil {
			return rErr
		}
		results[nd.ID()] = out
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyDelivery(t, msgs, results)
	return nw.Metrics()
}

func TestLowComputeRouteFullLoad(t *testing.T) {
	t.Parallel()
	for _, n := range []int{16, 25, 36, 64, 100} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			m := runLowComputeRouting(t, buildRoutingInstance(n, n, int64(n)*17))
			if m.Rounds > 12 {
				t.Errorf("n=%d: %d rounds, Theorem 5.4 claims at most 12", n, m.Rounds)
			}
			if m.MaxEdgeWords > 40 {
				t.Errorf("n=%d: max edge words %d, expected a small constant", n, m.MaxEdgeWords)
			}
		})
	}
}

func TestLowComputeRouteExactRounds(t *testing.T) {
	t.Parallel()
	m := runLowComputeRouting(t, buildRoutingInstance(49, 49, 3))
	if m.Rounds != 12 {
		t.Errorf("perfect-square full-load low-compute routing used %d rounds, schedule says 12", m.Rounds)
	}
}

func TestLowComputeRouteSkewedAndAdversarial(t *testing.T) {
	t.Parallel()
	for _, n := range []int{16, 36} {
		n := n
		t.Run(fmt.Sprintf("skewed_n=%d", n), func(t *testing.T) {
			t.Parallel()
			m := runLowComputeRouting(t, buildSkewedInstance(n, n))
			if m.Rounds > 12 {
				t.Errorf("skewed n=%d: %d rounds", n, m.Rounds)
			}
		})
		t.Run(fmt.Sprintf("setadv_n=%d", n), func(t *testing.T) {
			t.Parallel()
			m := runLowComputeRouting(t, buildSetAdversarialInstance(n, n))
			if m.Rounds > 12 {
				t.Errorf("set-adversarial n=%d: %d rounds", n, m.Rounds)
			}
		})
	}
}

func TestLowComputeRoutePartialLoad(t *testing.T) {
	t.Parallel()
	for _, per := range []int{0, 1, 7} {
		m := runLowComputeRouting(t, buildRoutingInstance(25, per, int64(per)*29))
		if m.Rounds > 12 {
			t.Errorf("per=%d: %d rounds", per, m.Rounds)
		}
	}
}

// TestLowComputeRouteNonSquareExactRounds pins Theorem 5.4 at non-square n:
// the V1/V2/corner decomposition runs the 12-round square router on V1 and
// V2 beside the 6-round corner procedure, so a full load takes exactly 12
// rounds within the strict 64-words-per-edge budget.
func TestLowComputeRouteNonSquareExactRounds(t *testing.T) {
	t.Parallel()
	for _, n := range []int{20, 90} {
		m := runLowComputeRouting(t, buildRoutingInstance(n, n, int64(n)+1), clique.WithStrictEdgeBudget(64))
		if m.Rounds != 12 {
			t.Errorf("n=%d: %d rounds, Theorem 5.4 schedule says 12", n, m.Rounds)
		}
	}
}

// TestLowComputeStepsScaleNearLinearly checks the Theorem 5.4 computation
// claim: the self-reported per-node step count grows roughly linearly in n
// (within a generous constant), in contrast to the Θ(n^{3/2}) message-level
// bookkeeping a naive implementation of Algorithm 1 would need.
func TestLowComputeStepsScaleNearLinearly(t *testing.T) {
	t.Parallel()
	steps := map[int]int64{}
	for _, n := range []int{16, 64, 256} {
		nw, err := clique.New(n)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		msgs := buildRoutingInstance(n, n, int64(n))
		err = nw.Run(func(nd *clique.Node) error {
			_, rErr := LowComputeRoute(nd, msgs[nd.ID()])
			return rErr
		})
		if err != nil {
			t.Fatal(err)
		}
		steps[n] = nw.Metrics().MaxStepsPerNode
		if steps[n] == 0 {
			t.Fatalf("n=%d: no steps reported", n)
		}
	}
	// Quadrupling n should grow the step count by roughly 4x, certainly less
	// than 8x (which would indicate super-linear behaviour).
	if steps[64] > 8*steps[16] || steps[256] > 8*steps[64] {
		t.Errorf("per-node steps grow super-linearly: %v", steps)
	}
}

// TestLowComputeVersusStandardTraffic confirms the Section 5 trade-off: the
// 12-round variant never needs more rounds than the 16-round algorithm, and
// both deliver identical message sets.
func TestLowComputeVersusStandardTraffic(t *testing.T) {
	t.Parallel()
	msgs := buildRoutingInstance(36, 36, 11)
	mStd := runRouting(t, msgs)
	mLow := runLowComputeRouting(t, msgs)
	if mLow.Rounds >= mStd.Rounds {
		t.Errorf("low-compute rounds %d not below standard rounds %d", mLow.Rounds, mStd.Rounds)
	}
}

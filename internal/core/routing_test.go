package core

import (
	"fmt"
	"math/rand"
	"testing"

	"congestedclique/internal/clique"
)

// buildRoutingInstance creates a routing instance for n nodes in which every
// node is source of exactly per messages and destination of exactly per
// messages, by overlaying per random permutations.
func buildRoutingInstance(n, per int, seed int64) [][]Message {
	rng := rand.New(rand.NewSource(seed))
	msgs := make([][]Message, n)
	for k := 0; k < per; k++ {
		perm := rng.Perm(n)
		for src, dst := range perm {
			msgs[src] = append(msgs[src], Message{
				Src:     src,
				Dst:     dst,
				Seq:     len(msgs[src]),
				Payload: clique.Word(src*1_000_000 + k*1_000 + dst),
			})
		}
	}
	return msgs
}

// buildSkewedInstance creates the adversarial instance in which node i sends
// all of its messages to node (i+1) mod n.
func buildSkewedInstance(n, per int) [][]Message {
	msgs := make([][]Message, n)
	for src := 0; src < n; src++ {
		dst := (src + 1) % n
		for k := 0; k < per; k++ {
			msgs[src] = append(msgs[src], Message{Src: src, Dst: dst, Seq: k, Payload: clique.Word(src*10_000 + k)})
		}
	}
	return msgs
}

// buildSetAdversarialInstance sends every message of the nodes in group g to
// nodes of group (g+1) mod sqrt(n); heavy inter-set traffic exercises the
// Algorithm 2 balancing.
func buildSetAdversarialInstance(n, per int) [][]Message {
	s := isqrt(n)
	msgs := make([][]Message, n)
	for src := 0; src < n; src++ {
		g := src / s
		tg := (g + 1) % s
		for k := 0; k < per; k++ {
			dst := tg*s + (src+k)%s
			msgs[src] = append(msgs[src], Message{Src: src, Dst: dst, Seq: k, Payload: clique.Word(src*10_000 + k)})
		}
	}
	return msgs
}

// runRouting executes the deterministic router on the given instance and
// checks exact delivery. It returns the execution metrics.
func runRouting(t *testing.T, msgs [][]Message, opts ...clique.Option) clique.Metrics {
	t.Helper()
	n := len(msgs)
	nw, err := clique.New(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	results := make([][]Message, n)
	err = nw.Run(func(nd *clique.Node) error {
		out, rErr := Route(nd, msgs[nd.ID()])
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

// verifyDelivery checks that the delivered messages are exactly the sent
// messages, node by node.
func verifyDelivery(t *testing.T, sent [][]Message, received [][]Message) {
	t.Helper()
	n := len(sent)
	want := make([]map[Message]int, n)
	for i := range want {
		want[i] = make(map[Message]int)
	}
	total := 0
	for _, msgs := range sent {
		for _, m := range msgs {
			want[m.Dst][m]++
			total++
		}
	}
	got := 0
	for dst := 0; dst < n; dst++ {
		for _, m := range received[dst] {
			if m.Dst != dst {
				t.Fatalf("node %d received message addressed to %d", dst, m.Dst)
			}
			if want[dst][m] == 0 {
				t.Fatalf("node %d received unexpected or duplicated message %+v", dst, m)
			}
			want[dst][m]--
			got++
		}
	}
	if got != total {
		t.Fatalf("delivered %d of %d messages", got, total)
	}
}

func TestRouteFullLoadPerfectSquares(t *testing.T) {
	t.Parallel()
	for _, n := range []int{16, 25, 36, 64, 100} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			m := runRouting(t, buildRoutingInstance(n, n, int64(n)))
			if m.Rounds > 16 {
				t.Errorf("n=%d: %d rounds, Theorem 3.7 claims at most 16", n, m.Rounds)
			}
			if m.MaxEdgeWords > 16 {
				t.Errorf("n=%d: max edge words %d, expected a small constant", n, m.MaxEdgeWords)
			}
		})
	}
}

func TestRouteFullLoadNonSquares(t *testing.T) {
	t.Parallel()
	for _, n := range []int{12, 18, 20, 27, 40, 50} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			m := runRouting(t, buildRoutingInstance(n, n, int64(n)*7))
			if m.Rounds > 16 {
				t.Errorf("n=%d: %d rounds, Theorem 3.7 claims at most 16", n, m.Rounds)
			}
			if m.MaxEdgeWords > 40 {
				t.Errorf("n=%d: max edge words %d, expected a small constant", n, m.MaxEdgeWords)
			}
		})
	}
}

func TestRouteTinyCliques(t *testing.T) {
	t.Parallel()
	for n := 1; n < 9; n++ {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			m := runRouting(t, buildRoutingInstance(n, n, int64(n)*13))
			if m.Rounds > 16 {
				t.Errorf("n=%d: %d rounds", n, m.Rounds)
			}
		})
	}
}

func TestRouteSkewedInstances(t *testing.T) {
	t.Parallel()
	for _, n := range []int{16, 23, 36, 49} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			m := runRouting(t, buildSkewedInstance(n, n))
			if m.Rounds > 16 {
				t.Errorf("n=%d skewed: %d rounds", n, m.Rounds)
			}
		})
	}
}

func TestRouteSetAdversarialInstances(t *testing.T) {
	t.Parallel()
	for _, n := range []int{16, 36, 64} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			m := runRouting(t, buildSetAdversarialInstance(n, n))
			if m.Rounds > 16 {
				t.Errorf("n=%d set-adversarial: %d rounds", n, m.Rounds)
			}
		})
	}
}

func TestRoutePartialLoad(t *testing.T) {
	t.Parallel()
	// Fewer than n messages per node ("up to n" in Problem 3.1).
	for _, n := range []int{16, 25, 30} {
		for _, per := range []int{0, 1, 3, n / 2} {
			m := runRouting(t, buildRoutingInstance(n, per, int64(n*100+per)))
			if m.Rounds > 16 {
				t.Errorf("n=%d per=%d: %d rounds", n, per, m.Rounds)
			}
		}
	}
}

func TestRouteSelfMessages(t *testing.T) {
	t.Parallel()
	const n = 16
	msgs := make([][]Message, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			msgs[i] = append(msgs[i], Message{Src: i, Dst: i, Seq: k, Payload: clique.Word(k)})
		}
	}
	m := runRouting(t, msgs)
	if m.Rounds > 16 {
		t.Errorf("self messages: %d rounds", m.Rounds)
	}
}

func TestRouteRejectsForeignSource(t *testing.T) {
	t.Parallel()
	nw, err := clique.New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *clique.Node) error {
		var mine []Message
		if nd.ID() == 0 {
			mine = []Message{{Src: 1, Dst: 2, Seq: 0, Payload: 7}}
		}
		_, rErr := Route(nd, mine)
		if nd.ID() == 0 {
			if rErr == nil {
				return fmt.Errorf("foreign source accepted")
			}
			return nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRouteRejectsInvalidDestination(t *testing.T) {
	t.Parallel()
	nw, err := clique.New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *clique.Node) error {
		var mine []Message
		if nd.ID() == 0 {
			mine = []Message{{Src: 0, Dst: 99, Seq: 0, Payload: 7}}
		}
		_, rErr := Route(nd, mine)
		if nd.ID() == 0 && rErr == nil {
			return fmt.Errorf("invalid destination accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRouteDeterministicRounds checks that the round count does not depend on
// the payload values, only on the instance shape — and records the exact
// numbers the paper derives (16 for n >= 9, 4 for tiny cliques).
func TestRouteDeterministicRounds(t *testing.T) {
	t.Parallel()
	m1 := runRouting(t, buildRoutingInstance(25, 25, 1))
	m2 := runRouting(t, buildRoutingInstance(25, 25, 2))
	if m1.Rounds != m2.Rounds {
		t.Fatalf("round count depends on the instance: %d vs %d", m1.Rounds, m2.Rounds)
	}
	if m1.Rounds != 16 {
		t.Fatalf("perfect-square full-load instance used %d rounds, algorithm schedule says 16", m1.Rounds)
	}
}

// TestRouteSharedCacheEquivalence verifies that the shared deterministic
// computation cache is purely an optimisation: results and round counts are
// identical with and without it.
func TestRouteSharedCacheEquivalence(t *testing.T) {
	t.Parallel()
	msgs := buildRoutingInstance(16, 16, 99)
	mCached := runRouting(t, msgs)
	mUncached := runRouting(t, msgs, clique.WithSharedCache(false))
	if mCached.Rounds != mUncached.Rounds {
		t.Fatalf("rounds differ with cache: %d vs %d", mCached.Rounds, mUncached.Rounds)
	}
	if mCached.TotalMessages != mUncached.TotalMessages {
		t.Fatalf("traffic differs with cache: %d vs %d", mCached.TotalMessages, mUncached.TotalMessages)
	}
}

func TestRouteStrictBandwidth(t *testing.T) {
	t.Parallel()
	// The wire format uses at most 6 words per packet and the schedule puts at
	// most 2 packets on an edge per round for square instances; enforce a
	// strict budget to catch regressions.
	msgs := buildRoutingInstance(36, 36, 5)
	runRouting(t, msgs, clique.WithStrictEdgeBudget(16))
}

package congestedclique

// Property-based oracle harness: generated instances across the demand
// shapes the planner distinguishes (sparse, skewed, duplicate-heavy, ragged,
// one-to-many), checked directly against the paper's invariants rather than
// against goldens — exactly-once delivery (Problem 3.1), per-edge words a
// small constant per round (the O(log n)-bit bandwidth model), round counts
// within the theorem bounds (16 for routing, Theorem 3.7; 37 for sorting,
// Theorem 4.5), and the globally sorted contiguous balanced batches with
// footnote-5 tie-breaking (Value, Origin, Seq). Small sizes sweep every
// shape; n=4096 runs the O(n)-volume shapes, which the planner serves with
// the step programs.

import (
	"fmt"
	"math/rand"
	"testing"

	"congestedclique/internal/core"
	"congestedclique/internal/verify"
)

// routeShapes are the generated routing demand families. Every generator
// respects the Problem 3.1 shape (at most n messages per source and sink).
var routeShapes = []struct {
	name   string
	sparse bool // cheap enough (O(n) messages) for the n=4096 sweep
	gen    func(n int, rng *rand.Rand) [][]Message
}{
	{"sparse", true, func(n int, rng *rand.Rand) [][]Message {
		msgs := make([][]Message, n)
		for src := 0; src < n; src++ {
			for k := rng.Intn(3); k > 0; k-- {
				addCapped(msgs, nil, src, rng.Intn(n), rng)
			}
		}
		return msgs
	}},
	{"skewed", false, func(n int, rng *rand.Rand) [][]Message {
		msgs := make([][]Message, n)
		recv := make([]int, n)
		sinks := 1 + n/8
		for src := 0; src < n; src++ {
			for k := 0; k < n/2; k++ {
				addCapped(msgs, recv, src, rng.Intn(sinks), rng)
			}
		}
		return msgs
	}},
	{"ragged", true, func(n int, rng *rand.Rand) [][]Message {
		msgs := make([][]Message, 1+rng.Intn(n)) // rows beyond stay empty
		for src := range msgs {
			if src%3 == 0 {
				continue // inactive rows interleaved
			}
			for k := rng.Intn(4); k > 0; k-- {
				addCapped(msgs, nil, src, rng.Intn(len(msgs)), rng)
			}
		}
		return msgs
	}},
	{"one-to-many", true, func(n int, rng *rand.Rand) [][]Message {
		msgs := make([][]Message, n)
		recv := make([]int, n)
		sources := 1 + rng.Intn(min(n/8+1, 4))
		for src := 0; src < sources; src++ {
			for k := 0; k < 5+rng.Intn(20); k++ {
				addCapped(msgs, recv, src, rng.Intn(1+n/16), rng)
			}
		}
		return msgs
	}},
}

// addCapped appends one message unless it would exceed the Problem 3.1
// per-source or per-sink load bound. recv may be nil when the generator
// cannot overload a sink by construction.
func addCapped(msgs [][]Message, recv []int, src, dst int, rng *rand.Rand) {
	limit := len(msgs)
	if recv != nil {
		limit = len(recv)
	}
	if len(msgs[src]) >= limit {
		return
	}
	if recv != nil {
		if recv[dst] >= len(recv) {
			return
		}
		recv[dst]++
	}
	msgs[src] = append(msgs[src], Message{Src: src, Dst: dst, Seq: len(msgs[src]), Payload: rng.Int63n(1 << 40)})
}

// checkRouteInvariants runs one instance and checks the paper's routing
// invariants on the result.
func checkRouteInvariants(t *testing.T, label string, n int, msgs [][]Message) {
	t.Helper()
	res, err := Route(n, msgs, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// Exactly-once delivery: the multiset of deliveries equals the demand.
	sent := make([][]core.Message, n)
	delivered := make([][]core.Message, n)
	for i := 0; i < n; i++ {
		if i < len(msgs) {
			for _, m := range msgs[i] {
				sent[i] = append(sent[i], core.Message{Src: m.Src, Dst: m.Dst, Seq: m.Seq, Payload: m.Payload})
			}
		}
		for _, m := range res.Delivered[i] {
			delivered[i] = append(delivered[i], core.Message{Src: m.Src, Dst: m.Dst, Seq: m.Seq, Payload: m.Payload})
		}
	}
	if err := verify.Routing(sent, delivered); err != nil {
		t.Fatalf("%s (strategy %v): %v", label, res.Strategy, err)
	}
	// The pipeline arm's Theorem 5.4 round bound (every fast path is below
	// it) and the constant per-edge bandwidth.
	if res.Stats.Rounds > 12 {
		t.Errorf("%s: %d rounds exceed the Theorem 5.4 bound of 12 (strategy %v)", label, res.Stats.Rounds, res.Strategy)
	}
	if res.Stats.MaxEdgeWords > 64 {
		t.Errorf("%s: per-edge load %d words is not a small constant (strategy %v)", label, res.Stats.MaxEdgeWords, res.Strategy)
	}
	// Strategy-specific round counts.
	switch res.Strategy {
	case StrategyEmpty:
		if res.Stats.Rounds != 0 {
			t.Errorf("%s: empty strategy used %d rounds", label, res.Stats.Rounds)
		}
	case StrategyDirect:
		if res.Stats.Rounds != 1 {
			t.Errorf("%s: direct strategy used %d rounds, want 1", label, res.Stats.Rounds)
		}
	case StrategyBroadcast:
		if res.Stats.Rounds > 9 {
			t.Errorf("%s: broadcast strategy used %d rounds, cap is 1+8", label, res.Stats.Rounds)
		}
	}
}

func TestPropertyRouteInvariants(t *testing.T) {
	t.Parallel()
	for _, n := range []int{9, 16, 33, 64} {
		for _, shape := range routeShapes {
			for seed := int64(1); seed <= 3; seed++ {
				msgs := shape.gen(n, rand.New(rand.NewSource(seed)))
				label := fmt.Sprintf("n=%d/%s/seed=%d", n, shape.name, seed)
				checkRouteInvariants(t, label, n, msgs)
			}
		}
	}
}

// TestPropertyRouteInvariantsAtScale sweeps the O(n)-message shapes at
// n=4096 through the step programs.
func TestPropertyRouteInvariantsAtScale(t *testing.T) {
	const n = 4096
	for _, shape := range routeShapes {
		if !shape.sparse {
			continue
		}
		msgs := shape.gen(n, rand.New(rand.NewSource(1)))
		checkRouteInvariants(t, fmt.Sprintf("n=%d/%s", n, shape.name), n, msgs)
	}
}

// sortShapes are the generated key distribution families.
var sortShapes = []struct {
	name   string
	sparse bool
	gen    func(n int, rng *rand.Rand) [][]int64
}{
	{"uniform", false, func(n int, rng *rand.Rand) [][]int64 {
		values := make([][]int64, n)
		for i := 0; i < n; i++ {
			for k := rng.Intn(n + 1); k > 0; k-- {
				values[i] = append(values[i], rng.Int63n(1<<40))
			}
		}
		return values
	}},
	{"duplicate-heavy", false, func(n int, rng *rand.Rand) [][]int64 {
		values := make([][]int64, n)
		for i := 0; i < n; i++ {
			for k := rng.Intn(n + 1); k > 0; k-- {
				values[i] = append(values[i], int64(rng.Intn(5)))
			}
		}
		return values
	}},
	{"presorted-gappy", true, func(n int, rng *rand.Rand) [][]int64 {
		values := make([][]int64, n)
		v := int64(0)
		for i := 0; i < n; i++ {
			for k := rng.Intn(4); k > 0; k-- {
				values[i] = append(values[i], v)
				v += 1 + rng.Int63n(3)
			}
		}
		return values
	}},
	{"ragged", false, func(n int, rng *rand.Rand) [][]int64 {
		values := make([][]int64, 1+rng.Intn(n))
		for i := range values {
			if i%4 == 0 {
				continue
			}
			for k := rng.Intn(5); k > 0; k-- {
				values[i] = append(values[i], rng.Int63n(64))
			}
		}
		return values
	}},
}

// verifySortOutput checks a public sort result of values against Problem
// 4.1's output contract (internal/verify's oracle).
func verifySortOutput(n int, values [][]int64, res *SortResult) error {
	input := make([][]core.Key, n)
	results := make([]*core.SortResult, n)
	for i := 0; i < n; i++ {
		if i < len(values) {
			for j, v := range values[i] {
				input[i] = append(input[i], core.Key{Value: v, Origin: i, Seq: j})
			}
		}
		sr := &core.SortResult{Start: res.Starts[i], Total: res.Total}
		for _, k := range res.Batches[i] {
			sr.Batch = append(sr.Batch, core.Key{Value: k.Value, Origin: k.Origin, Seq: k.Seq})
		}
		results[i] = sr
	}
	return verify.Sorting(input, results)
}

// checkSortInvariants runs one instance and checks the paper's sorting
// invariants — Theorem 4.5's round bound and Problem 4.1's output contract
// with footnote-5 tie-breaking — on the result.
func checkSortInvariants(t *testing.T, label string, n int, values [][]int64) {
	t.Helper()
	res, err := Sort(n, values, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := verifySortOutput(n, values, res); err != nil {
		t.Fatalf("%s (strategy %v): %v", label, res.Strategy, err)
	}
	if res.Stats.Rounds > 37 {
		t.Errorf("%s: %d rounds exceed the Theorem 4.5 bound of 37 (strategy %v)", label, res.Stats.Rounds, res.Strategy)
	}
	if res.Stats.MaxEdgeWords > 64 {
		t.Errorf("%s: per-edge load %d words is not a small constant (strategy %v)", label, res.Stats.MaxEdgeWords, res.Strategy)
	}
}

func TestPropertySortInvariants(t *testing.T) {
	t.Parallel()
	for _, n := range []int{9, 16, 33, 64} {
		for _, shape := range sortShapes {
			for seed := int64(1); seed <= 3; seed++ {
				values := shape.gen(n, rand.New(rand.NewSource(seed)))
				label := fmt.Sprintf("n=%d/%s/seed=%d", n, shape.name, seed)
				checkSortInvariants(t, label, n, values)
			}
		}
	}
}

// TestPropertySortInvariantsAtScale sweeps the O(n)-key shapes at n=4096
// through the step programs.
func TestPropertySortInvariantsAtScale(t *testing.T) {
	const n = 4096
	for _, shape := range sortShapes {
		if !shape.sparse {
			continue
		}
		values := shape.gen(n, rand.New(rand.NewSource(1)))
		checkSortInvariants(t, fmt.Sprintf("n=%d/%s", n, shape.name), n, values)
	}
}

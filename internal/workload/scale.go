package workload

// Scale-out instance builders: deterministic O(n)-message demand shapes for
// the large-n frontier (n up to 16384), where the catalog's full-load
// scenarios would allocate O(n²) messages just to describe the instance.
// Every builder is a pure function of its parameters, so frontier runs are
// reproducible; they are shared by the scaling benchmarks (cliquebench
// scaling), the property harness and the frontier guard tests.

import (
	"fmt"
	"math/rand"
)

// ScaleSparseRoute builds the frontier's sparse routing instance: each source
// sends 1 + src%3 messages (about 2n total) to distinct spread destinations,
// so the per-pair multiplicity is exactly 1 and the planner selects the
// single-round direct strategy at every n. Memory stays O(n).
func ScaleSparseRoute(n int, seed int64) (*RoutingInstance, error) {
	if err := checkScenarioN("scale-sparse", n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := newInstanceBuilder(n)
	for src := 0; src < n; src++ {
		for j := 0; j < 1+src%3; j++ {
			b.add(src, (src+1+j*7)%n, rng.Int63n(1<<40))
		}
	}
	return b.instance(n, "scale-sparse"), nil
}

// ScaleBroadcastRoute builds the frontier's one-to-many instance: 6 sources
// each send 35 messages spread over 7 sinks (pair multiplicity 5, past the
// direct budget), few enough sources to pass the broadcast gate at every
// n >= 48. The planner selects the broadcast strategy; total demand is O(1).
func ScaleBroadcastRoute(n int) (*RoutingInstance, error) {
	if n < 48 {
		return nil, fmt.Errorf("workload: scale-broadcast needs n >= 48, got %d", n)
	}
	b := newInstanceBuilder(n)
	for src := 0; src < 6; src++ {
		for k := 0; k < 35; k++ {
			b.add(src, 6+k%7, int64(src*1000+k))
		}
	}
	return b.instance(n, "scale-broadcast"), nil
}

// BroadcastGateRoute builds the adversarial instances that sit on the two
// sides of the planner's broadcast round gate (BroadcastMaxRounds). Both
// shapes concentrate 8 sources on sink 0 with pair multiplicity past the
// direct budget; the deterministic scatter piles their messages onto shared
// relays, so the induced delivery depth equals the per-source message count.
// With over=false each source sends 7 messages (scatter + 7 delivery rounds,
// exactly at the cap: StrategyBroadcast); with over=true each sends 8
// (1+8 rounds, one past the cap: the planner must reject the fast path and
// keep the Theorem 3.7 pipeline). Requires n >= 64 so 8 sources stay within
// the broadcast source cap n/8.
func BroadcastGateRoute(n int, over bool) (*RoutingInstance, error) {
	if n < 64 {
		return nil, fmt.Errorf("workload: broadcast-gate needs n >= 64, got %d", n)
	}
	per := 7
	if over {
		per = 8
	}
	b := newInstanceBuilder(n)
	for src := 0; src < 8; src++ {
		for k := 0; k < per; k++ {
			b.add(src, 0, int64(src*100+k))
		}
	}
	name := "broadcast-gate-under"
	if over {
		name = "broadcast-gate-over"
	}
	return b.instance(n, name), nil
}

// ScalePresortedValues builds the frontier's sorting instance as public-API
// values: node i holds (i*7)%5+1 ascending values strictly below node i+1's
// (every 11th node holds none), about 2n keys total. The instance partitions
// the global order, so the sorting planner selects the presorted strategy at
// every n. Memory stays O(n).
func ScalePresortedValues(n int) [][]int64 {
	values := make([][]int64, n)
	v := int64(0)
	for i := 0; i < n; i++ {
		cnt := (i*7)%5 + 1
		if i%11 == 0 {
			cnt = 0
		}
		for j := 0; j < cnt; j++ {
			values[i] = append(values[i], v)
			v += int64(1 + (i+j)%3)
		}
	}
	return values
}

package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
	"congestedclique/internal/verify"
)

// fuzzSparseInstance generates a random Problem 3.1 instance (per-source and
// per-sink loads capped at n) from the fuzzed parameters.
func fuzzSparseInstance(seed int64, nRaw, perRaw uint8, concentrate, ragged bool) (int, [][]core.Message) {
	n := 8 + int(nRaw)%57 // 8..64
	per := int(perRaw) % (n + 1)
	rng := rand.New(rand.NewSource(seed))
	rows := n
	if ragged {
		rows = 1 + rng.Intn(n)
	}
	msgs := make([][]core.Message, rows)
	recv := make([]int, n)
	for src := 0; src < rows; src++ {
		count := rng.Intn(per + 1)
		for k := 0; k < count; k++ {
			dst := rng.Intn(n)
			if concentrate {
				dst = rng.Intn(1 + n/8)
			}
			if recv[dst] >= n {
				continue
			}
			recv[dst]++
			msgs[src] = append(msgs[src], core.Message{Src: src, Dst: dst, Seq: len(msgs[src]), Payload: clique.Word(rng.Int63n(1 << 40))})
		}
	}
	return n, msgs
}

// FuzzSparseRoundTrip checks that SparseDemand accepts every generated
// Problem 3.1 instance and hands each node exactly its own row.
func FuzzSparseRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(4), false, false)
	f.Add(int64(2), uint8(9), uint8(0), false, true)
	f.Add(int64(3), uint8(25), uint8(12), true, false)
	f.Add(int64(4), uint8(31), uint8(200), true, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, perRaw uint8, concentrate, ragged bool) {
		n, msgs := fuzzSparseInstance(seed, nRaw, perRaw, concentrate, ragged)
		sd, err := core.NewSparseDemand(n, msgs)
		if err != nil {
			t.Fatalf("NewSparseDemand: %v", err)
		}
		for i := 0; i < n; i++ {
			var want []core.Message
			if i < len(msgs) {
				want = msgs[i]
			}
			if got := sd.Row(i); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("row %d does not round-trip: got %v want %v", i, got, want)
			}
		}
	})
}

// FuzzSparseRouteMatchesDense executes every generated instance with a
// step-program plan under both drivers, requires bit-identical outputs and
// metrics, and checks the deliveries against the oracle.
func FuzzSparseRouteMatchesDense(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2), false, false)
	f.Add(int64(2), uint8(9), uint8(1), false, true)
	f.Add(int64(3), uint8(25), uint8(30), true, false)
	f.Add(int64(4), uint8(31), uint8(3), true, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, perRaw uint8, concentrate, ragged bool) {
		n, msgs := fuzzSparseInstance(seed, nRaw, perRaw, concentrate, ragged)
		plan := core.PlanRoute(n, msgs)
		if !core.SparseStepCapable(plan.Strategy) {
			return // pipeline arm: not a step program
		}
		if plan.Census = seed%2 == 0; plan.Census {
			plan.CensusHasFP, plan.CensusFP = true, core.RouteFingerprint(n, msgs).Hash
		}
		delivered := routeUnderBothDrivers(t, plan.Strategy.String(), n, msgs, plan)
		sent := make([][]core.Message, n)
		copy(sent, msgs)
		if err := verify.Routing(sent, delivered); err != nil {
			t.Fatalf("strategy %v: %v", plan.Strategy, err)
		}
	})
}

package baseline

import (
	"fmt"
	"testing"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
	"congestedclique/internal/verify"
	"congestedclique/internal/workload"
)

func runBaselineRouting(t *testing.T, inst *workload.RoutingInstance, route func(clique.Exchanger, []core.Message) ([]core.Message, error)) clique.Metrics {
	t.Helper()
	nw, err := clique.New(inst.N)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	results := make([][]core.Message, inst.N)
	err = nw.Run(func(nd *clique.Node) error {
		out, rErr := route(nd, inst.Msgs[nd.ID()])
		if rErr != nil {
			return rErr
		}
		results[nd.ID()] = out
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Routing(inst.Msgs, results); err != nil {
		t.Fatal(err)
	}
	return nw.Metrics()
}

func TestNaiveDirectRouteUniform(t *testing.T) {
	t.Parallel()
	inst, err := workload.NewRoutingInstance(32, 32, workload.RoutingUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := runBaselineRouting(t, inst, NaiveDirectRoute)
	if m.Rounds < 1 {
		t.Fatal("expected at least one round")
	}
}

func TestNaiveDirectRouteSkewedDegenerates(t *testing.T) {
	t.Parallel()
	const n = 32
	inst, err := workload.NewRoutingInstance(n, n, workload.RoutingSkewed, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := runBaselineRouting(t, inst, NaiveDirectRoute)
	// All n messages of a node share one destination, so direct delivery
	// needs n rounds (plus the agreement round) — the behaviour the paper's
	// algorithm avoids.
	if m.Rounds < n {
		t.Fatalf("skewed naive routing finished in %d rounds, expected at least %d", m.Rounds, n)
	}
}

func TestRandomizedRouteConstantRounds(t *testing.T) {
	t.Parallel()
	for _, pattern := range []workload.RoutingPattern{workload.RoutingUniform, workload.RoutingSkewed, workload.RoutingSetAdversarial} {
		pattern := pattern
		t.Run(string(pattern), func(t *testing.T) {
			t.Parallel()
			inst, err := workload.NewRoutingInstance(64, 64, pattern, 3)
			if err != nil {
				t.Fatal(err)
			}
			m := runBaselineRouting(t, inst, func(nd clique.Exchanger, msgs []core.Message) ([]core.Message, error) {
				return RandomizedRoute(nd, msgs, 42)
			})
			if m.Rounds > 12 {
				t.Errorf("%s: randomized routing took %d rounds, expected a small constant", pattern, m.Rounds)
			}
		})
	}
}

func TestRandomizedRouteRejectsOversizedInput(t *testing.T) {
	t.Parallel()
	nw, err := clique.New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *clique.Node) error {
		var msgs []core.Message
		if nd.ID() == 0 {
			for k := 0; k < 10; k++ {
				msgs = append(msgs, core.Message{Src: 0, Dst: 1, Seq: k})
			}
		}
		_, rErr := RandomizedRoute(nd, msgs, 7)
		if nd.ID() == 0 && rErr == nil {
			return fmt.Errorf("oversized input accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedSampleSort(t *testing.T) {
	t.Parallel()
	for _, dist := range []workload.KeyDistribution{workload.KeysUniform, workload.KeysDuplicateHeavy, workload.KeysPreSorted} {
		dist := dist
		t.Run(string(dist), func(t *testing.T) {
			t.Parallel()
			inst, err := workload.NewSortingInstance(36, 36, dist, 9)
			if err != nil {
				t.Fatal(err)
			}
			nw, err := clique.New(inst.N)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			results := make([]*core.SortResult, inst.N)
			err = nw.Run(func(nd *clique.Node) error {
				res, sErr := RandomizedSampleSort(nd, inst.Keys[nd.ID()], 99)
				if sErr != nil {
					return sErr
				}
				results[nd.ID()] = res
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Sorting(inst.Keys, results); err != nil {
				t.Fatal(err)
			}
			if nw.Metrics().Rounds > 20 {
				t.Errorf("randomized sample sort took %d rounds, expected a small constant", nw.Metrics().Rounds)
			}
		})
	}
}

func TestRandomizedFasterThanDeterministicShape(t *testing.T) {
	t.Parallel()
	// The introduction's comparison: the randomized routing runs in roughly
	// half the rounds of the deterministic 16-round bound on benign inputs.
	inst, err := workload.NewRoutingInstance(100, 100, workload.RoutingUniform, 11)
	if err != nil {
		t.Fatal(err)
	}
	mRand := runBaselineRouting(t, inst, func(nd clique.Exchanger, msgs []core.Message) ([]core.Message, error) {
		return RandomizedRoute(nd, msgs, 1)
	})
	mDet := runBaselineRouting(t, inst, func(nd clique.Exchanger, msgs []core.Message) ([]core.Message, error) {
		return core.Route(nd, msgs)
	})
	if mRand.Rounds >= mDet.Rounds {
		t.Errorf("randomized (%d rounds) not faster than deterministic (%d rounds)", mRand.Rounds, mDet.Rounds)
	}
}

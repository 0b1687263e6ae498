package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
	"congestedclique/internal/verify"
)

// Every fast path is one step program with two drivers (see sparse.go). The
// tests in this file run each program under both — the engine-driven step
// scheduler (RunRounds) and the blocking scheduler (Run + driveBlocking, by
// way of AutoRoute and AutoSort) — and require identical outputs and
// identical Metrics, then check the output against the paper's correctness
// conditions with internal/verify.

// onNetwork runs body on a fresh n-node engine and returns the run's metrics.
func onNetwork(t testing.TB, n int, body func(nw *clique.Network) error) clique.Metrics {
	t.Helper()
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if err := body(nw); err != nil {
		t.Fatal(err)
	}
	return nw.Metrics()
}

// routeUnderBothDrivers executes plan over msgs with SparseRouteRun under
// RunRounds and with AutoRoute under Run, fails on any difference, and
// returns the deliveries.
func routeUnderBothDrivers(t testing.TB, label string, n int, msgs [][]core.Message, plan core.RoutePlan) [][]core.Message {
	t.Helper()
	sd, err := core.NewSparseDemand(n, msgs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	stepped := make([][]core.Message, n)
	stepM := onNetwork(t, n, func(nw *clique.Network) error {
		run, err := core.NewSparseRouteRun(sd, plan)
		if err != nil {
			return err
		}
		if err := nw.RunRounds(run.Step); err != nil {
			return err
		}
		for i := range stepped {
			stepped[i] = run.Output(i)
		}
		return nil
	})
	blocked := make([][]core.Message, n)
	blockM := onNetwork(t, n, func(nw *clique.Network) error {
		return nw.Run(func(nd *clique.Node) (err error) {
			blocked[nd.ID()], err = core.AutoRoute(nd, sd.Row(nd.ID()), plan)
			return err
		})
	})
	for i := 0; i < n; i++ {
		if len(stepped[i])+len(blocked[i]) > 0 && !reflect.DeepEqual(stepped[i], blocked[i]) {
			t.Fatalf("%s: node %d outputs differ:\n step     %v\n blocking %v", label, i, stepped[i], blocked[i])
		}
	}
	if !reflect.DeepEqual(stepM, blockM) {
		t.Fatalf("%s: metrics differ:\n step     %+v\n blocking %+v", label, stepM, blockM)
	}
	return stepped
}

func TestStepProgramsUnderBothDrivers(t *testing.T) {
	t.Parallel()
	for _, n := range []int{8, 48, 90} {
		for _, census := range []bool{false, true} {
			for name, msgs := range core.SparseTestInstances(n) {
				plan := core.PlanRoute(n, msgs)
				if !core.SparseStepCapable(plan.Strategy) {
					continue // pipeline arm: not a step program
				}
				if plan.Census = census; census {
					plan.CensusHasFP, plan.CensusFP = true, core.RouteFingerprint(n, msgs).Hash
				}
				label := fmt.Sprintf("route/n=%d/%s/%v/census=%v", n, name, plan.Strategy, census)
				delivered := routeUnderBothDrivers(t, label, n, msgs, plan)
				sent := make([][]core.Message, n)
				copy(sent, msgs)
				if err := verify.Routing(sent, delivered); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}

			// Full load — n keys at every node — is the density the blocking
			// dealByRank twin used to serve.
			fullLoad := make([][]core.Key, n)
			for i := range fullLoad {
				for j := 0; j < n; j++ {
					fullLoad[i] = append(fullLoad[i], core.Key{Value: int64(2 * (i*n + j)), Origin: i, Seq: j})
				}
			}
			for name, keys := range map[string][][]core.Key{
				"empty":          make([][]core.Key, n),
				"presorted":      core.PresortedKeysInstance(n),
				"presorted-full": fullLoad,
			} {
				plan := core.PlanSort(n, keys)
				if !core.SparseSortStepCapable(plan.Strategy) {
					t.Fatalf("sort/n=%d/%s: plan strategy %v is not a step program", n, name, plan.Strategy)
				}
				if plan.Census = census; census {
					fp, _ := core.SortFingerprint(n, keys)
					plan.CensusHasFP, plan.CensusFP = true, fp.Hash
				}
				label := fmt.Sprintf("sort/n=%d/%s/%v/census=%v", n, name, plan.Strategy, census)
				stepped := make([]*core.SortResult, n)
				stepM := onNetwork(t, n, func(nw *clique.Network) error {
					run, err := core.NewSparseSortRun(n, keys, plan)
					if err != nil {
						return err
					}
					if err := nw.RunRounds(run.Step); err != nil {
						return err
					}
					for i := range stepped {
						stepped[i] = run.Result(i)
					}
					return nil
				})
				blocked := make([]*core.SortResult, n)
				blockM := onNetwork(t, n, func(nw *clique.Network) error {
					return nw.Run(func(nd *clique.Node) (err error) {
						blocked[nd.ID()], err = core.AutoSort(nd, keys[nd.ID()], plan)
						return err
					})
				})
				if !reflect.DeepEqual(stepped, blocked) {
					t.Fatalf("%s: results differ between drivers", label)
				}
				if !reflect.DeepEqual(stepM, blockM) {
					t.Fatalf("%s: metrics differ:\n step     %+v\n blocking %+v", label, stepM, blockM)
				}
				if err := verify.Sorting(keys, stepped); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
}

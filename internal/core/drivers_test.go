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
// scheduler (RunRounds) and the blocking scheduler (Run + driveBlocking) —
// and require identical outputs and identical Metrics, then check the output
// against the paper's correctness conditions with internal/verify.

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

			for name, keys := range map[string][][]core.Key{
				"empty":     make([][]core.Key, n),
				"presorted": core.PresortedKeysInstance(n),
			} {
				plan := core.PlanSort(n, keys)
				if plan.Census = census; census {
					fp, _ := core.SortFingerprint(n, keys)
					plan.CensusHasFP, plan.CensusFP = true, fp.Hash
				}
				label := fmt.Sprintf("sort/n=%d/%s/%v/census=%v", n, name, plan.Strategy, census)
				var results [2][]*core.SortResult
				var metrics [2]clique.Metrics
				for d, drive := range []func(*clique.Network, *core.SparseSortRun) error{
					func(nw *clique.Network, run *core.SparseSortRun) error { return nw.RunRounds(run.Step) },
					func(nw *clique.Network, run *core.SparseSortRun) error {
						return nw.Run(func(nd *clique.Node) error {
							return core.DriveBlocking(nd, func(round int, inbox clique.Inbox) (bool, error) {
								return run.Step(nd, round, inbox)
							})
						})
					},
				} {
					metrics[d] = onNetwork(t, n, func(nw *clique.Network) error {
						run, err := core.NewSparseSortRun(n, keys, plan)
						if err != nil {
							return err
						}
						if err := drive(nw, run); err != nil {
							return err
						}
						for i := 0; i < n; i++ {
							results[d] = append(results[d], run.Result(i))
						}
						return nil
					})
				}
				if !reflect.DeepEqual(results[0], results[1]) {
					t.Fatalf("%s: results differ between drivers", label)
				}
				if !reflect.DeepEqual(metrics[0], metrics[1]) {
					t.Fatalf("%s: metrics differ:\n step     %+v\n blocking %+v", label, metrics[0], metrics[1])
				}
				if err := verify.Sorting(keys, results[0]); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
}

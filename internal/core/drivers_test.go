package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
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

// TestCensusRejectsWrongFingerprint gives the charged censuses their teeth:
// a plan whose cache fingerprint is off by one bit from the instance's must
// fail every route and sort census, under both drivers (the pipeline arms,
// not step programs, only under AutoRoute and AutoSort), with the
// fingerprint error.
func TestCensusRejectsWrongFingerprint(t *testing.T) {
	t.Parallel()
	const n = 48
	const want = "disagrees with plan fingerprint"
	expectRejected := func(label string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: census accepted a wrong fingerprint: %v", label, err)
		}
	}
	run := func(body func(nw *clique.Network) error) error {
		nw, err := clique.New(n)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		return body(nw)
	}
	for name, msgs := range core.SparseTestInstances(n) {
		plan := core.PlanRoute(n, msgs)
		plan.Census, plan.CensusHasFP, plan.CensusFP = true, true, core.RouteFingerprint(n, msgs).Hash^1
		sd, err := core.NewSparseDemand(n, msgs)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("route/%s/%v", name, plan.Strategy)
		expectRejected(label+"/AutoRoute", run(func(nw *clique.Network) error {
			return nw.Run(func(nd *clique.Node) error {
				_, err := core.AutoRoute(nd, sd.Row(nd.ID()), plan)
				return err
			})
		}))
		if core.SparseStepCapable(plan.Strategy) {
			expectRejected(label+"/SparseRouteRun", run(func(nw *clique.Network) error {
				stepRun, err := core.NewSparseRouteRun(sd, plan)
				if err != nil {
					return err
				}
				return nw.RunRounds(stepRun.Step)
			}))
		}
	}
	for name, keys := range map[string][][]core.Key{
		"empty":     make([][]core.Key, n),
		"presorted": core.PresortedKeysInstance(n),
		"pipeline":  core.BuildKeys(n, n, "uniform", 7),
	} {
		plan := core.PlanSort(n, keys)
		fp, _ := core.SortFingerprint(n, keys)
		plan.Census, plan.CensusHasFP, plan.CensusFP = true, true, fp.Hash^1
		label := fmt.Sprintf("sort/%s/%v", name, plan.Strategy)
		expectRejected(label+"/AutoSort", run(func(nw *clique.Network) error {
			return nw.Run(func(nd *clique.Node) error {
				_, err := core.AutoSort(nd, keys[nd.ID()], plan)
				return err
			})
		}))
		if core.SparseSortStepCapable(plan.Strategy) {
			expectRejected(label+"/SparseSortRun", run(func(nw *clique.Network) error {
				stepRun, err := core.NewSparseSortRun(n, keys, plan)
				if err != nil {
					return err
				}
				return nw.RunRounds(stepRun.Step)
			}))
		}
	}
}

// TestStepReceiveVisitsOnlySenders runs the direct, broadcast and presorted
// step programs, each behind its charged census, at n=4096 on instances where
// every node hears from a handful of senders, and checks the outputs with
// internal/verify. A receive that walks Exchanger.InboxSenders costs such a
// node a handful of table entries; the sweep of all n it replaced cost 16.8M
// slice-header loads per round here, so the source scan below keeps any loop
// over the whole inbox table out of the package (BenchmarkStepReceive in the
// root package times the same shapes).
func TestStepReceiveVisitsOnlySenders(t *testing.T) {
	t.Parallel()
	const (
		n          = 4096
		maxSenders = 8
	)
	// few wraps a step function with the test's premise: outside node 0's
	// census gather nobody hears from more than maxSenders nodes, and the
	// sender list names exactly the non-empty table entries it claims to.
	few := func(step clique.StepFunc) clique.StepFunc {
		return func(nd *clique.Node, round int, inbox clique.Inbox) (bool, error) {
			senders := nd.InboxSenders()
			if nd.ID() != 0 && len(senders) > maxSenders {
				return true, fmt.Errorf("node %d heard from %d senders in round %d, the instance promises <= %d",
					nd.ID(), len(senders), round, maxSenders)
			}
			packets := 0
			for _, from := range senders {
				if len(inbox[from]) == 0 {
					return true, fmt.Errorf("node %d round %d: listed sender %d sent nothing", nd.ID(), round, from)
				}
				packets += len(inbox[from])
			}
			if nd.ID()%512 == 1 { // the O(n) cross-check, on a sample of nodes
				total := 0
				for _, ps := range inbox {
					total += len(ps)
				}
				if total != packets {
					return true, fmt.Errorf("node %d round %d: senders cover %d of %d packets", nd.ID(), round, packets, total)
				}
			}
			return step(nd, round, inbox)
		}
	}

	direct := make([][]core.Message, n)
	for i := range direct {
		for seq, hop := range []int{1, 7, 100} {
			direct[i] = append(direct[i], core.Message{Src: i, Dst: (i + hop) % n, Seq: seq, Payload: clique.Word(i*8 + seq)})
		}
	}
	broadcast := make([][]core.Message, n)
	for src := 0; src < 3; src++ {
		for k := 0; k < 2*(core.DirectMaxMultiplicity+1); k++ {
			broadcast[src] = append(broadcast[src], core.Message{Src: src, Dst: 9 + 1000*src + k%2, Seq: k, Payload: clique.Word(src*100 + k)})
		}
	}
	for name, msgs := range map[string][][]core.Message{"direct": direct, "broadcast": broadcast} {
		plan := core.PlanRoute(n, msgs)
		if plan.Strategy.String() != name {
			t.Fatalf("%s instance planned as %v", name, plan.Strategy)
		}
		plan.Census, plan.CensusHasFP, plan.CensusFP = true, true, core.RouteFingerprint(n, msgs).Hash
		sd, err := core.NewSparseDemand(n, msgs)
		if err != nil {
			t.Fatal(err)
		}
		delivered := make([][]core.Message, n)
		onNetwork(t, n, func(nw *clique.Network) error {
			run, err := core.NewSparseRouteRun(sd, plan)
			if err != nil {
				return err
			}
			if err := nw.RunRounds(few(run.Step)); err != nil {
				return err
			}
			for i := range delivered {
				delivered[i] = run.Output(i)
			}
			return nil
		})
		if err := verify.Routing(msgs, delivered); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	keys := core.PresortedKeysInstance(n)
	plan := core.PlanSort(n, keys)
	if plan.Strategy != core.SortStrategyPresorted {
		t.Fatalf("presorted instance planned as %v", plan.Strategy)
	}
	fp, _ := core.SortFingerprint(n, keys)
	plan.Census, plan.CensusHasFP, plan.CensusFP = true, true, fp.Hash
	results := make([]*core.SortResult, n)
	onNetwork(t, n, func(nw *clique.Network) error {
		run, err := core.NewSparseSortRun(n, keys, plan)
		if err != nil {
			return err
		}
		if err := nw.RunRounds(few(run.Step)); err != nil {
			return err
		}
		for i := range results {
			results[i] = run.Result(i)
		}
		return nil
	})
	if err := verify.Sorting(keys, results); err != nil {
		t.Fatalf("presorted: %v", err)
	}

	sweep := regexp.MustCompile(`range inbox\s*\{|len\(inbox\)`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if sweep.MatchString(line) {
				t.Errorf("%s:%d sweeps the whole inbox table: %s", file, i+1, strings.TrimSpace(line))
			}
		}
	}
}

package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
	"congestedclique/internal/verify"
)

// fullRouteInstance is a full-load routing instance (n messages per node,
// rotated so rows differ): the planner sends it down the pipeline arm.
func fullRouteInstance(n int) [][]core.Message {
	msgs := make([][]core.Message, n)
	for i := range msgs {
		for j := 0; j < n; j++ {
			msgs[i] = append(msgs[i], core.Message{Src: i, Dst: (i + 3*j + j/7) % n, Seq: j, Payload: clique.Word(i<<16 | j)})
		}
	}
	return msgs
}

// directInstance sends 5 messages from every node to 5 distinct
// destinations: sparse enough for the direct arm.
func directInstance(n int) [][]core.Message {
	msgs := make([][]core.Message, n)
	for i := range msgs {
		for j := 0; j < 5; j++ {
			msgs[i] = append(msgs[i], core.Message{Src: i, Dst: (i + 1 + j) % n, Seq: j, Payload: clique.Word(i<<8 | j)})
		}
	}
	return msgs
}

// rowOf is node id's row of an instance whose rows beyond len(rows) are
// empty.
func rowOf[T any](rows [][]T, id int) []T {
	if id < len(rows) {
		return rows[id]
	}
	return nil
}

// cloneRows deep-copies an instance so a test may alter one row.
func cloneRows[T any](rows [][]T) [][]T {
	out := make([][]T, len(rows))
	for i, row := range rows {
		out[i] = append([]T(nil), row...)
	}
	return out
}

// runRoute runs one node program per node on a fresh engine seeded with
// seed and returns every node's deliveries and the run's metrics.
func runRoute(t *testing.T, n int, seed clique.SharedSnapshot, prog func(nd *clique.Node) ([]core.Message, error)) ([][]core.Message, clique.Metrics, clique.SharedSnapshot, error) {
	t.Helper()
	nw, err := clique.New(n, clique.WithStrictEdgeBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.ArmSharedSeed(seed)
	out := make([][]core.Message, n)
	err = nw.Run(func(nd *clique.Node) error {
		var rErr error
		out[nd.ID()], rErr = prog(nd)
		return rErr
	})
	return out, nw.Metrics(), nw.CaptureShared(), err
}

// routeHitPlan runs instance a as a plan-cache miss, stores it in a fresh
// cache and returns the validated hit's plan (census armed, as the session
// arms it) and its shared-computation seed.
func routeHitPlan(t *testing.T, n int, a [][]core.Message) (core.RoutePlan, clique.SharedSnapshot) {
	t.Helper()
	fp := core.RouteFingerprint(n, a)
	plan := core.PlanRoute(n, a)
	if plan.Strategy == core.StrategyPipeline {
		plan.Capture = core.NewRouteScheduleCapture(n)
	}
	plan.Census, plan.CensusHasFP, plan.CensusFP = true, true, fp.Hash
	_, _, shared, err := runRoute(t, n, clique.SharedSnapshot{}, func(nd *clique.Node) ([]core.Message, error) {
		return core.AutoRoute(nd, rowOf(a, nd.ID()), plan)
	})
	if err != nil {
		t.Fatalf("miss: %v", err)
	}
	pc := core.NewPlanCache(1)
	pc.StoreRoute(fp, n, a, plan, plan.Capture, shared)
	_, hit := pc.LookupRoute(n, a)
	if hit == nil {
		t.Fatal("the miss's entry does not hit")
	}
	p := hit.Plan
	p.Sched = hit.Sched
	p.Census, p.CensusHasFP, p.CensusFP = true, true, fp.Hash
	return p, hit.Shared
}

// TestHitRowCheckAbortsTamperedInstance: a plan-cache hit's plan carries the
// cached instance's per-node rows, and each node checks its own row instead
// of running the census. A hit plan built from instance A's entry and run on
// instance B, which differs from A in one node's row, must abort in round 1
// — the mismatched node's abort word reaches every node in the arm's first
// round — and then deliver B correctly with the plan-free arm: exactly
// 1 + 10 rounds for a route (Theorem 5.4) and 1 + 31 for a sort
// (LowComputeSort), whose last rounds are exactly a cache-off run of that
// arm on B. Run on A, the same plan pays only for payload. In step mode
// (SparseRouteRun), the abort ends the run with ErrHitAborted after one
// round.
func TestHitRowCheckAbortsTamperedInstance(t *testing.T) {
	t.Parallel()
	type routeCase struct {
		name    string
		n       int
		a       [][]core.Message
		hitRuns int // rounds of the untampered hit
		// tamper alters one row of a copy of a into B.
		tamper func(row []core.Message)
	}
	// Swapping two destinations of different destination sets changes
	// the pipeline's intermediate-set assignment; sending a whole row to
	// one destination breaks the direct arm's multiplicity bound.
	swap := func(row []core.Message) { row[0].Dst, row[len(row)/2].Dst = row[len(row)/2].Dst, row[0].Dst }
	oneDst := func(row []core.Message) {
		for k := range row {
			row[k].Dst = row[0].Dst
		}
	}
	cases := []routeCase{
		{"pipeline/n=64", 64, fullRouteInstance(64), 8, swap},
		{"pipeline/n=90", 90, fullRouteInstance(90), 10, swap},
		{"direct/n=64", 64, directInstance(64), 1, oneDst},
	}
	for _, tc := range cases {
		tc := tc
		t.Run("route/"+tc.name, func(t *testing.T) {
			t.Parallel()
			n := tc.n
			plan, seed := routeHitPlan(t, n, tc.a)
			run := func(msgs [][]core.Message) ([][]core.Message, clique.Metrics, error) {
				out, m, _, err := runRoute(t, n, seed, func(nd *clique.Node) ([]core.Message, error) {
					return core.AutoRoute(nd, msgs[nd.ID()], plan)
				})
				return out, m, err
			}

			out, m, err := run(tc.a)
			if err != nil {
				t.Fatalf("untampered hit: %v", err)
			}
			if err := verify.Routing(tc.a, out); err != nil {
				t.Fatalf("untampered hit: %v", err)
			}
			if m.Rounds != tc.hitRuns {
				t.Fatalf("untampered hit took %d rounds, want %d", m.Rounds, tc.hitRuns)
			}

			// B: node n/3's row differs from A's, everything else is A.
			b := cloneRows(tc.a)
			tc.tamper(b[n/3])
			out, m, err = run(b)
			if err != nil {
				t.Fatalf("tampered hit: %v", err)
			}
			if err := verify.Routing(b, out); err != nil {
				t.Fatalf("tampered hit: %v", err)
			}
			_, plain, _, err := runRoute(t, n, clique.SharedSnapshot{}, func(nd *clique.Node) ([]core.Message, error) {
				return core.LowComputeRoute(nd, b[nd.ID()])
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.Rounds != 1+plain.Rounds || plain.Rounds != 10 {
				t.Fatalf("tampered hit took %d rounds, want 1 + %d (Theorem 5.4: 10)", m.Rounds, plain.Rounds)
			}
			if !reflect.DeepEqual(m.PerRound[1:], plain.PerRound) {
				t.Fatal("after the aborted round, the tampered hit's rounds differ from a cache-off Theorem 5.4 run")
			}
			if m.PerRound[0].Messages < n {
				t.Fatalf("the aborted round delivered %d packets, fewer than the n abort words", m.PerRound[0].Messages)
			}

			if !core.SparseStepCapable(plan.Strategy) {
				return
			}
			sd, err := core.NewSparseDemand(n, b)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := core.NewSparseRouteRun(sd, plan)
			if err != nil {
				t.Fatal(err)
			}
			nw, err := clique.New(n)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			if err := nw.RunRounds(sr.Step); !errors.Is(err, core.ErrHitAborted) {
				t.Fatalf("step-mode tampered hit ended with %v, want ErrHitAborted", err)
			}
			if r := nw.Metrics().Rounds; r != 1 {
				t.Fatalf("step-mode tampered hit ran %d rounds before aborting, want 1", r)
			}
		})
	}

	for _, sc := range []struct{ n, hitRounds int }{{64, 12}, {90, 14}} {
		n := sc.n
		t.Run(fmt.Sprintf("sort/pipeline/n=%d", n), func(t *testing.T) {
			t.Parallel()
			a := core.BuildKeys(n, n, "uniform", int64(n)*11)
			fp, _ := core.SortFingerprint(n, a)
			plan := core.PlanSort(n, a)
			if plan.Strategy != core.SortStrategyPipeline {
				t.Fatalf("uniform full load planned as %v", plan.Strategy)
			}
			plan.Census, plan.CensusHasFP, plan.CensusFP = true, true, fp.Hash
			_, shared, err := autoSortRun(t, a, plan, clique.SharedSnapshot{})
			if err != nil {
				t.Fatalf("miss: %v", err)
			}
			pc := core.NewPlanCache(1)
			pc.StoreSort(fp, n, a, plan, shared)
			_, hit, _ := pc.LookupSort(n, a)
			if hit == nil || hit.Plan.Sched == nil {
				t.Fatal("the miss stored no schedule to replay")
			}
			p := hit.Plan
			p.Census, p.CensusHasFP, p.CensusFP = true, true, fp.Hash

			// B: one key of node n/3 moves past every delimiter.
			b := cloneRows(a)
			b[n/3][0].Value = 1 << 50
			rounds := func(keys [][]core.Key, seed clique.SharedSnapshot, sorter func(ex clique.Exchanger, keys []core.Key) (*core.SortResult, error)) clique.Metrics {
				t.Helper()
				nw, err := clique.New(n, clique.WithStrictEdgeBudget(64))
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				nw.ArmSharedSeed(seed)
				results := make([]*core.SortResult, n)
				err = nw.Run(func(nd *clique.Node) error {
					var sErr error
					results[nd.ID()], sErr = sorter(nd, keys[nd.ID()])
					return sErr
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := verify.Sorting(keys, results); err != nil {
					t.Fatal(err)
				}
				return nw.Metrics()
			}
			hitPlan := func(ex clique.Exchanger, keys []core.Key) (*core.SortResult, error) {
				return core.AutoSort(ex, keys, p)
			}
			if r := rounds(a, hit.Shared, hitPlan).Rounds; r != sc.hitRounds {
				t.Fatalf("untampered sort hit took %d rounds, want %d", r, sc.hitRounds)
			}
			m := rounds(b, hit.Shared, hitPlan)
			plain := rounds(b, clique.SharedSnapshot{}, core.LowComputeSort)
			if m.Rounds != 1+plain.Rounds || plain.Rounds != 31 {
				t.Fatalf("tampered sort hit took %d rounds, want 1 + %d (LowComputeSort: 31)", m.Rounds, plain.Rounds)
			}
			if !reflect.DeepEqual(m.PerRound[1:], plain.PerRound) {
				t.Fatal("after the aborted round, the tampered sort hit's rounds differ from a cache-off LowComputeSort")
			}
		})
	}
}

// TestHitPaysOnlyPayload: on an untampered instance, a plan-cache hit of
// every arm costs exactly the arm's own rounds — no census, nothing added by
// the row check — except the empty arms, which spend exactly one, the check
// round; outputs pass internal/verify, and the step-mode runs agree with
// the blocking driver's rounds.
func TestHitPaysOnlyPayload(t *testing.T) {
	t.Parallel()
	const n = 64
	for name, a := range core.SparseTestInstances(n) {
		plan, seed := routeHitPlan(t, n, a)
		want := plan.Rounds()
		switch plan.Strategy {
		case core.StrategyEmpty:
			want = 1
		case core.StrategyPipeline:
			want = 8
		}
		out, m, _, err := runRoute(t, n, seed, func(nd *clique.Node) ([]core.Message, error) {
			return core.AutoRoute(nd, rowOf(a, nd.ID()), plan)
		})
		if err != nil {
			t.Fatalf("route %s: %v", name, err)
		}
		sent := make([][]core.Message, n)
		copy(sent, a)
		if err := verify.Routing(sent, out); err != nil {
			t.Fatalf("route %s: %v", name, err)
		}
		if m.Rounds != want {
			t.Fatalf("route %s (%v) hit took %d rounds, want %d", name, plan.Strategy, m.Rounds, want)
		}
		if !core.SparseStepCapable(plan.Strategy) {
			continue
		}
		sd, err := core.NewSparseDemand(n, a)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := core.NewSparseRouteRun(sd, plan)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := clique.New(n)
		if err != nil {
			t.Fatal(err)
		}
		err = nw.RunRounds(sr.Step)
		sm := nw.Metrics()
		nw.Close()
		if err != nil {
			t.Fatalf("route %s step mode: %v", name, err)
		}
		if sm.Rounds != m.Rounds || sm.TotalWords != m.TotalWords {
			t.Fatalf("route %s: step mode %d rounds / %d words, blocking %d / %d", name, sm.Rounds, sm.TotalWords, m.Rounds, m.TotalWords)
		}
	}

	smallDomain := make([][]core.Key, 256)
	for i := range smallDomain {
		for k := 0; k < 4; k++ {
			smallDomain[i] = append(smallDomain[i], core.Key{Value: int64((i + k) % 3), Origin: i, Seq: k})
		}
	}
	for _, sc := range []struct {
		name     string
		keys     [][]core.Key
		strategy core.SortStrategy
		rounds   int
	}{
		{"empty", make([][]core.Key, n), core.SortStrategyEmpty, 1},
		{"presorted", core.PresortedKeysInstance(n), core.SortStrategyPresorted, 2},
		{"small-domain", smallDomain, core.SortStrategySmallDomain, 4},
	} {
		m := len(sc.keys)
		fp, _ := core.SortFingerprint(m, sc.keys)
		plan := core.PlanSort(m, sc.keys)
		if plan.Strategy != sc.strategy {
			t.Fatalf("sort %s planned as %v", sc.name, plan.Strategy)
		}
		plan.Census, plan.CensusHasFP, plan.CensusFP = true, true, fp.Hash
		_, shared, err := autoSortRun(t, sc.keys, plan, clique.SharedSnapshot{})
		if err != nil {
			t.Fatalf("sort %s miss: %v", sc.name, err)
		}
		pc := core.NewPlanCache(1)
		pc.StoreSort(fp, m, sc.keys, plan, shared)
		_, hit, _ := pc.LookupSort(m, sc.keys)
		p := hit.Plan
		p.Census, p.CensusHasFP, p.CensusFP = true, true, fp.Hash
		nw, err := clique.New(m)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*core.SortResult, m)
		err = nw.Run(func(nd *clique.Node) error {
			var sErr error
			results[nd.ID()], sErr = core.AutoSort(nd, sc.keys[nd.ID()], p)
			return sErr
		})
		rounds := nw.Metrics().Rounds
		nw.Close()
		if err != nil {
			t.Fatalf("sort %s hit: %v", sc.name, err)
		}
		if err := verify.Sorting(sc.keys, results); err != nil {
			t.Fatalf("sort %s hit: %v", sc.name, err)
		}
		if rounds != sc.rounds {
			t.Fatalf("sort %s hit took %d rounds, want %d", sc.name, rounds, sc.rounds)
		}
		if !core.SparseSortStepCapable(p.Strategy) {
			continue
		}
		sr, err := core.NewSparseSortRun(m, sc.keys, p)
		if err != nil {
			t.Fatal(err)
		}
		nw, err = clique.New(m)
		if err != nil {
			t.Fatal(err)
		}
		err = nw.RunRounds(sr.Step)
		stepRounds := nw.Metrics().Rounds
		nw.Close()
		if err != nil {
			t.Fatalf("sort %s step mode: %v", sc.name, err)
		}
		for i := range results {
			results[i] = sr.Result(i)
		}
		if err := verify.Sorting(sc.keys, results); err != nil {
			t.Fatalf("sort %s step mode: %v", sc.name, err)
		}
		if stepRounds != rounds {
			t.Fatalf("sort %s: step mode %d rounds, blocking %d", sc.name, stepRounds, rounds)
		}
	}
}

// slotless is an exchanger that keeps no scratch slot: it embeds only the
// Exchanger interface, so the node's ScratchSlot is hidden.
type slotless struct{ clique.Exchanger }

// TestHitOnSlotlessExchanger: a validated hit's comms run behind a hitGate
// on the executor beneath it; an exchanger beneath that keeps no slot gets a
// stack of its own, as under a plain Route, and the hit pays its 8 pipeline
// rounds.
func TestHitOnSlotlessExchanger(t *testing.T) {
	t.Parallel()
	const n = 64
	a := fullRouteInstance(n)
	plan, seed := routeHitPlan(t, n, a)
	out, m, _, err := runRoute(t, n, seed, func(nd *clique.Node) ([]core.Message, error) {
		return core.AutoRoute(slotless{nd}, a[nd.ID()], plan)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Routing(a, out); err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 8 {
		t.Fatalf("the hit took %d rounds, want 8", m.Rounds)
	}
}

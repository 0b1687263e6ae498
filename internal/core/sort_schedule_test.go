package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
	"congestedclique/internal/verify"
)

// autoSortRun runs AutoSort with plan on every node of a fresh engine whose
// shared-computation cache is seeded with seed, and returns each node's
// result (nil where the node failed), the run's shared computations and the
// run error.
func autoSortRun(t *testing.T, keys [][]core.Key, plan core.SortPlan, seed clique.SharedSnapshot) ([]*core.SortResult, clique.SharedSnapshot, error) {
	t.Helper()
	nw, err := clique.New(len(keys), clique.WithStrictEdgeBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.ArmSharedSeed(seed)
	results := make([]*core.SortResult, len(keys))
	err = nw.Run(func(nd *clique.Node) error {
		res, sErr := core.AutoSort(nd, keys[nd.ID()], plan)
		results[nd.ID()] = res
		return sErr
	})
	return results, nw.CaptureShared(), err
}

// cloneSortSchedule deep-copies a cached schedule so a test may alter it
// (cached entries are shared and immutable).
func cloneSortSchedule(ss *core.SortSchedule) *core.SortSchedule {
	out := &core.SortSchedule{
		Delims:   slices.Clone(ss.Delims),
		Counts:   cloneMatrix(ss.Counts),
		S7Delims: slices.Clone(ss.S7Delims),
		S7Counts: make([][][]int, len(ss.S7Counts)),
	}
	for g, m := range ss.S7Counts {
		out.S7Counts[g] = cloneMatrix(m)
	}
	if ss.Route != nil {
		out.Route = &core.RouteSchedule{S5Counts: make([][][]int, len(ss.Route.S5Counts))}
		for g, m := range ss.Route.S5Counts {
			out.Route.S5Counts[g] = cloneMatrix(m)
		}
	}
	return out
}

func cloneMatrix(m [][]int) [][]int {
	out := make([][]int, len(m))
	for i, row := range m {
		out[i] = slices.Clone(row)
	}
	return out
}

// TestSortScheduleRejectsMismatch: a sort plan-cache hit replays Algorithm 4
// from Step 5 with the captured SortSchedule, and the replay checks that
// schedule against the instance. The unaltered schedule reproduces the
// miss's batches; a schedule with one delimiter, one bucket-count entry,
// one Step 7 Algorithm 3 count row or one Step 6 S5 row altered fails the
// run with an error and no node returns a batch.
func TestSortScheduleRejectsMismatch(t *testing.T) {
	t.Parallel()
	for _, n := range []int{64, 90} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			keys := core.BuildKeys(n, n, "uniform", int64(n)*7)
			fp, ok := core.SortFingerprint(n, keys)
			if !ok {
				t.Fatal("canonical instance reported not cacheable")
			}
			plan := core.PlanSort(n, keys)
			if plan.Strategy != core.SortStrategyPipeline || plan.Capture == nil {
				t.Fatalf("uniform full load planned as %v (capture %v), want a pipeline verdict with a capture", plan.Strategy, plan.Capture != nil)
			}
			plan.Census, plan.CensusHasFP, plan.CensusFP = true, true, fp.Hash
			golden, shared, err := autoSortRun(t, keys, plan, clique.SharedSnapshot{})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Sorting(keys, golden); err != nil {
				t.Fatal(err)
			}

			pc := core.NewPlanCache(1)
			pc.StoreSort(fp, n, keys, plan, shared)
			_, hit, _ := pc.LookupSort(n, keys)
			if hit == nil || hit.Plan.Sched == nil {
				t.Fatal("the miss stored no Algorithm 4 schedule")
			}
			replay := func(ss *core.SortSchedule) ([]*core.SortResult, clique.SharedSnapshot, error) {
				p := hit.Plan
				p.Census, p.CensusHasFP, p.CensusFP = true, true, fp.Hash
				p.Sched = ss
				return autoSortRun(t, keys, p, hit.Shared)
			}

			got, replayShared, err := replay(hit.Plan.Sched)
			if err != nil {
				t.Fatalf("unaltered replay: %v", err)
			}
			if !reflect.DeepEqual(got, golden) {
				t.Fatal("unaltered replay returned different batches than the miss")
			}
			// The replay keeps the miss's instance labels, so the seed serves
			// every shared computation it makes: none is new.
			if replayShared.Len() == 0 || replayShared.Len() != shared.Len() {
				t.Errorf("replay holds %d shared computations, the seed %d: the replay computed ones the miss did not", replayShared.Len(), shared.Len())
			}

			last := len(hit.Plan.Sched.Delims)
			cases := []struct {
				name  string
				alter func(ss *core.SortSchedule)
			}{
				{"delimiter", func(ss *core.SortSchedule) { ss.Delims[0] = core.Key{Value: -1 << 62} }},
				{"bucket count", func(ss *core.SortSchedule) { ss.Counts[n/2][last]++ }},
				{"Step 7 count row", func(ss *core.SortSchedule) {
					row := ss.S7Counts[1][2]
					row[0], row[1] = row[0]+1, row[1]-1
				}},
			}
			if hit.Plan.Sched.Route != nil {
				cases = append(cases, struct {
					name  string
					alter func(ss *core.SortSchedule)
				}{"S5 row", func(ss *core.SortSchedule) {
					row := ss.Route.S5Counts[1][2]
					row[0], row[1] = row[0]+1, row[1]-1
				}})
			} else if n == 64 {
				t.Fatal("square n captured no Step 6 schedule")
			}
			for _, tc := range cases {
				ss := cloneSortSchedule(hit.Plan.Sched)
				tc.alter(ss)
				if !core.SealSortSchedule(ss) {
					t.Fatalf("%s: altered schedule does not seal", tc.name)
				}
				res, _, err := replay(ss)
				if err == nil {
					t.Errorf("%s: altered schedule replayed without an error", tc.name)
				}
				for i, r := range res {
					if r != nil {
						t.Errorf("%s: node %d returned a batch from an altered schedule", tc.name, i)
						break
					}
				}
			}
		})
	}
}

package congestedclique

// Golden tests pinning the model accounting of the deterministic protocols.
// The golden values were captured from the per-parcel implementation that
// predates the flat-frame protocol layer: batching logical messages into
// frames must never change Rounds, MaxEdgeWords, MaxEdgeMessages or the
// traffic totals, because those are the quantities the paper's bounds are
// stated in. If an optimisation changes any number below, it changed the
// algorithm, not just its encoding.

import (
	"context"
	"fmt"
	"testing"
)

type statsGolden struct {
	n           int
	routeRounds int
	routeMEW    int // MaxEdgeWords
	routeMEM    int // MaxEdgeMessages
	routeMsgs   int64
	routeWords  int64
	sortRounds  int
	sortMEW     int
	sortMsgs    int64
	sortWords   int64
	lcRounds    int // LowCompute routing rounds (Theorem 5.4)
	lcMEW       int
}

// statsGoldens: deterministic full-load workloads (benchRouteWorkload and
// benchSortWorkload) measured on the pre-frame implementation. The
// non-square lcRounds/lcMEW (n=90, 200) were re-measured when Theorem 5.4
// gained the V1/V2/corner decomposition instead of falling back to
// Theorem 3.7 (16/14 → 12/14 and 12/21).
var statsGoldens = []statsGolden{
	{n: 4, routeRounds: 4, routeMEW: 16, routeMEM: 4, routeMsgs: 160, routeWords: 704, sortRounds: 10, sortMEW: 18, sortMsgs: 336, sortWords: 1494, lcRounds: 4, lcMEW: 16},
	{n: 16, routeRounds: 16, routeMEW: 6, routeMEM: 1, routeMsgs: 3904, routeWords: 18560, sortRounds: 37, sortMEW: 18, sortMsgs: 6422, sortWords: 38925, lcRounds: 12, lcMEW: 6},
	{n: 25, routeRounds: 16, routeMEW: 6, routeMEM: 1, routeMsgs: 9500, routeWords: 45250, sortRounds: 37, sortMEW: 24, sortMsgs: 15375, sortWords: 93804, lcRounds: 12, lcMEW: 6},
	{n: 64, routeRounds: 16, routeMEW: 6, routeMEM: 1, routeMsgs: 61952, routeWords: 295936, sortRounds: 37, sortMEW: 32, sortMsgs: 97501, sortWords: 601804, lcRounds: 12, lcMEW: 6},
	{n: 90, routeRounds: 16, routeMEW: 14, routeMEM: 2, routeMsgs: 160380, routeWords: 884844, sortRounds: 37, sortMEW: 32, sortMsgs: 224799, sortWords: 1491182, lcRounds: 12, lcMEW: 14},
	{n: 144, routeRounds: 16, routeMEW: 6, routeMEM: 1, routeMsgs: 312768, routeWords: 1496448, sortRounds: 37, sortMEW: 40, sortMsgs: 487214, sortWords: 3025743, lcRounds: 12, lcMEW: 6},
	{n: 200, routeRounds: 16, routeMEW: 14, routeMEM: 2, routeMsgs: 863440, routeWords: 4712304, sortRounds: 37, sortMEW: 40, sortMsgs: 1197845, sortWords: 7893109, lcRounds: 12, lcMEW: 21},
	{n: 256, routeRounds: 16, routeMEW: 6, routeMEM: 1, routeMsgs: 987136, routeWords: 4726784, sortRounds: 37, sortMEW: 44, sortMsgs: 1531185, sortWords: 9538402, lcRounds: 12, lcMEW: 6},
}

func TestRouteStatsInvariants(t *testing.T) {
	for _, g := range statsGoldens {
		g := g
		t.Run(fmt.Sprintf("n=%d", g.n), func(t *testing.T) {
			t.Parallel()
			res, err := Route(g.n, benchRouteWorkload(g.n))
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			if s.Rounds != g.routeRounds {
				t.Errorf("Rounds = %d, golden %d", s.Rounds, g.routeRounds)
			}
			if s.MaxEdgeWords != g.routeMEW {
				t.Errorf("MaxEdgeWords = %d, golden %d", s.MaxEdgeWords, g.routeMEW)
			}
			if s.MaxEdgeMessages != g.routeMEM {
				t.Errorf("MaxEdgeMessages = %d, golden %d", s.MaxEdgeMessages, g.routeMEM)
			}
			if s.TotalMessages != g.routeMsgs {
				t.Errorf("TotalMessages = %d, golden %d", s.TotalMessages, g.routeMsgs)
			}
			if s.TotalWords != g.routeWords {
				t.Errorf("TotalWords = %d, golden %d", s.TotalWords, g.routeWords)
			}
		})
	}
}

func TestSortStatsInvariants(t *testing.T) {
	for _, g := range statsGoldens {
		g := g
		t.Run(fmt.Sprintf("n=%d", g.n), func(t *testing.T) {
			t.Parallel()
			res, err := Sort(g.n, benchSortWorkload(g.n))
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			if s.Rounds != g.sortRounds {
				t.Errorf("Rounds = %d, golden %d", s.Rounds, g.sortRounds)
			}
			if s.MaxEdgeWords != g.sortMEW {
				t.Errorf("MaxEdgeWords = %d, golden %d", s.MaxEdgeWords, g.sortMEW)
			}
			if s.TotalMessages != g.sortMsgs {
				t.Errorf("TotalMessages = %d, golden %d", s.TotalMessages, g.sortMsgs)
			}
			if s.TotalWords != g.sortWords {
				t.Errorf("TotalWords = %d, golden %d", s.TotalWords, g.sortWords)
			}
		})
	}
}

// TestSessionStatsInvariants runs the same golden workloads through one
// reused session handle per size — Route, Sort and LowCompute Route back to
// back, twice — and holds every run to the identical golden numbers. This is
// the bit-for-bit guarantee that engine reuse (arena retention, per-run
// cache scoping, metric resets) is observationally equivalent to a fresh
// network per call.
func TestSessionStatsInvariants(t *testing.T) {
	ctx := context.Background()
	for _, g := range statsGoldens {
		g := g
		t.Run(fmt.Sprintf("n=%d", g.n), func(t *testing.T) {
			t.Parallel()
			cl, err := New(g.n)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			routeMsgs := benchRouteWorkload(g.n)
			sortValues := benchSortWorkload(g.n)
			for pass := 0; pass < 2; pass++ {
				res, err := cl.Route(ctx, routeMsgs)
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				s := res.Stats
				if s.Rounds != g.routeRounds || s.MaxEdgeWords != g.routeMEW || s.MaxEdgeMessages != g.routeMEM ||
					s.TotalMessages != g.routeMsgs || s.TotalWords != g.routeWords {
					t.Errorf("pass %d: session Route stats %+v diverge from goldens %+v", pass, s, g)
				}
				sorted, err := cl.Sort(ctx, sortValues)
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				ss := sorted.Stats
				if ss.Rounds != g.sortRounds || ss.MaxEdgeWords != g.sortMEW ||
					ss.TotalMessages != g.sortMsgs || ss.TotalWords != g.sortWords {
					t.Errorf("pass %d: session Sort stats %+v diverge from goldens %+v", pass, ss, g)
				}
				lc, err := cl.Route(ctx, routeMsgs, WithAlgorithm(LowCompute))
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if lc.Stats.Rounds != g.lcRounds || lc.Stats.MaxEdgeWords != g.lcMEW {
					t.Errorf("pass %d: session LowCompute stats %+v diverge from goldens %+v", pass, lc.Stats, g)
				}
			}
		})
	}
}

func TestLowComputeStatsInvariants(t *testing.T) {
	for _, g := range statsGoldens {
		g := g
		t.Run(fmt.Sprintf("n=%d", g.n), func(t *testing.T) {
			t.Parallel()
			res, err := Route(g.n, benchRouteWorkload(g.n), WithAlgorithm(LowCompute))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Rounds != g.lcRounds {
				t.Errorf("Rounds = %d, golden %d", res.Stats.Rounds, g.lcRounds)
			}
			if res.Stats.MaxEdgeWords != g.lcMEW {
				t.Errorf("MaxEdgeWords = %d, golden %d", res.Stats.MaxEdgeWords, g.lcMEW)
			}
		})
	}
}

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

	"congestedclique/internal/core"
	"congestedclique/internal/verify"
	"congestedclique/internal/workload"
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
	lcMsgs      int64
	lcWords     int64
	// LowCompute sorting: Algorithm 4 with Theorem 5.4 as Step 6's router,
	// also AlgorithmAuto's sorting pipeline arm.
	lcSortRounds int
	lcSortMEW    int
	lcSortMsgs   int64
	lcSortWords  int64
}

// statsGoldens: deterministic full-load workloads (benchRouteWorkload and
// benchSortWorkload) measured on the pre-frame implementation. The
// non-square lcRounds/lcMEW (n=90, 200) were re-measured when Theorem 5.4
// gained the V1/V2/corner decomposition instead of falling back to
// Theorem 3.7 (16/14 → 12/14 and 12/21). The lcSort* columns were measured
// when LowCompute and AlgorithmAuto sorting moved Step 6 to Theorem 5.4
// (n=4 sorts with one Algorithm 3 call and keeps the sort* numbers). The
// lc* and lcSort* rounds and traffic were re-measured when Theorem 5.4
// stopped aggregating the set totals its proportional rule never reads
// (12 → 10 and 33 → 31 rounds from n=16 on, every MEW unchanged); n=4 is
// a single Corollary 3.4 group and keeps the route* numbers.
var statsGoldens = []statsGolden{
	{n: 4, routeRounds: 4, routeMEW: 16, routeMEM: 4, routeMsgs: 160, routeWords: 704, sortRounds: 10, sortMEW: 18, sortMsgs: 336, sortWords: 1494,
		lcRounds: 4, lcMEW: 16, lcMsgs: 160, lcWords: 704, lcSortRounds: 10, lcSortMEW: 18, lcSortMsgs: 336, lcSortWords: 1494},
	{n: 16, routeRounds: 16, routeMEW: 6, routeMEM: 1, routeMsgs: 3904, routeWords: 18560, sortRounds: 37, sortMEW: 18, sortMsgs: 6422, sortWords: 38925,
		lcRounds: 10, lcMEW: 6, lcMsgs: 2560, lcWords: 12800, lcSortRounds: 31, lcSortMEW: 24, lcSortMsgs: 5078, lcSortWords: 32009},
	{n: 25, routeRounds: 16, routeMEW: 6, routeMEM: 1, routeMsgs: 9500, routeWords: 45250, sortRounds: 37, sortMEW: 24, sortMsgs: 15375, sortWords: 93804,
		lcRounds: 10, lcMEW: 6, lcMsgs: 6250, lcWords: 31250, lcSortRounds: 31, lcSortMEW: 24, lcSortMsgs: 12125, lcSortWords: 76982},
	{n: 64, routeRounds: 16, routeMEW: 6, routeMEM: 1, routeMsgs: 61952, routeWords: 295936, sortRounds: 37, sortMEW: 32, sortMsgs: 97501, sortWords: 601804,
		lcRounds: 10, lcMEW: 6, lcMsgs: 40960, lcWords: 204800, lcSortRounds: 31, lcSortMEW: 32, lcSortMsgs: 76509, lcSortWords: 492216},
	{n: 90, routeRounds: 16, routeMEW: 14, routeMEM: 2, routeMsgs: 160380, routeWords: 884844, sortRounds: 37, sortMEW: 32, sortMsgs: 224799, sortWords: 1491182,
		lcRounds: 10, lcMEW: 14, lcMsgs: 93312, lcWords: 546912, lcSortRounds: 31, lcSortMEW: 36, lcSortMsgs: 157731, lcSortWords: 1091242},
	{n: 144, routeRounds: 16, routeMEW: 6, routeMEM: 1, routeMsgs: 312768, routeWords: 1496448, sortRounds: 37, sortMEW: 40, sortMsgs: 487214, sortWords: 3025743,
		lcRounds: 10, lcMEW: 6, lcMsgs: 207360, lcWords: 1036800, lcSortRounds: 31, lcSortMEW: 40, lcSortMsgs: 381806, lcSortWords: 2471451},
	{n: 200, routeRounds: 16, routeMEW: 14, routeMEM: 2, routeMsgs: 863440, routeWords: 4712304, sortRounds: 37, sortMEW: 40, sortMsgs: 1197845, sortWords: 7893109,
		lcRounds: 10, lcMEW: 21, lcMsgs: 473792, lcWords: 2768832, lcSortRounds: 31, lcSortMEW: 49, lcSortMsgs: 808197, lcSortWords: 5577849},
	{n: 256, routeRounds: 16, routeMEW: 6, routeMEM: 1, routeMsgs: 987136, routeWords: 4726784, sortRounds: 37, sortMEW: 44, sortMsgs: 1531185, sortWords: 9538402,
		lcRounds: 10, lcMEW: 6, lcMsgs: 655360, lcWords: 3276800, lcSortRounds: 31, lcSortMEW: 44, lcSortMsgs: 1199409, lcSortWords: 7786574},
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
				if lc.Stats.Rounds != g.lcRounds || lc.Stats.MaxEdgeWords != g.lcMEW ||
					lc.Stats.TotalMessages != g.lcMsgs || lc.Stats.TotalWords != g.lcWords {
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
			if res.Stats.TotalMessages != g.lcMsgs || res.Stats.TotalWords != g.lcWords {
				t.Errorf("traffic = %d messages / %d words, golden %d / %d",
					res.Stats.TotalMessages, res.Stats.TotalWords, g.lcMsgs, g.lcWords)
			}
		})
	}
}

// TestLowComputeSortStatsInvariants pins the Theorem 5.4 sorter at the
// public API: LowCompute and AlgorithmAuto (whose planner sends these
// uniform full loads to its pipeline arm) both match the lcSort* goldens,
// 31 rounds from n=16 on, within a strict 64-words-per-edge budget, and
// their batches are Deterministic's.
func TestLowComputeSortStatsInvariants(t *testing.T) {
	for _, g := range statsGoldens {
		g := g
		t.Run(fmt.Sprintf("n=%d", g.n), func(t *testing.T) {
			t.Parallel()
			values := benchSortWorkload(g.n)
			det, err := Sort(g.n, values)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range []Algorithm{LowCompute, AlgorithmAuto} {
				res, err := Sort(g.n, values, WithAlgorithm(alg), WithStrictBandwidth(64))
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				if alg == AlgorithmAuto && res.Strategy != SortStrategyPipeline {
					t.Fatalf("auto: strategy %v, want pipeline", res.Strategy)
				}
				s := res.Stats
				if s.Rounds != g.lcSortRounds || s.MaxEdgeWords != g.lcSortMEW ||
					s.TotalMessages != g.lcSortMsgs || s.TotalWords != g.lcSortWords {
					t.Errorf("%v: stats %+v diverge from goldens (%d rounds, %d max edge words, %d messages, %d words)",
						alg, s, g.lcSortRounds, g.lcSortMEW, g.lcSortMsgs, g.lcSortWords)
				}
				sortBatchesEqual(t, alg.String(), res, det)
			}
		})
	}
}

// costGolden is one operation's Rounds, MaxEdgeWords and TotalWords.
type costGolden struct {
	rounds int
	mew    int
	words  int64
}

// corollaryGolden pins Rank, Median and Mode under one algorithm on one
// cliquesim instance (workload.NewSortingInstance: n keys per node, seed 1).
type corollaryGolden struct {
	n                  int
	dist               workload.KeyDistribution
	alg                Algorithm
	rank, median, mode costGolden
}

// corollaryGoldens: every corollary is its algorithm's Sort plus an
// epilogue — one broadcast round, and for Rank a route back through the
// algorithm's Step 6 router (Theorem 3.7 under Deterministic, Theorem 5.4
// under LowCompute and AlgorithmAuto). The Deterministic rows were measured
// while every algorithm still ran the deterministic corollaries, and have not
// moved since: 37 + 1 + 16 and 37 + 1. LowCompute and the Auto pipeline arm
// take 31 + 1 + 10 and 31 + 1; Auto's presorted arm 2 + 1 + 10 and 2 + 1.
var corollaryGoldens = []corollaryGolden{
	{90, workload.KeysUniform, Deterministic, costGolden{54, 32, 2407891}, costGolden{38, 32, 1491141}, costGolden{38, 32, 1563771}},
	{90, workload.KeysUniform, LowCompute, costGolden{42, 36, 1670063}, costGolden{32, 36, 1091213}, costGolden{32, 36, 1163843}},
	{90, workload.KeysUniform, AlgorithmAuto, costGolden{42, 36, 1670063}, costGolden{32, 36, 1091213}, costGolden{32, 36, 1163843}},
	{90, workload.KeysPreSorted, Deterministic, costGolden{54, 26, 2270262}, costGolden{38, 26, 1348752}, costGolden{38, 26, 1421382}},
	{90, workload.KeysPreSorted, LowCompute, costGolden{42, 26, 1542234}, costGolden{32, 26, 959304}, costGolden{32, 26, 1031934}},
	{90, workload.KeysPreSorted, AlgorithmAuto, costGolden{13, 18, 652050}, costGolden{3, 9, 69120}, costGolden{3, 9, 141750}},
	{256, workload.KeysUniform, Deterministic, costGolden{54, 48, 14536028}, costGolden{38, 48, 9547868}, costGolden{38, 48, 10136924}},
	{256, workload.KeysUniform, LowCompute, costGolden{42, 48, 11333476}, costGolden{32, 48, 7795300}, costGolden{32, 48, 8384356}},
	{256, workload.KeysUniform, AlgorithmAuto, costGolden{42, 48, 11333476}, costGolden{32, 48, 7795300}, costGolden{32, 48, 8384356}},
	{256, workload.KeysPreSorted, Deterministic, costGolden{54, 18, 13363260}, costGolden{38, 18, 8375100}, costGolden{38, 18, 8964156}},
	{256, workload.KeysPreSorted, LowCompute, costGolden{42, 24, 10262588}, costGolden{32, 24, 6724412}, costGolden{32, 24, 7313468}},
	{256, workload.KeysPreSorted, AlgorithmAuto, costGolden{13, 9, 4096000}, costGolden{3, 9, 557824}, costGolden{3, 9, 1146880}},
}

// TestCorollaryStatsInvariants holds Rank, Median and Mode to their goldens
// under every algorithm and checks every output against internal/verify.
func TestCorollaryStatsInvariants(t *testing.T) {
	ctx := context.Background()
	for _, g := range corollaryGoldens {
		g := g
		t.Run(fmt.Sprintf("n=%d/%s/%v", g.n, g.dist, g.alg), func(t *testing.T) {
			t.Parallel()
			inst, err := workload.NewSortingInstance(g.n, g.n, g.dist, 1)
			if err != nil {
				t.Fatal(err)
			}
			values := keyValues(inst.Keys)
			cl, err := New(g.n, WithAlgorithm(g.alg))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			check := func(op string, s Stats, want costGolden) {
				t.Helper()
				if s.Rounds != want.rounds || s.MaxEdgeWords != want.mew || s.TotalWords != want.words {
					t.Errorf("%s: %d rounds / %d max edge words / %d words, golden %d / %d / %d",
						op, s.Rounds, s.MaxEdgeWords, s.TotalWords, want.rounds, want.mew, want.words)
				}
			}

			rank, err := cl.Rank(ctx, values)
			if err != nil {
				t.Fatal(err)
			}
			check("Rank", rank.Stats, g.rank)
			if err := verify.Ranks(inst.Keys, rankResults(rank)); err != nil {
				t.Error(err)
			}

			median, s, err := cl.Median(ctx, values)
			if err != nil {
				t.Fatal(err)
			}
			check("Median", s, g.median)
			if err := verify.Select(inst.Keys, (inst.TotalKeys()-1)/2, median); err != nil {
				t.Error(err)
			}

			mode, err := cl.Mode(ctx, values)
			if err != nil {
				t.Fatal(err)
			}
			check("Mode", mode.Stats, g.mode)
			if err := verify.Mode(inst.Keys, mode.Value, mode.Count); err != nil {
				t.Error(err)
			}
		})
	}
}

// keyValues is the plain-value form of a sorting instance's keys.
func keyValues(keys [][]Key) [][]int64 {
	values := make([][]int64, len(keys))
	for i, ks := range keys {
		for _, k := range ks {
			values[i] = append(values[i], k.Value)
		}
	}
	return values
}

// rankResults is a Rank result in the per-node form internal/verify checks.
func rankResults(rank *RankResult) []*core.RankResult {
	ranks := make([]*core.RankResult, len(rank.Ranks))
	for i, rs := range rank.Ranks {
		ranks[i] = &core.RankResult{Ranks: make(map[int]int, len(rs)), DistinctTotal: rank.DistinctTotal}
		for j, r := range rs {
			ranks[i].Ranks[j] = r
		}
	}
	return ranks
}

// corollaryOp is one sorting-based corollary on one instance: run calls it
// on a handle and checks its output against internal/verify.
type corollaryOp struct {
	name string
	run  func(*Clique) (Stats, error)
}

// corollaryOps lists Rank, SelectKth (rank total/3), Median and Mode on keys.
func corollaryOps(ctx context.Context, keys [][]Key) []corollaryOp {
	values := keyValues(keys)
	total := 0
	for _, ks := range keys {
		total += len(ks)
	}
	selectOp := func(k int, sel func(*Clique) (Key, Stats, error)) func(*Clique) (Stats, error) {
		return func(cl *Clique) (Stats, error) {
			key, s, err := sel(cl)
			if err != nil {
				return s, err
			}
			return s, verify.Select(keys, k, key)
		}
	}
	return []corollaryOp{
		{"Rank", func(cl *Clique) (Stats, error) {
			r, err := cl.Rank(ctx, values)
			if err != nil {
				return Stats{}, err
			}
			return r.Stats, verify.Ranks(keys, rankResults(r))
		}},
		{"SelectKth", selectOp(total/3, func(cl *Clique) (Key, Stats, error) { return cl.SelectKth(ctx, values, total/3) })},
		{"Median", selectOp((total-1)/2, func(cl *Clique) (Key, Stats, error) { return cl.Median(ctx, values) })},
		{"Mode", func(cl *Clique) (Stats, error) {
			m, err := cl.Mode(ctx, values)
			if err != nil {
				return Stats{}, err
			}
			return m.Stats, verify.Mode(keys, m.Value, m.Count)
		}},
	}
}

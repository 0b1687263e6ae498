package main

// The tables subcommand (the default): E1-E8, one table per claim of the
// paper, each the verified protocol's measured rounds, per-edge bandwidth
// and (where applicable) local computation next to the claimed bound. The
// default sizes finish in well under a minute; -max-n raises the largest
// clique size.

import (
	"flag"
	"fmt"

	"congestedclique/internal/experiments"
	"congestedclique/internal/tables"
	"congestedclique/internal/workload"
)

func tablesCmd(fs *flag.FlagSet) func([]string) error {
	maxN := fs.Int("max-n", 256, "largest clique size to measure")
	seed := fs.Int64("seed", 1, "workload seed")
	return func([]string) error {
		var squares, others []int
		for _, n := range []int{16, 25, 49, 64, 100, 144, 196, 256, 324, 400, 529, 625, 784, 1024} {
			if n <= *maxN {
				squares = append(squares, n)
			}
		}
		for _, n := range []int{12, 20, 40, 90, 150, 200, 300, 500} {
			if n <= *maxN {
				others = append(others, n)
			}
		}
		for i, e := range []func() error{
			func() error { return e1Routing(squares, others, *seed) },
			func() error { return e2Sorting(squares, others, *seed) },
			func() error { return e3LowCompute(squares, *seed) },
			func() error { return e4RankSelectMode(squares, *seed) },
			func() error { return e5Comparison(squares, *seed) },
			func() error { return e6SmallKeys(squares, *seed) },
			func() error { return e7Bandwidth(squares, *seed) },
			func() error { return e8Coloring(*seed) },
		} {
			if err := e(); err != nil {
				return fmt.Errorf("E%d: %w", i+1, err)
			}
		}
		return nil
	}
}

func pick(ns []int, count int) []int {
	if len(ns) <= count {
		return ns
	}
	out := make([]int, 0, count)
	step := float64(len(ns)-1) / float64(count-1)
	for i := 0; i < count; i++ {
		out = append(out, ns[int(float64(i)*step+0.5)])
	}
	return out
}

func e1Routing(squares, others []int, seed int64) error {
	t := tables.New("E1 — Theorem 3.7: deterministic routing (claim: <= 16 rounds, O(log n) bits per edge per round)",
		"n", "workload", "rounds", "claim", "max words/edge/round", "max packets/edge/round")
	patterns := []workload.RoutingPattern{workload.RoutingUniform, workload.RoutingSkewed, workload.RoutingSetAdversarial}
	for _, n := range squares {
		for _, p := range patterns {
			m, err := experiments.MeasureRouting(n, n, p, "deterministic", seed)
			if err != nil {
				return err
			}
			t.AddRow(n, string(p), m.Rounds, "<= 16", m.MaxEdgeWords, m.MaxEdgeMessages)
		}
	}
	for _, n := range pick(others, 4) {
		m, err := experiments.MeasureRouting(n, n, workload.RoutingUniform, "deterministic", seed)
		if err != nil {
			return err
		}
		t.AddRow(n, "uniform (non-square n)", m.Rounds, "<= 16", m.MaxEdgeWords, m.MaxEdgeMessages)
	}
	emit(t)
	return nil
}

func e2Sorting(squares, others []int, seed int64) error {
	t := tables.New("E2 — Theorem 4.5: deterministic sorting (claim: <= 37 rounds)",
		"n", "keys", "distribution", "rounds", "claim", "max words/edge/round")
	dists := []workload.KeyDistribution{workload.KeysUniform, workload.KeysDuplicateHeavy, workload.KeysPreSorted}
	for _, n := range squares {
		for _, d := range dists {
			m, err := experiments.MeasureSorting(n, n, d, "deterministic", seed)
			if err != nil {
				return err
			}
			t.AddRow(n, n*n, string(d), m.Rounds, "<= 37", m.MaxEdgeWords)
		}
	}
	for _, n := range pick(others, 3) {
		m, err := experiments.MeasureSorting(n, n, workload.KeysUniform, "deterministic", seed)
		if err != nil {
			return err
		}
		t.AddRow(n, n*n, "uniform (non-square n)", m.Rounds, "<= 37", m.MaxEdgeWords)
	}
	emit(t)
	return nil
}

func e3LowCompute(squares []int, seed int64) error {
	t := tables.New("E3 — Theorem 5.4: low-computation routing (claim: <= 12 rounds, the schedule takes 10; O(n log n) steps and memory per node)",
		"n", "rounds", "schedule (claim)", "steps/node", "steps/(n)", "memory words/node", "max words/edge/round")
	for _, n := range squares {
		m, err := experiments.MeasureRouting(n, n, workload.RoutingUniform, "low-compute", seed)
		if err != nil {
			return err
		}
		ratio := "-"
		if n > 0 && m.StepsPerNode > 0 {
			ratio = fmt.Sprintf("%.1f", float64(m.StepsPerNode)/float64(n))
		}
		t.AddRow(n, m.Rounds, "10 (<= 12)", m.StepsPerNode, ratio, m.MemoryPerNode, m.MaxEdgeWords)
	}
	emit(t)
	return nil
}

func e4RankSelectMode(squares []int, seed int64) error {
	t := tables.New("E4 — Corollary 4.6: rank-in-union, selection and mode (claim: O(1) rounds)",
		"n", "operation", "distribution", "rounds", "claim")
	ns := pick(squares, 4)
	for _, n := range ns {
		for _, d := range []workload.KeyDistribution{workload.KeysDuplicateHeavy, workload.KeysUniform} {
			m, err := experiments.MeasureRank(n, n, d, seed)
			if err != nil {
				return err
			}
			t.AddRow(n, "rank-in-union", string(d), m.Rounds, "O(1) (37+1+16)")
		}
		sel, err := experiments.MeasureSelect(n, n, workload.KeysUniform, seed)
		if err != nil {
			return err
		}
		t.AddRow(n, "selection (median)", "uniform", sel.Rounds, "O(1) (37+1)")
		mod, err := experiments.MeasureMode(n, n, workload.KeysDuplicateHeavy, seed)
		if err != nil {
			return err
		}
		t.AddRow(n, "mode", "duplicate-heavy", mod.Rounds, "O(1) (37+1)")
	}
	emit(t)
	return nil
}

func e5Comparison(squares []int, seed int64) error {
	t := tables.New("E5 — deterministic vs randomized vs naive (introduction: randomized prior work is ~2x faster; naive direct delivery degenerates)",
		"n", "workload", "algorithm", "rounds", "max words/edge/round")
	ns := pick(squares, 3)
	for _, n := range ns {
		for _, p := range []workload.RoutingPattern{workload.RoutingUniform, workload.RoutingSkewed} {
			for _, alg := range []string{"deterministic", "low-compute", "randomized", "naive-direct"} {
				m, err := experiments.MeasureRouting(n, n, p, alg, seed)
				if err != nil {
					return err
				}
				t.AddRow(n, string(p), alg, m.Rounds, m.MaxEdgeWords)
			}
		}
	}
	emit(t)

	ts := tables.New("E5b — deterministic vs randomized sorting",
		"n", "keys", "algorithm", "rounds")
	for _, n := range ns {
		for _, alg := range []string{"deterministic", "randomized"} {
			m, err := experiments.MeasureSorting(n, n, workload.KeysUniform, alg, seed)
			if err != nil {
				return err
			}
			ts.AddRow(n, n*n, alg, m.Rounds)
		}
	}
	emit(ts)
	return nil
}

func e6SmallKeys(squares []int, seed int64) error {
	t := tables.New("E6 — Section 6.3: counting keys of o(log n) bits (claim: 2 rounds, 1-2 bit messages)",
		"n", "domain K", "keys", "rounds", "claim", "max words/edge/round")
	for _, n := range squares {
		if n < 64 {
			continue
		}
		bits := 1
		for (1 << bits) <= n {
			bits++
		}
		domain := n / (bits * bits)
		if domain < 1 {
			continue
		}
		if domain > 8 {
			domain = 8
		}
		m, err := experiments.MeasureSmallKeys(n, n, domain, seed)
		if err != nil {
			return err
		}
		t.AddRow(n, domain, n*n, m.Rounds, "2", m.MaxEdgeWords)
	}
	emit(t)
	return nil
}

func e7Bandwidth(squares []int, seed int64) error {
	t := tables.New("E7 — model compliance: maximum per-edge load per round stays a constant number of O(log n)-bit words for every algorithm",
		"algorithm", "n", "rounds", "max words/edge/round", "max packets/edge/round")
	ns := pick(squares, 3)
	for _, n := range ns {
		for _, alg := range []string{"deterministic", "low-compute"} {
			m, err := experiments.MeasureRouting(n, n, workload.RoutingSetAdversarial, alg, seed)
			if err != nil {
				return err
			}
			t.AddRow("routing/"+alg, n, m.Rounds, m.MaxEdgeWords, m.MaxEdgeMessages)
		}
		m, err := experiments.MeasureSorting(n, n, workload.KeysDuplicateHeavy, "deterministic", seed)
		if err != nil {
			return err
		}
		t.AddRow("sorting/deterministic", n, m.Rounds, m.MaxEdgeWords, m.MaxEdgeMessages)
	}
	emit(t)
	return nil
}

func e8Coloring(seed int64) error {
	t := tables.New("E8 — ablation (footnote 3 / Section 5): exact König coloring vs greedy 2Δ-1 coloring of the routing schedules",
		"matrix", "degree", "method", "colors", "time")
	cases := []struct{ size, degree int }{{16, 256}, {32, 1024}, {32, 4096}}
	for _, c := range cases {
		for _, method := range []string{"exact", "greedy", "exact-expanded"} {
			m, err := experiments.MeasureColoring(c.size, c.degree, method, seed)
			if err != nil {
				return err
			}
			t.AddRow(fmt.Sprintf("%dx%d", c.size, c.size), c.degree, method, m.Colors, m.Duration.Round(1000).String())
		}
	}
	emit(t)

	t2 := tables.New("E8b — end-to-end effect: 16-round exact-coloring router vs 10-round Section 5 router (Theorem 5.4 bounds 12)",
		"n", "algorithm", "rounds", "max words/edge/round")
	for _, n := range []int{64, 256} {
		for _, alg := range []string{"deterministic", "low-compute"} {
			m, err := experiments.MeasureRouting(n, n, workload.RoutingUniform, alg, seed)
			if err != nil {
				return err
			}
			t2.AddRow(n, alg, m.Rounds, m.MaxEdgeWords)
		}
	}
	emit(t2)
	return nil
}

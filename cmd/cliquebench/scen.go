package main

// The scen subcommand: the routing and sorting scenario catalogs through the
// demand-aware planners (AlgorithmAuto). Per scenario it reports the chosen
// strategy and its cost — rounds, per-edge words, total words, allocations
// and wall time — next to the word cost of the full deterministic pipeline
// on the identical instance and, for routing scenarios, of the randomized
// Valiant-style two-hop baseline. Every planned delivery (or sorted batch)
// is verified element by element against the pipeline's before its numbers
// are reported.

import (
	"context"
	"flag"
	"fmt"

	cc "congestedclique"

	"congestedclique/internal/core"
	"congestedclique/internal/experiments"
	"congestedclique/internal/tables"
	"congestedclique/internal/workload"
)

func scenCmd(fs *flag.FlagSet) func([]string) error {
	n := fs.Int("n", 256, "number of clique nodes")
	seed := fs.Int64("seed", 1, "workload seed")
	names := scenarioFlag(fs)
	iters := fs.Int("iters", 1, "measured iterations per scenario (each after an untimed one)")
	return func([]string) error {
		section, err := runScenarios(*n, *seed, *names, *iters)
		if err != nil {
			return err
		}
		emit(scenarioTable(section))
		return nil
	}
}

// scenEntry is one entry of the combined routing and sorting catalogs.
type scenEntry struct {
	name, desc string
	route      *workload.Scenario
	sort       *workload.SortScenario
}

// runScenarios measures the selected scenarios of both catalogs, routing
// first, on one shared session handle.
func runScenarios(n int, seed int64, names string, iters int) (*experiments.ScenarioSection, error) {
	if iters < 1 {
		return nil, fmt.Errorf("-iters must be at least 1, got %d", iters)
	}
	var catalog []scenEntry
	for _, sc := range workload.Scenarios() {
		catalog = append(catalog, scenEntry{name: sc.Name, desc: sc.Description, route: &sc})
	}
	for _, sc := range workload.SortScenarios() {
		catalog = append(catalog, scenEntry{name: sc.Name, desc: sc.Description, sort: &sc})
	}
	selected, err := selectNamed(names, catalog, func(e scenEntry) (string, string) { return e.name, e.desc })
	if err != nil {
		return nil, err
	}
	cl, err := cc.New(n)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	section := &experiments.ScenarioSection{N: n, Seed: seed}
	for _, e := range selected {
		var row experiments.ScenarioBench
		if e.route != nil {
			row, err = runScenario(cl, *e.route, n, seed, iters)
		} else {
			row, err = runSortScenario(cl, *e.sort, n, seed, iters)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", e.name, err)
		}
		section.Entries = append(section.Entries, row)
	}
	return section, nil
}

// runScenario measures one scenario on the shared session handle: iters
// measured planner runs, and the deterministic pipeline on the same instance
// for the word comparison and verification.
func runScenario(cl *cc.Clique, sc workload.Scenario, n int, seed int64, iters int) (experiments.ScenarioBench, error) {
	ri, err := sc.Build(n, seed)
	if err != nil {
		return experiments.ScenarioBench{}, err
	}
	ctx := context.Background()
	var auto *cc.RouteResult
	m, err := experiments.MeasureOp(iters, func() error {
		var opErr error
		auto, opErr = cl.Route(ctx, ri.Msgs, cc.WithAlgorithm(cc.AlgorithmAuto))
		return opErr
	})
	if err != nil {
		return experiments.ScenarioBench{}, err
	}

	// Re-derive the plan for its human-readable reason (the public API
	// reports only the chosen strategy) and cross-check the two agree.
	plan := core.PlanRoute(n, ri.Msgs)
	if plan.Strategy != auto.Strategy {
		return experiments.ScenarioBench{}, fmt.Errorf("planner verdict %v disagrees with executed strategy %v", plan.Strategy, auto.Strategy)
	}

	row := experiments.ScenarioBench{
		Scenario:      sc.Name,
		N:             n,
		Strategy:      auto.Strategy.String(),
		Reason:        plan.Reason,
		Rounds:        auto.Stats.Rounds,
		MaxEdgeWords:  auto.Stats.MaxEdgeWords,
		TotalMessages: auto.Stats.TotalMessages,
		TotalWords:    auto.Stats.TotalWords,
		NsPerOp:       m.NsPerOp,
		AllocsPerOp:   m.AllocsPerOp,
	}

	det, err := cl.Route(ctx, ri.Msgs)
	if err != nil {
		return experiments.ScenarioBench{}, err
	}
	if err := sameDelivery(auto, det); err != nil {
		return experiments.ScenarioBench{}, fmt.Errorf("planned delivery diverges from the pipeline: %w", err)
	}
	row.Verified = true
	row.PipelineTotalWords = det.Stats.TotalWords
	// The randomized Valiant-style two-hop baseline on the identical
	// instance: what the planner's deterministic verdict is buying relative
	// to the classic randomized solution.
	_, rnd, err := experiments.RunRoute(n, ri.Msgs, "randomized", seed)
	if err != nil {
		return experiments.ScenarioBench{}, err
	}
	row.RandomizedTotalWords = rnd.TotalWords
	row.RandomizedRounds = rnd.Rounds
	if row.TotalWords > 0 {
		row.WordsVsPipeline = float64(det.Stats.TotalWords) / float64(row.TotalWords)
		row.WordsVsRandomized = float64(rnd.TotalWords) / float64(row.TotalWords)
	}
	return row, nil
}

// runSortScenario is runScenario for the sorting catalog: iters measured
// planner runs, the sorting planner's verdict cross-checked against the
// executed strategy, and the deterministic Algorithm 4 pipeline on the same
// instance for the word comparison and batch-by-batch verification.
func runSortScenario(cl *cc.Clique, sc workload.SortScenario, n int, seed int64, iters int) (experiments.ScenarioBench, error) {
	si, err := sc.Build(n, seed)
	if err != nil {
		return experiments.ScenarioBench{}, err
	}
	values, err := workload.SortScenarioValues(si)
	if err != nil {
		return experiments.ScenarioBench{}, err
	}
	ctx := context.Background()
	var auto *cc.SortResult
	m, err := experiments.MeasureOp(iters, func() error {
		var opErr error
		auto, opErr = cl.Sort(ctx, values, cc.WithAlgorithm(cc.AlgorithmAuto))
		return opErr
	})
	if err != nil {
		return experiments.ScenarioBench{}, err
	}

	// Re-derive the plan for its human-readable reason (the public API
	// reports only the chosen strategy) and cross-check the two agree.
	plan := core.PlanSort(n, si.Keys)
	if plan.Strategy != auto.Strategy {
		return experiments.ScenarioBench{}, fmt.Errorf("planner verdict %v disagrees with executed strategy %v", plan.Strategy, auto.Strategy)
	}

	row := experiments.ScenarioBench{
		Scenario:      sc.Name,
		N:             n,
		Strategy:      auto.Strategy.String(),
		Reason:        plan.Reason,
		Rounds:        auto.Stats.Rounds,
		MaxEdgeWords:  auto.Stats.MaxEdgeWords,
		TotalMessages: auto.Stats.TotalMessages,
		TotalWords:    auto.Stats.TotalWords,
		NsPerOp:       m.NsPerOp,
		AllocsPerOp:   m.AllocsPerOp,
	}

	det, err := cl.Sort(ctx, values)
	if err != nil {
		return experiments.ScenarioBench{}, err
	}
	if err := sameBatches(auto, det); err != nil {
		return experiments.ScenarioBench{}, fmt.Errorf("planned batches diverge from the pipeline: %w", err)
	}
	row.Verified = true
	row.PipelineTotalWords = det.Stats.TotalWords
	if row.TotalWords > 0 {
		row.WordsVsPipeline = float64(det.Stats.TotalWords) / float64(row.TotalWords)
	}
	return row, nil
}

func scenarioTable(section *experiments.ScenarioSection) *tables.Table {
	t := tables.New(
		fmt.Sprintf("Scenario catalog, n=%d seed=%d (planner AlgorithmAuto vs deterministic pipeline and randomized baseline)", section.N, section.Seed),
		"scenario", "strategy", "rounds", "max edge words", "messages", "words", "pipeline words", "words x", "rand words", "rand x", "allocs/op", "ms/op",
	)
	for _, e := range section.Entries {
		ratio := "-"
		if e.WordsVsPipeline > 0 {
			ratio = fmt.Sprintf("%.1fx", e.WordsVsPipeline)
		}
		randWords, randRatio := "-", "-"
		if e.RandomizedRounds > 0 {
			randWords = fmt.Sprintf("%d", e.RandomizedTotalWords)
			if e.WordsVsRandomized > 0 {
				randRatio = fmt.Sprintf("%.1fx", e.WordsVsRandomized)
			}
		}
		t.AddRow(e.Scenario, e.Strategy, e.Rounds, e.MaxEdgeWords, e.TotalMessages, e.TotalWords,
			e.PipelineTotalWords, ratio, randWords, randRatio, e.AllocsPerOp, fmt.Sprintf("%.2f", float64(e.NsPerOp)/1e6))
	}
	return t
}

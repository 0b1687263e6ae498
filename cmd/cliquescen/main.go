// Command cliquescen runs the routing and sorting scenario catalogs through
// the demand-aware planners (AlgorithmAuto) and reports, per scenario, the
// chosen strategy and its cost — rounds, per-edge words, total words,
// allocations and wall time — next to the word cost of the full
// deterministic pipeline on the identical instance, and (for routing
// scenarios) of the randomized Valiant-style two-hop baseline. Every planned
// delivery (or sorted batch) is verified element by element against the
// pipeline's before its numbers are reported.
//
// With -json the results are merged into the scenarios section of
// BENCH_protocol.json (the other sections, owned by cliquebench, are
// preserved); with -out the rendered table is additionally written to a
// file, which CI uploads as an artifact.
//
// With -temporal the tool runs the temporal catalog instead: bursty
// sequences of routing instances executed step by step on one handle with
// the cross-run plan cache armed (WithPlanCache, census charged) next to a
// plain AlgorithmAuto handle, every step deep-compared between the two. The
// recorded speedup is net of all caching overhead; results merge into the
// temporal section of BENCH_protocol.json.
//
// With -chaos the tool runs the chaos catalog instead: every scenario injects
// a deterministic fault plan (node panic, straggler stall, cancellation at a
// barrier turn-over) through the public option set, runs it twice to confirm
// the replay is deterministic, and cross-checks every surviving run bit for
// bit against a fault-free golden on the identical instance.
//
// Examples:
//
//	cliquescen -n 256
//	cliquescen -n 256 -json BENCH_protocol.json
//	cliquescen -n 64 -scenarios sparse,multicast,uniform-full -markdown
//	cliquescen -n 64 -chaos -out chaos_table.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	cc "congestedclique"

	"congestedclique/internal/core"
	"congestedclique/internal/experiments"
	"congestedclique/internal/tables"
	"congestedclique/internal/workload"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n         = flag.Int("n", 256, "number of clique nodes")
		seed      = flag.Int64("seed", 1, "workload seed")
		names     = flag.String("scenarios", "all", "comma-separated scenario names (see -list), or all")
		list      = flag.Bool("list", false, "list the scenario catalog and exit")
		chaos     = flag.Bool("chaos", false, "run the chaos catalog (deterministic fault injection) instead of the bench catalog")
		temporal  = flag.Bool("temporal", false, "run the temporal catalog (cross-run plan cache on bursty instance sequences) instead of the bench catalog")
		cacheCap  = flag.Int("plan-cache", 8, "plan-cache capacity for -temporal runs")
		iters     = flag.Int("iters", 1, "measured iterations per scenario (after one warm-up)")
		jsonPath  = flag.String("json", "", "merge results into the scenarios section of this BENCH_protocol.json")
		outPath   = flag.String("out", "", "also write the rendered table to this file")
		markdown  = flag.Bool("markdown", false, "render the table as markdown")
		noPipe    = flag.Bool("skip-pipeline", false, "skip the deterministic-pipeline comparison run (faster; disables verification and the words_vs_pipeline column)")
		verifyRes = flag.Bool("verify", true, "verify planned deliveries against the deterministic pipeline (needs the comparison run)")
	)
	flag.Parse()
	if *noPipe {
		verifyExplicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "verify" {
				verifyExplicit = true
			}
		})
		if verifyExplicit && *verifyRes {
			return fmt.Errorf("-skip-pipeline and -verify are mutually exclusive: verification needs the pipeline comparison run")
		}
		*verifyRes = false
	}
	if *list {
		if *chaos {
			for _, s := range workload.ChaosScenarios() {
				fmt.Printf("%-24s %s\n", s.Name, s.Description)
			}
			return nil
		}
		if *temporal {
			for _, s := range workload.TemporalScenarios() {
				fmt.Printf("%-20s %s\n", s.Name, s.Description)
			}
			return nil
		}
		for _, s := range workload.Scenarios() {
			fmt.Printf("%-20s %s\n", s.Name, s.Description)
		}
		for _, s := range workload.SortScenarios() {
			fmt.Printf("%-20s %s\n", s.Name, s.Description)
		}
		return nil
	}
	if *temporal {
		return runTemporalCatalog(*n, *seed, *names, *cacheCap, *jsonPath, *outPath, *markdown)
	}
	if *chaos {
		rendered, err := runChaos(*n, *names, *markdown)
		if err != nil {
			return err
		}
		fmt.Println(rendered)
		if *outPath != "" {
			if err := os.WriteFile(*outPath, []byte(rendered+"\n"), 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	if *iters < 1 {
		return fmt.Errorf("-iters must be at least 1, got %d", *iters)
	}
	scenarios, sortScenarios, err := selectScenarios(*names)
	if err != nil {
		return err
	}
	comparePipeline := !*noPipe

	cl, err := cc.New(*n)
	if err != nil {
		return err
	}
	defer cl.Close()

	section := &experiments.ScenarioSection{
		Tool:   "cliquescen",
		Schema: "congestedclique/bench-scenarios/v1",
		N:      *n,
		Seed:   *seed,
	}
	for _, sc := range scenarios {
		row, err := runScenario(cl, sc, *n, *seed, *iters, comparePipeline, *verifyRes)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		section.Entries = append(section.Entries, row)
	}
	for _, sc := range sortScenarios {
		row, err := runSortScenario(cl, sc, *n, *seed, *iters, comparePipeline, *verifyRes)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		section.Entries = append(section.Entries, row)
	}

	rendered := renderTable(section, *markdown)
	fmt.Println(rendered)
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(rendered+"\n"), 0o644); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		doc, err := experiments.ReadProtocolDoc(*jsonPath)
		if err != nil {
			return err
		}
		doc.Scenarios = section
		if doc.Tool == "" {
			doc.Tool = "cliquescen"
			doc.Schema = "congestedclique/bench-protocol/v1"
		}
		if err := experiments.WriteProtocolDoc(*jsonPath, doc); err != nil {
			return err
		}
		fmt.Printf("scenarios section written to %s\n", *jsonPath)
	}
	return nil
}

// selectScenarios resolves the -scenarios flag against both catalogs:
// routing scenarios and sorting scenarios may be mixed freely, and "all"
// runs both catalogs in canonical order.
func selectScenarios(names string) ([]workload.Scenario, []workload.SortScenario, error) {
	if names == "all" || names == "" {
		return workload.Scenarios(), workload.SortScenarios(), nil
	}
	var routes []workload.Scenario
	var sorts []workload.SortScenario
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if sc, ok := workload.ScenarioByName(name); ok {
			routes = append(routes, sc)
			continue
		}
		if sc, ok := workload.SortScenarioByName(name); ok {
			sorts = append(sorts, sc)
			continue
		}
		known := append(workload.ScenarioNames(), workload.SortScenarioNames()...)
		return nil, nil, fmt.Errorf("unknown scenario %q (known: %s)", name, strings.Join(known, ", "))
	}
	return routes, sorts, nil
}

// runScenario measures one scenario on the shared session handle: a warm-up
// pass, iters measured planner runs, and (optionally) the deterministic
// pipeline on the same instance for the word comparison and verification.
func runScenario(cl *cc.Clique, sc workload.Scenario, n int, seed int64, iters int, comparePipeline, verify bool) (experiments.ScenarioBench, error) {
	ri, err := sc.Build(n, seed)
	if err != nil {
		return experiments.ScenarioBench{}, err
	}
	msgs := make([][]cc.Message, n)
	for i, row := range ri.Msgs {
		for _, m := range row {
			msgs[i] = append(msgs[i], cc.Message{Src: m.Src, Dst: m.Dst, Seq: m.Seq, Payload: int64(m.Payload)})
		}
	}
	ctx := context.Background()
	// One warm-up op primes the engine and protocol buffer pools before the
	// measured window (shared discipline with cliquebench's measureProtocol).
	auto, err := cl.Route(ctx, msgs, cc.WithAlgorithm(cc.AlgorithmAuto))
	if err != nil {
		return experiments.ScenarioBench{}, err
	}
	m, err := experiments.MeasureOp(iters, func() error {
		var opErr error
		auto, opErr = cl.Route(ctx, msgs, cc.WithAlgorithm(cc.AlgorithmAuto))
		return opErr
	})
	if err != nil {
		return experiments.ScenarioBench{}, err
	}

	// Re-derive the plan for its human-readable reason (the public API
	// reports only the chosen strategy) and cross-check the two agree.
	plan := core.PlanRoute(n, ri.Msgs)
	if plan.Strategy.String() != auto.Strategy.String() {
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

	if comparePipeline {
		det, err := cl.Route(ctx, msgs)
		if err != nil {
			return experiments.ScenarioBench{}, err
		}
		row.PipelineTotalWords = det.Stats.TotalWords
		if row.TotalWords > 0 {
			row.WordsVsPipeline = float64(det.Stats.TotalWords) / float64(row.TotalWords)
		}
		// The randomized Valiant-style two-hop baseline on the identical
		// instance: what the planner's deterministic verdict is buying
		// relative to the classic randomized solution.
		_, rnd, err := experiments.RunRoute(n, ri.Msgs, "randomized", seed)
		if err != nil {
			return experiments.ScenarioBench{}, err
		}
		row.RandomizedTotalWords = rnd.TotalWords
		row.RandomizedRounds = rnd.Rounds
		if row.TotalWords > 0 {
			row.WordsVsRandomized = float64(rnd.TotalWords) / float64(row.TotalWords)
		}
		if verify {
			if err := sameDelivery(auto, det); err != nil {
				return experiments.ScenarioBench{}, fmt.Errorf("planned delivery diverges from the pipeline: %w", err)
			}
			row.Verified = true
		}
	}
	return row, nil
}

// runSortScenario is runScenario for the sorting catalog: a warm-up pass,
// iters measured planner runs, the sorting planner's verdict cross-checked
// against the executed strategy, and (optionally) the deterministic
// Algorithm 4 pipeline on the same instance for the word comparison and
// batch-by-batch verification.
func runSortScenario(cl *cc.Clique, sc workload.SortScenario, n int, seed int64, iters int, comparePipeline, verify bool) (experiments.ScenarioBench, error) {
	si, err := sc.Build(n, seed)
	if err != nil {
		return experiments.ScenarioBench{}, err
	}
	values, err := workload.SortScenarioValues(si)
	if err != nil {
		return experiments.ScenarioBench{}, err
	}
	ctx := context.Background()
	auto, err := cl.Sort(ctx, values, cc.WithAlgorithm(cc.AlgorithmAuto))
	if err != nil {
		return experiments.ScenarioBench{}, err
	}
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
	if plan.Strategy.String() != auto.Strategy.String() {
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

	if comparePipeline {
		det, err := cl.Sort(ctx, values)
		if err != nil {
			return experiments.ScenarioBench{}, err
		}
		row.PipelineTotalWords = det.Stats.TotalWords
		if row.TotalWords > 0 {
			row.WordsVsPipeline = float64(det.Stats.TotalWords) / float64(row.TotalWords)
		}
		if verify {
			if err := sameBatches(auto, det); err != nil {
				return experiments.ScenarioBench{}, fmt.Errorf("planned batches diverge from the pipeline: %w", err)
			}
			row.Verified = true
		}
	}
	return row, nil
}

// sameBatches compares two sort results batch by batch.
func sameBatches(a, b *cc.SortResult) error {
	if a.Total != b.Total || len(a.Batches) != len(b.Batches) {
		return fmt.Errorf("total %d over %d batches vs total %d over %d batches",
			a.Total, len(a.Batches), b.Total, len(b.Batches))
	}
	for i := range a.Batches {
		if a.Starts[i] != b.Starts[i] || len(a.Batches[i]) != len(b.Batches[i]) {
			return fmt.Errorf("node %d batch start %d len %d vs start %d len %d",
				i, a.Starts[i], len(a.Batches[i]), b.Starts[i], len(b.Batches[i]))
		}
		for j := range a.Batches[i] {
			if a.Batches[i][j] != b.Batches[i][j] {
				return fmt.Errorf("node %d key %d: %+v vs %+v", i, j, a.Batches[i][j], b.Batches[i][j])
			}
		}
	}
	return nil
}

// sameDelivery compares two route results message by message (both are
// sorted by (Src, Dst, Seq), so equality is positional).
func sameDelivery(a, b *cc.RouteResult) error {
	if len(a.Delivered) != len(b.Delivered) {
		return fmt.Errorf("delivered to %d vs %d nodes", len(a.Delivered), len(b.Delivered))
	}
	for i := range a.Delivered {
		if len(a.Delivered[i]) != len(b.Delivered[i]) {
			return fmt.Errorf("node %d received %d vs %d messages", i, len(a.Delivered[i]), len(b.Delivered[i]))
		}
		for j := range a.Delivered[i] {
			if a.Delivered[i][j] != b.Delivered[i][j] {
				return fmt.Errorf("node %d message %d: %+v vs %+v", i, j, a.Delivered[i][j], b.Delivered[i][j])
			}
		}
	}
	return nil
}

func renderTable(section *experiments.ScenarioSection, markdown bool) string {
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
	if markdown {
		return t.Markdown()
	}
	return t.String()
}

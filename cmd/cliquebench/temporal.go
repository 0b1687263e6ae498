package main

// The temporal subcommand: execute each temporal trace step by step on a
// plan-cached handle (census charged) and on a plain AlgorithmAuto handle,
// deep-compare every step between the two, and record hit rate and net
// speedup. The comparison never assumes the cache side's favour: the cached
// handle pays the census and the schedule capture on every miss, and the
// fingerprint lookup and the nodes' row check on every hit, while the plain
// handle pays none of them, so NetSpeedup is the end-to-end figure a caller
// with bursty demand would actually see. The subcommand fails when a
// pipeline scenario's hits cost as many rounds as the cache-off handle: the
// plan cache's round cut is lost.

import (
	"context"
	"flag"
	"fmt"
	"time"

	cc "congestedclique"

	"congestedclique/internal/experiments"
	"congestedclique/internal/tables"
	"congestedclique/internal/workload"
)

func temporalCmd(fs *flag.FlagSet) func([]string) error {
	n := fs.Int("n", 256, "number of clique nodes")
	seed := fs.Int64("seed", 1, "workload seed")
	names := scenarioFlag(fs)
	cacheCap := fs.Int("plan-cache", 8, "plan-cache capacity of the cached handle")
	return func([]string) error {
		section, err := runTemporal(*n, *seed, *names, *cacheCap)
		if err != nil {
			return err
		}
		emit(temporalTable(section, *n))
		for _, e := range section.Entries {
			if e.Strategy == cc.StrategyPipeline.String() && e.CacheHits > 0 && e.HitRounds >= e.CacheOffRounds {
				return fmt.Errorf("temporal scenario %s: a pipeline cache hit costs %d rounds, the cache-off handle %d: the hit's round cut is lost",
					e.Scenario, e.HitRounds, e.CacheOffRounds)
			}
		}
		return nil
	}
}

func runTemporal(n int, seed int64, names string, cacheCap int) (*experiments.TemporalSection, error) {
	scenarios, err := selectNamed(names, workload.TemporalScenarios(),
		func(s workload.TemporalScenario) (string, string) { return s.Name, s.Description })
	if err != nil {
		return nil, err
	}
	section := &experiments.TemporalSection{
		Seed: seed,
		Note: "net speedup: the cached handle pays the charged census and the schedule capture on every miss and only payload rounds on a hit (each node checks its own row, free unless it aborts); every step verified bit-identical to the cache-off handle",
	}
	for _, sc := range scenarios {
		row, err := runTemporalScenario(sc, n, seed, cacheCap)
		if err != nil {
			return nil, fmt.Errorf("temporal scenario %s: %w", sc.Name, err)
		}
		section.Entries = append(section.Entries, row)
	}
	return section, nil
}

// runTemporalScenario executes one trace on both handles. Both engines are
// warmed with one Deterministic run of the first instance — call-scoped, so
// it touches neither the planner nor the cache — before the measured window.
func runTemporalScenario(sc workload.TemporalScenario, n int, seed int64, cacheCap int) (experiments.TemporalBench, error) {
	tr, err := sc.Build(n, seed)
	if err != nil {
		return experiments.TemporalBench{}, err
	}
	if err := workload.ValidateTrace(tr); err != nil {
		return experiments.TemporalBench{}, err
	}

	ctx := context.Background()
	off, err := cc.New(n, cc.WithAlgorithm(cc.AlgorithmAuto))
	if err != nil {
		return experiments.TemporalBench{}, err
	}
	defer off.Close()
	on, err := cc.New(n, cc.WithAlgorithm(cc.AlgorithmAuto), cc.WithPlanCache(cacheCap))
	if err != nil {
		return experiments.TemporalBench{}, err
	}
	defer on.Close()
	for _, cl := range []*cc.Clique{off, on} {
		if _, err := cl.Route(ctx, tr.Distinct[0].Msgs, cc.WithAlgorithm(cc.Deterministic)); err != nil {
			return experiments.TemporalBench{}, err
		}
	}

	row := experiments.TemporalBench{
		Scenario:          sc.Name,
		N:                 n,
		Steps:             tr.Steps(),
		DistinctInstances: len(tr.Distinct),
	}
	var offNs, onNs int64
	seen := make([]bool, len(tr.Distinct))
	for t, k := range tr.Sequence {
		msgs := tr.Distinct[k].Msgs
		start := time.Now()
		want, err := off.Route(ctx, msgs)
		if err != nil {
			return experiments.TemporalBench{}, err
		}
		offNs += time.Since(start).Nanoseconds()
		start = time.Now()
		got, err := on.Route(ctx, msgs)
		if err != nil {
			return experiments.TemporalBench{}, err
		}
		onNs += time.Since(start).Nanoseconds()
		if err := sameDelivery(got, want); err != nil {
			return experiments.TemporalBench{}, fmt.Errorf("step %d (instance %d): cached delivery diverges from cache-off: %w", t, k, err)
		}
		if got.Strategy != want.Strategy {
			return experiments.TemporalBench{}, fmt.Errorf("step %d: cached strategy %v vs cache-off %v", t, got.Strategy, want.Strategy)
		}
		row.Strategy = got.Strategy.String()
		row.CacheOffRounds = want.Stats.Rounds
		row.CacheOffTotalWords += want.Stats.TotalWords
		row.CacheOnTotalWords += got.Stats.TotalWords
		if seen[k] {
			row.HitRounds = got.Stats.Rounds
		} else {
			row.MissRounds = got.Stats.Rounds
			seen[k] = true
		}
	}
	row.Verified = true
	cs := on.CumulativeStats()
	row.CacheHits, row.CacheMisses = cs.PlanCacheHits, cs.PlanCacheMisses
	if lookups := cs.PlanCacheHits + cs.PlanCacheMisses; lookups > 0 {
		row.HitRate = float64(cs.PlanCacheHits) / float64(lookups)
	}
	steps := int64(tr.Steps())
	row.CacheOffNsPerOp = offNs / steps
	row.CacheOnNsPerOp = onNs / steps
	if onNs > 0 {
		row.NetSpeedup = float64(offNs) / float64(onNs)
	}
	return row, nil
}

func temporalTable(section *experiments.TemporalSection, n int) *tables.Table {
	t := tables.New(
		fmt.Sprintf("Temporal catalog, n=%d seed=%d (plan cache + charged census vs plain AlgorithmAuto)", n, section.Seed),
		"scenario", "strategy", "steps", "distinct", "hits", "misses", "hit rate", "rounds off/miss/hit", "words off", "words on", "ms/op off", "ms/op on", "net speedup",
	)
	for _, e := range section.Entries {
		t.AddRow(e.Scenario, e.Strategy, e.Steps, e.DistinctInstances, e.CacheHits, e.CacheMisses,
			fmt.Sprintf("%.1f%%", e.HitRate*100),
			fmt.Sprintf("%d/%d/%d", e.CacheOffRounds, e.MissRounds, e.HitRounds),
			e.CacheOffTotalWords, e.CacheOnTotalWords,
			fmt.Sprintf("%.2f", float64(e.CacheOffNsPerOp)/1e6),
			fmt.Sprintf("%.2f", float64(e.CacheOnNsPerOp)/1e6),
			fmt.Sprintf("%.2fx", e.NetSpeedup))
	}
	return t
}

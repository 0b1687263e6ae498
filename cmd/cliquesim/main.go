// Command cliquesim runs a routing, sorting, rank, mode or small-key
// workload on the simulated congested clique and prints the execution
// statistics the paper's bounds are stated in (rounds, per-edge words,
// traffic). It drives the public session API: one Clique handle is built for
// the chosen size and the workload runs on it -repeat times, so repeated
// runs show the amortized cost a long-lived service sees (cumulative
// statistics are printed when -repeat > 1).
//
// Examples:
//
//	cliquesim -op route -n 256 -pattern uniform -alg deterministic
//	cliquesim -op route -n 256 -pattern skewed  -alg low-compute
//	cliquesim -op sort  -n 144 -dist duplicate-heavy -repeat 8
//	cliquesim -op smallkeys -n 1024 -domain 8
//
// The randomized and naive comparison baselines are measured by cliquebench
// (experiment E5), not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	cc "congestedclique"

	"congestedclique/internal/core"
	"congestedclique/internal/tables"
	"congestedclique/internal/verify"
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
		op      = flag.String("op", "route", "operation: route | sort | rank | mode | smallkeys")
		n       = flag.Int("n", 64, "number of clique nodes")
		per     = flag.Int("per", -1, "messages/keys per node (default n)")
		pattern = flag.String("pattern", "uniform", "routing pattern: uniform | skewed | set-adversarial | random-partial | self-heavy")
		dist    = flag.String("dist", "uniform", "key distribution: uniform | duplicate-heavy | pre-sorted | reverse-sorted | clustered | constant")
		alg     = flag.String("alg", "deterministic", "algorithm: deterministic | low-compute | auto (demand-aware planner)")
		domain  = flag.Int("domain", 4, "key domain size for -op smallkeys")
		seed    = flag.Int64("seed", 1, "workload seed")
		strict  = flag.Int("strict", 0, "fail if any edge carries more than this many words per round (0 = record only)")
		repeat  = flag.Int("repeat", 1, "run the workload this many times on one session handle")
	)
	flag.Parse()
	if *per < 0 {
		*per = *n
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1, got %d", *repeat)
	}

	algorithm, err := parseAlgorithm(*alg)
	if err != nil {
		return err
	}
	opts := []cc.Option{cc.WithAlgorithm(algorithm)}
	if *strict > 0 {
		opts = append(opts, cc.WithStrictBandwidth(*strict))
	}
	cl, err := cc.New(*n, opts...)
	if err != nil {
		return err
	}
	defer cl.Close()

	for i := 0; i < *repeat; i++ {
		var runErr error
		switch *op {
		case "route":
			runErr = runRouting(cl, *n, *per, *pattern, *alg, *seed, i == 0)
		case "sort":
			runErr = runSorting(cl, *n, *per, *dist, *alg, *seed, i == 0)
		case "rank":
			runErr = runRank(cl, *n, *per, *dist, *seed, i == 0)
		case "mode":
			runErr = runMode(cl, *n, *per, *dist, *seed, i == 0)
		case "smallkeys":
			runErr = runSmallKeys(cl, *n, *per, *domain, *seed, i == 0)
		default:
			runErr = fmt.Errorf("unknown operation %q", *op)
		}
		if runErr != nil {
			return runErr
		}
	}
	if *repeat > 1 {
		printCumulative(cl.CumulativeStats())
	}
	return nil
}

func parseAlgorithm(name string) (cc.Algorithm, error) {
	switch name {
	case "deterministic":
		return cc.Deterministic, nil
	case "low-compute":
		return cc.LowCompute, nil
	case "auto":
		return cc.AlgorithmAuto, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", name)
	}
}

func printStats(caption string, s cc.Stats) {
	t := tables.New(caption, "metric", "value")
	t.AddRow("rounds", s.Rounds)
	t.AddRow("max words per edge per round", s.MaxEdgeWords)
	t.AddRow("max packets per edge per round", s.MaxEdgeMessages)
	t.AddRow("total packets", s.TotalMessages)
	t.AddRow("total words", s.TotalWords)
	if s.MaxStepsPerNode > 0 {
		t.AddRow("max self-reported steps per node", s.MaxStepsPerNode)
	}
	if s.MaxMemoryWordsPerNode > 0 {
		t.AddRow("max self-reported memory words per node", s.MaxMemoryWordsPerNode)
	}
	fmt.Println(t.String())
}

func printCumulative(c cc.CumulativeStats) {
	t := tables.New("session totals (one handle, all runs)", "metric", "value")
	t.AddRow("operations", c.Operations)
	t.AddRow("rounds", c.Rounds)
	t.AddRow("max words per edge per round", c.MaxEdgeWords)
	t.AddRow("total packets", c.TotalMessages)
	t.AddRow("total words", c.TotalWords)
	fmt.Println(t.String())
}

func runRouting(cl *cc.Clique, n, per int, pattern, alg string, seed int64, report bool) error {
	inst, err := workload.NewRoutingInstance(n, per, workload.RoutingPattern(pattern), seed)
	if err != nil {
		return err
	}
	res, err := cl.Route(context.Background(), inst.Msgs)
	if err != nil {
		return err
	}
	if err := verify.Routing(inst.Msgs, res.Delivered); err != nil {
		return err
	}
	if report {
		fmt.Printf("routing %q on n=%d (%d messages, pattern %s): delivery verified\n",
			alg, n, inst.TotalMessages(), pattern)
		if res.Strategy != 0 {
			fmt.Printf("planner strategy: %s\n", res.Strategy)
		}
		fmt.Println()
		printStats("execution cost", res.Stats)
	}
	return nil
}

func runSorting(cl *cc.Clique, n, per int, dist, alg string, seed int64, report bool) error {
	inst, err := workload.NewSortingInstance(n, per, workload.KeyDistribution(dist), seed)
	if err != nil {
		return err
	}
	res, err := cl.SortKeys(context.Background(), inst.Keys)
	if err != nil {
		return err
	}
	results := make([]*core.SortResult, n)
	for i := 0; i < n; i++ {
		results[i] = &core.SortResult{Batch: res.Batches[i], Start: res.Starts[i], Total: res.Total}
	}
	if err := verify.Sorting(inst.Keys, results); err != nil {
		return err
	}
	if report {
		fmt.Printf("sorting %q on n=%d (%d keys, distribution %s): output verified\n\n", alg, n, inst.TotalKeys(), dist)
		printStats("execution cost", res.Stats)
	}
	return nil
}

func runRank(cl *cc.Clique, n, per int, dist string, seed int64, report bool) error {
	inst, err := workload.NewSortingInstance(n, per, workload.KeyDistribution(dist), seed)
	if err != nil {
		return err
	}
	// Rank labels plain values with (Origin, Seq) itself, so feed it the
	// instance's values in key order and verify against the same layout.
	values := make([][]int64, n)
	for i, ks := range inst.Keys {
		values[i] = make([]int64, len(ks))
		for j, k := range ks {
			values[i][j] = k.Value
		}
	}
	res, err := cl.Rank(context.Background(), values)
	if err != nil {
		return err
	}
	keys := make([][]core.Key, n)
	results := make([]*core.RankResult, n)
	for i := 0; i < n; i++ {
		keys[i] = make([]core.Key, len(values[i]))
		ranks := make(map[int]int, len(values[i]))
		for j, v := range values[i] {
			keys[i][j] = core.Key{Value: v, Origin: i, Seq: j}
			ranks[j] = res.Ranks[i][j]
		}
		results[i] = &core.RankResult{Ranks: ranks, DistinctTotal: res.DistinctTotal}
	}
	if err := verify.Ranks(keys, results); err != nil {
		return err
	}
	if report {
		fmt.Printf("rank-in-union (Corollary 4.6) on n=%d: %d distinct values, output verified\n\n", n, res.DistinctTotal)
		printStats("execution cost", res.Stats)
	}
	return nil
}

func runMode(cl *cc.Clique, n, per int, dist string, seed int64, report bool) error {
	inst, err := workload.NewSortingInstance(n, per, workload.KeyDistribution(dist), seed)
	if err != nil {
		return err
	}
	values := make([][]int64, n)
	for i, ks := range inst.Keys {
		values[i] = make([]int64, len(ks))
		for j, k := range ks {
			values[i][j] = k.Value
		}
	}
	res, err := cl.Mode(context.Background(), values)
	if err != nil {
		return err
	}
	if err := verify.Mode(inst.Keys, res.Value, res.Count); err != nil {
		return err
	}
	if report {
		fmt.Printf("mode on n=%d: value %d occurs %d times, output verified\n\n", n, res.Value, res.Count)
		printStats("execution cost", res.Stats)
	}
	return nil
}

func runSmallKeys(cl *cc.Clique, n, per, domain int, seed int64, report bool) error {
	values, err := workload.NewSmallKeyInstance(n, per, domain, seed)
	if err != nil {
		return err
	}
	res, err := cl.CountSmallKeys(context.Background(), values, domain)
	if err != nil {
		return err
	}
	if err := verify.Histogram(values, &core.SmallKeyResult{Counts: res.Counts, Domain: domain}); err != nil {
		return err
	}
	if report {
		fmt.Printf("small-key counting (Section 6.3) on n=%d, domain %d: histogram verified\n\n", n, domain)
		printStats("execution cost", res.Stats)
	}
	return nil
}

package main

// The scaling subcommand, the scale-out frontier curve: full Route and Sort
// protocol runs of sparse demand under AlgorithmAuto at n up to 16384,
// recording wall time, allocation figures, process peak RSS and the model
// cost (rounds, total words) per point. Every point's output is checked with
// internal/verify against the paper's correctness conditions, so the curve
// doubles as a correctness pin.

import (
	"flag"
	"fmt"

	cc "congestedclique"

	"congestedclique/internal/core"
	"congestedclique/internal/experiments"
	"congestedclique/internal/tables"
	"congestedclique/internal/verify"
	"congestedclique/internal/workload"
)

// scalingSizes is the frontier's n axis; points above -max-n are skipped.
// Sizes run ascending so the recorded VmHWM reads as "peak RSS after
// completing size n".
var scalingSizes = []int{256, 1024, 4096, 16384}

func scalingCmd(fs *flag.FlagSet) func([]string) error {
	maxN := fs.Int("max-n", 16384, "largest clique size")
	return func([]string) error {
		section, err := runScaling(*maxN)
		if err != nil {
			return err
		}
		emit(scalingTable(section))
		return nil
	}
}

// scalingOp is one measured operation of the curve: a routing demand or a
// sorting input at one size.
type scalingOp struct {
	op     string
	route  [][]cc.Message
	values [][]int64
}

// scalingOps builds the three frontier workloads at size n: the ~2n-message
// direct-strategy route, the one-to-many broadcast-strategy route and the
// presorted-strategy sort (workload.Scale* builders).
func scalingOps(n int) ([]scalingOp, error) {
	ri, err := workload.ScaleSparseRoute(n, 1)
	if err != nil {
		return nil, err
	}
	bi, err := workload.ScaleBroadcastRoute(n)
	if err != nil {
		return nil, err
	}
	return []scalingOp{
		{op: "route-sparse", route: ri.Msgs},
		{op: "route-broadcast", route: bi.Msgs},
		{op: "sort-presorted", values: workload.ScalePresortedValues(n)},
	}, nil
}

// measureScaling runs one frontier point: a pass whose output must pass the
// internal/verify oracle, followed by iters timed runs through the shared
// measurement helper.
func measureScaling(n, iters int, o scalingOp) (experiments.ScalingBench, error) {
	auto := cc.WithAlgorithm(cc.AlgorithmAuto)
	var strategy string
	var stats cc.Stats

	if o.route != nil {
		res, err := cc.Route(n, o.route, auto)
		if err != nil {
			return experiments.ScalingBench{}, err
		}
		strategy, stats = res.Strategy.String(), res.Stats
		if err := verify.Routing(o.route, res.Delivered); err != nil {
			return experiments.ScalingBench{}, err
		}
	} else {
		res, err := cc.Sort(n, o.values, auto)
		if err != nil {
			return experiments.ScalingBench{}, err
		}
		strategy, stats = res.Strategy.String(), res.Stats
		input := make([][]cc.Key, n)
		results := make([]*core.SortResult, n)
		for i := 0; i < n; i++ {
			for j, v := range o.values[i] {
				input[i] = append(input[i], cc.Key{Value: v, Origin: i, Seq: j})
			}
			results[i] = &core.SortResult{Batch: res.Batches[i], Start: res.Starts[i], Total: res.Total}
		}
		if err := verify.Sorting(input, results); err != nil {
			return experiments.ScalingBench{}, err
		}
	}

	m, err := experiments.MeasureOp(iters, func() error {
		if o.route != nil {
			_, opErr := cc.Route(n, o.route, auto)
			return opErr
		}
		_, opErr := cc.Sort(n, o.values, auto)
		return opErr
	})
	if err != nil {
		return experiments.ScalingBench{}, err
	}
	return experiments.ScalingBench{
		Op:            o.op,
		N:             n,
		Strategy:      strategy,
		Rounds:        stats.Rounds,
		TotalMessages: stats.TotalMessages,
		TotalWords:    stats.TotalWords,
		Iterations:    iters,
		NsPerOp:       m.NsPerOp,
		AllocsPerOp:   m.AllocsPerOp,
		BytesPerOp:    m.BytesPerOp,
		PeakRSSBytes:  experiments.PeakRSSBytes(),
		Verified:      true,
	}, nil
}

// runScaling measures the scale-out frontier at every size up to maxN.
func runScaling(maxN int) (*experiments.ScalingSection, error) {
	sec := &experiments.ScalingSection{
		Note: "full AlgorithmAuto protocol runs of sparse demand (one-shot handles; the planner's fast " +
			"strategies run as step programs) per point; peak_rss_bytes is the process VmHWM sampled after the " +
			"point and is monotone across one invocation (sizes run ascending, so it reads as peak RSS after " +
			"completing size n); verified means the output passed internal/verify (Routing: every message exactly " +
			"once at its destination; Sorting: sorted, contiguous, balanced batches), checked at every n",
	}
	for _, n := range scalingSizes {
		if n > maxN {
			continue
		}
		ops, err := scalingOps(n)
		if err != nil {
			return nil, err
		}
		iters := 3
		if n >= 4096 {
			iters = 1
		}
		for _, o := range ops {
			run, err := measureScaling(n, iters, o)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", o.op, n, err)
			}
			sec.Entries = append(sec.Entries, run)
		}
	}
	return sec, nil
}

func scalingTable(sec *experiments.ScalingSection) *tables.Table {
	t := tables.New("Scale-out frontier (AlgorithmAuto, sparse demand, every point verified by internal/verify)",
		"op", "n", "strategy", "rounds", "words", "ms/op", "allocs/op", "KiB/op", "peak RSS MiB")
	for _, e := range sec.Entries {
		t.AddRow(e.Op, e.N, e.Strategy, e.Rounds, e.TotalWords, fmt.Sprintf("%.2f", float64(e.NsPerOp)/1e6),
			e.AllocsPerOp, e.BytesPerOp>>10, e.PeakRSSBytes>>20)
	}
	return t
}

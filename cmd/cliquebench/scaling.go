package main

// The scale-out frontier curve (cliquebench -scaling-json): full Route and
// Sort protocol runs of sparse demand under AlgorithmAuto at n up to 16384,
// recording wall time, allocation figures, process peak RSS and the model
// cost (rounds, total words) per point. Every point's output is checked with
// internal/verify against the paper's correctness conditions, so the curve
// doubles as a correctness pin. Results merge into the scaling section of
// BENCH_protocol.json by (op, n), preserving every other section of the
// document.

import (
	"fmt"
	"runtime"

	cc "congestedclique"

	"congestedclique/internal/core"
	"congestedclique/internal/experiments"
	"congestedclique/internal/verify"
	"congestedclique/internal/workload"
)

// scalingSizes is the frontier's n axis; points above -scaling-max-n are
// skipped. Sizes run ascending so the recorded VmHWM reads as "peak RSS
// after completing size n".
var scalingSizes = []int{256, 1024, 4096, 16384}

// scalingMessages converts a workload routing instance to the public message
// type.
func scalingMessages(ri *workload.RoutingInstance) [][]cc.Message {
	msgs := make([][]cc.Message, ri.N)
	for i, row := range ri.Msgs {
		msgs[i] = make([]cc.Message, len(row))
		for j, m := range row {
			msgs[i][j] = cc.Message{Src: m.Src, Dst: m.Dst, Seq: m.Seq, Payload: int64(m.Payload)}
		}
	}
	return msgs
}

// scalingOp is one measured operation of the curve: a routing demand or a
// sorting input at one size.
type scalingOp struct {
	op     string
	sent   [][]core.Message // the routing instance as the oracle reads it
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
		{op: "route-sparse", sent: ri.Msgs, route: scalingMessages(ri)},
		{op: "route-broadcast", sent: bi.Msgs, route: scalingMessages(bi)},
		{op: "sort-presorted", values: workload.ScalePresortedValues(n)},
	}, nil
}

// measureScaling runs one frontier point: a warm-up pass whose output must
// pass the internal/verify oracle, followed by iters timed runs through the
// shared measurement helper.
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
		delivered := make([][]core.Message, n)
		for i, row := range res.Delivered {
			for _, m := range row {
				delivered[i] = append(delivered[i], core.Message(m))
			}
		}
		if err := verify.Routing(o.sent, delivered); err != nil {
			return experiments.ScalingBench{}, err
		}
	} else {
		res, err := cc.Sort(n, o.values, auto)
		if err != nil {
			return experiments.ScalingBench{}, err
		}
		strategy, stats = res.Strategy.String(), res.Stats
		input := make([][]core.Key, n)
		results := make([]*core.SortResult, n)
		for i := 0; i < n; i++ {
			for j, v := range o.values[i] {
				input[i] = append(input[i], core.Key{Value: v, Origin: i, Seq: j})
			}
			results[i] = &core.SortResult{Start: res.Starts[i], Total: res.Total}
			for _, k := range res.Batches[i] {
				results[i].Batch = append(results[i].Batch, core.Key(k))
			}
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

// runScalingBench measures the scale-out frontier at every size up to maxN
// and merges the resulting curve into the scaling section of the document at
// path, leaving the other sections untouched.
func runScalingBench(path string, maxN int) error {
	prev, err := experiments.ReadProtocolDoc(path)
	if err != nil {
		return err
	}
	if prev.Tool == "" { // fresh document (standalone artifact runs)
		prev.Tool = "cliquebench -scaling-json"
		prev.Schema = "congestedclique/bench-protocol/v1"
	}
	sec := prev.Scaling
	if sec == nil {
		sec = &experiments.ScalingSection{}
	}
	sec.Tool = "cliquebench -scaling-json"
	sec.Schema = "congestedclique/bench-scaling/v1"
	sec.Note = fmt.Sprintf("full AlgorithmAuto protocol runs of sparse demand (one-shot handles; the planner's fast "+
		"strategies run as step programs) per point; peak_rss_bytes is the process "+
		"VmHWM sampled after the point and is monotone across one invocation (sizes run ascending, so it reads as "+
		"peak RSS after completing size n); verified means the output passed internal/verify (Routing: every "+
		"message exactly once at its destination; Sorting: sorted, contiguous, balanced batches), checked at every "+
		"n; GOMAXPROCS=%d, so wall times show the simulation's cost on this host, not protocol parallelism",
		runtime.GOMAXPROCS(0))

	for _, n := range scalingSizes {
		if n > maxN {
			continue
		}
		ops, err := scalingOps(n)
		if err != nil {
			return err
		}
		iters := 3
		if n >= 4096 {
			iters = 1
		}
		for _, o := range ops {
			run, err := measureScaling(n, iters, o)
			if err != nil {
				return fmt.Errorf("%s n=%d: %w", o.op, n, err)
			}
			sec.MergeScalingRun(run)
			fmt.Printf("scaling %-16s n=%-6d %-10s rounds=%-2d words=%-8d %12d ns/op %10d B/op %8d allocs/op rss=%d MiB verified=%v\n",
				run.Op, run.N, run.Strategy, run.Rounds, run.TotalWords,
				run.NsPerOp, run.BytesPerOp, run.AllocsPerOp, run.PeakRSSBytes>>20, run.Verified)
		}
	}
	prev.Scaling = sec
	return experiments.WriteProtocolDoc(path, prev)
}

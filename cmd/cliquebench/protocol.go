package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	cc "congestedclique"

	"congestedclique/internal/experiments"
	"congestedclique/internal/loadgen"
	"congestedclique/internal/workload"
)

// protocolRouteWorkload builds the shared deterministic full-load routing
// instance (workload.ProtocolBenchRoute) — the same workload BenchmarkRoute
// and the stats-invariant goldens measure.
func protocolRouteWorkload(n int) [][]cc.Message {
	msgs, err := cc.NewUniformMessages(workload.ProtocolBenchRoute(n))
	if err != nil {
		panic(err)
	}
	return msgs
}

func protocolSortWorkload(n int) [][]int64 {
	return workload.ProtocolBenchSortValues(n)
}

// measureProtocol runs op iters times (after one warm-up that primes the
// engine and protocol buffer pools, matching the steady state a long-running
// service sees) and reports per-op figures via the shared measurement
// helper.
func measureProtocol(name string, n, iters int, op func() (cc.Stats, error)) (experiments.ProtocolBench, error) {
	stats, err := op()
	if err != nil {
		return experiments.ProtocolBench{}, err
	}
	m, err := experiments.MeasureOp(iters, func() error {
		_, opErr := op()
		return opErr
	})
	if err != nil {
		return experiments.ProtocolBench{}, err
	}
	return experiments.ProtocolBench{
		Name:        name,
		N:           n,
		Cores:       runtime.NumCPU(),
		Gomaxprocs:  runtime.GOMAXPROCS(0),
		Iterations:  iters,
		NsPerOp:     m.NsPerOp,
		AllocsPerOp: m.AllocsPerOp,
		BytesPerOp:  m.BytesPerOp,
		Rounds:      stats.Rounds,
		MaxEdgeW:    stats.MaxEdgeWords,
	}, nil
}

// runProtocolBench measures the end-to-end Route and Sort pipelines at every
// size up to maxN — once through fresh one-shot handles and once amortized
// over a reused session handle — and writes BENCH_protocol.json.
func runProtocolBench(path string, maxN int) error {
	sizes := []int{64, 256, 1024}
	ctx := context.Background()
	var measured, reuse []experiments.ProtocolBench
	for _, n := range sizes {
		if n > maxN {
			continue
		}
		iters := 3
		if n >= 1024 {
			iters = 1
		}
		msgs := protocolRouteWorkload(n)
		rb, err := measureProtocol(fmt.Sprintf("BenchmarkRoute/n=%d", n), n, iters, func() (cc.Stats, error) {
			res, err := cc.Route(n, msgs)
			if err != nil {
				return cc.Stats{}, err
			}
			return res.Stats, nil
		})
		if err != nil {
			return fmt.Errorf("route n=%d: %w", n, err)
		}
		measured = append(measured, rb)

		values := protocolSortWorkload(n)
		sb, err := measureProtocol(fmt.Sprintf("BenchmarkSort/n=%d", n), n, iters, func() (cc.Stats, error) {
			res, err := cc.Sort(n, values)
			if err != nil {
				return cc.Stats{}, err
			}
			return res.Stats, nil
		})
		if err != nil {
			return fmt.Errorf("sort n=%d: %w", n, err)
		}
		measured = append(measured, sb)

		// Session path: the same workloads on one long-lived handle.
		cl, err := cc.New(n)
		if err != nil {
			return fmt.Errorf("session n=%d: %w", n, err)
		}
		rr, err := measureProtocol(fmt.Sprintf("BenchmarkRouteReuse/n=%d", n), n, iters, func() (cc.Stats, error) {
			res, err := cl.Route(ctx, msgs)
			if err != nil {
				return cc.Stats{}, err
			}
			return res.Stats, nil
		})
		if err != nil {
			return fmt.Errorf("route reuse n=%d: %w", n, err)
		}
		reuse = append(reuse, rr)
		sr, err := measureProtocol(fmt.Sprintf("BenchmarkSortReuse/n=%d", n), n, iters, func() (cc.Stats, error) {
			res, err := cl.Sort(ctx, values)
			if err != nil {
				return cc.Stats{}, err
			}
			return res.Stats, nil
		})
		if err != nil {
			return fmt.Errorf("sort reuse n=%d: %w", n, err)
		}
		reuse = append(reuse, sr)
		if err := cl.Close(); err != nil {
			return fmt.Errorf("close session n=%d: %w", n, err)
		}
	}

	// Each session-reuse entry is compared against its fresh-handle twin:
	// SpeedupVs/AllocRatio here mean "vs the fresh-network path of the same
	// build", the amortization the session API exists to deliver.
	freshByN := make(map[string]experiments.ProtocolBench, len(measured))
	for _, b := range measured {
		freshByN[b.Name] = b
	}
	for i := range reuse {
		freshName := strings.Replace(reuse[i].Name, "Reuse", "", 1)
		if base, ok := freshByN[freshName]; ok {
			if reuse[i].NsPerOp > 0 {
				reuse[i].SpeedupVs = float64(base.NsPerOp) / float64(reuse[i].NsPerOp)
			}
			if reuse[i].AllocsPerOp > 0 {
				reuse[i].AllocRatio = float64(base.AllocsPerOp) / float64(reuse[i].AllocsPerOp)
			}
		}
	}

	conc, err := runConcurrencySweep(ctx, maxN)
	if err != nil {
		return fmt.Errorf("concurrency sweep: %w", err)
	}

	prev, err := experiments.ReadProtocolDoc(path)
	if err != nil {
		return err
	}
	doc := experiments.ProtocolDoc{
		Tool:         "cliquebench -protocol-json",
		Schema:       "congestedclique/bench-protocol/v1",
		MaxN:         maxN,
		Measured:     measured,
		SessionReuse: reuse,
		Concurrency:  conc,
		// The scenarios, service, temporal and scaling sections are owned by
		// other writers (cmd/cliquescen, cmd/cliqued, -scaling-json);
		// regenerating the protocol sections must not destroy them.
		Scenarios: prev.Scenarios,
		Service:   prev.Service,
		Temporal:  prev.Temporal,
		Scaling:   prev.Scaling,
	}
	return experiments.WriteProtocolDoc(path, doc)
}

// runConcurrencySweep measures aggregate pooled-handle throughput at
// k ∈ {1, 2, 4, 8} — Route at the largest measured size (n=256 when maxN
// allows) and Sort at n=64 to bound CI time — via the shared
// internal/loadgen harness with verification on. Results are recorded as
// measured: on a machine with fewer cores than k the sweep shows the memory
// and scheduler bound honestly instead of an assumed linear speedup.
func runConcurrencySweep(ctx context.Context, maxN int) (*experiments.ConcurrencySection, error) {
	routeN := 256
	if maxN < routeN {
		routeN = maxN
	}
	sortN := 64
	if maxN < sortN {
		sortN = maxN
	}
	section := &experiments.ConcurrencySection{
		Cores:      runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Note: "aggregate throughput of k concurrent streams on ONE pooled handle (WithMaxConcurrency(k), " +
			"internal/loadgen, same harness as cmd/cliqueload); results are verified bit-identical to serial execution " +
			"in a separate pass, so the timed window carries no comparison overhead; one in-process engine already keeps " +
			"GOMAXPROCS sweep workers busy, so speedup_vs_k1 is bounded by cores — read it against the recorded cores/gomaxprocs",
	}
	for _, sweep := range []struct {
		n        string
		size     int
		workload string
		out      *[]experiments.ConcurrencyBench
	}{
		{"RouteParallel", routeN, "route", &section.Route},
		{"SortParallel", sortN, "sort", &section.Sort},
	} {
		var serial float64
		for _, k := range []int{1, 2, 4, 8} {
			// Enough operations per point that the recorded speedup is not
			// dominated by cold-start or scheduler jitter; the verification
			// pass that precedes the timed window doubles as warm-up.
			ops := 8
			if sweep.size >= 256 {
				ops = 4
			}
			res, err := loadgen.Run(ctx, loadgen.Config{
				N:            sweep.size,
				Concurrency:  k,
				Streams:      k,
				OpsPerStream: ops,
				Workload:     sweep.workload,
				Verify:       true,
			})
			if err != nil {
				return nil, fmt.Errorf("%s k=%d: %w", sweep.workload, k, err)
			}
			// loadgen tolerates operation errors (it records them per stream);
			// a committed benchmark number must not — every op has to succeed.
			if res.FailedOps > 0 {
				return nil, fmt.Errorf("%s k=%d: %d of %d operations failed: %s",
					sweep.workload, k, res.FailedOps, res.TotalOps, res.FirstError)
			}
			b := experiments.ConcurrencyBench{
				Name:        fmt.Sprintf("%s/n=%d/k=%d", sweep.n, sweep.size, k),
				N:           sweep.size,
				K:           k,
				Streams:     k,
				TotalOps:    res.TotalOps,
				OpsPerSec:   res.OpsPerSec,
				P50Ms:       float64(res.P50.Nanoseconds()) / 1e6,
				P99Ms:       float64(res.P99.Nanoseconds()) / 1e6,
				VerifiedOps: res.Verified,
			}
			if k == 1 {
				serial = res.OpsPerSec
			}
			if serial > 0 {
				b.SpeedupVsK1 = res.OpsPerSec / serial
			}
			*sweep.out = append(*sweep.out, b)
		}
	}
	return section, nil
}

package main

// The record subcommand regenerates the whole of BENCH_protocol.json in one
// invocation, on one host: the one-shot Route/Sort rows, the scenario,
// temporal and scaling sections, and the service section measured against
// an in-process service.Server on loopback. Nothing else writes the file.

import (
	"context"
	"flag"
	"fmt"
	"net"
	"time"

	cc "congestedclique"

	"congestedclique/internal/experiments"
	"congestedclique/internal/loadgen"
	"congestedclique/internal/service"
	"congestedclique/internal/tables"
	"congestedclique/internal/workload"
)

func recordCmd(fs *flag.FlagSet) func([]string) error {
	maxN := fs.Int("max-n", 16384, "largest clique size of any section")
	return func(args []string) error {
		if len(args) != 1 {
			return fmt.Errorf("usage: cliquebench record [-max-n N] FILE")
		}
		doc := experiments.ProtocolDoc{
			Tool:   "cliquebench record",
			Schema: "congestedclique/bench-protocol/v2",
			MaxN:   *maxN,
			Host:   experiments.CurrentHost(),

			MeasureNote: experiments.MeasureNote,
		}
		// The scaling curve runs first: its peak RSS column is the process
		// high-water mark, which any earlier section would inflate.
		var err error
		if doc.Scaling, err = runScaling(*maxN); err != nil {
			return fmt.Errorf("scaling: %w", err)
		}
		emit(scalingTable(doc.Scaling))
		if doc.Measured, err = runMeasured(*maxN); err != nil {
			return fmt.Errorf("measured: %w", err)
		}
		emit(measuredTable(doc.Measured))
		catalogN := min(256, *maxN)
		if doc.Scenarios, err = runScenarios(catalogN, 1, "all", 1); err != nil {
			return fmt.Errorf("scenarios: %w", err)
		}
		emit(scenarioTable(doc.Scenarios))
		if doc.Temporal, err = runTemporal(catalogN, 1, "all", 8); err != nil {
			return fmt.Errorf("temporal: %w", err)
		}
		emit(temporalTable(doc.Temporal, catalogN))
		if doc.Service, err = runService(min(64, *maxN)); err != nil {
			return fmt.Errorf("service: %w", err)
		}
		emit(serviceTable(fmt.Sprintf("Service on loopback: n=%d, k=%d, queue=%d, batch=%d, plan cache %d",
			doc.Service.N, doc.Service.ServerConcurrency, doc.Service.QueueDepth, doc.Service.BatchMaxOps, doc.Service.PlanCache),
			doc.Service.Runs))
		return doc.WriteFile(args[0])
	}
}

// runMeasured measures one-shot Route and Sort of the protocol-benchmark
// instances, each under Deterministic and under AlgorithmAuto without a plan
// cache (whose full-load verdicts run Theorem 5.4, as the router and as
// Algorithm 4's Step 6), at every size up to maxN: one op reads the row's
// model cost, then MeasureOp times iters ops.
func runMeasured(maxN int) ([]experiments.ProtocolBench, error) {
	var rows []experiments.ProtocolBench
	for _, n := range []int{64, 256, 1024} {
		if n > maxN {
			continue
		}
		iters := 3
		if n >= 1024 {
			iters = 1
		}
		msgs, err := protocolRoute(n)
		if err != nil {
			return nil, err
		}
		values := workload.ProtocolBenchSortValues(n)
		for _, op := range []struct {
			name string
			run  func() (cc.Stats, error)
		}{
			{"BenchmarkRoute", func() (cc.Stats, error) {
				res, err := cc.Route(n, msgs)
				if err != nil {
					return cc.Stats{}, err
				}
				return res.Stats, nil
			}},
			{"RouteAuto", func() (cc.Stats, error) {
				res, err := cc.Route(n, msgs, cc.WithAlgorithm(cc.AlgorithmAuto))
				if err != nil {
					return cc.Stats{}, err
				}
				return res.Stats, nil
			}},
			{"BenchmarkSort", func() (cc.Stats, error) {
				res, err := cc.Sort(n, values)
				if err != nil {
					return cc.Stats{}, err
				}
				return res.Stats, nil
			}},
			{"SortAuto", func() (cc.Stats, error) {
				res, err := cc.Sort(n, values, cc.WithAlgorithm(cc.AlgorithmAuto))
				if err != nil {
					return cc.Stats{}, err
				}
				return res.Stats, nil
			}},
		} {
			stats, err := op.run()
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", op.name, n, err)
			}
			m, err := experiments.MeasureOp(iters, func() error {
				_, err := op.run()
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", op.name, n, err)
			}
			rows = append(rows, experiments.ProtocolBench{
				Name:        fmt.Sprintf("%s/n=%d", op.name, n),
				N:           n,
				Iterations:  iters,
				NsPerOp:     m.NsPerOp,
				AllocsPerOp: m.AllocsPerOp,
				BytesPerOp:  m.BytesPerOp,
				Rounds:      stats.Rounds,
				MaxEdgeW:    stats.MaxEdgeWords,
			})
		}
	}
	return rows, nil
}

func measuredTable(rows []experiments.ProtocolBench) *tables.Table {
	t := tables.New("One-shot Route (Thm 3.7), RouteAuto (Thm 5.4), Sort (Thm 4.5) and SortAuto (Alg 4 with Thm 5.4) of the protocol-benchmark instances",
		"benchmark", "rounds", "max edge words", "ms/op", "allocs/op", "MiB/op")
	for _, r := range rows {
		t.AddRow(r.Name, r.Rounds, r.MaxEdgeW, fmt.Sprintf("%.1f", float64(r.NsPerOp)/1e6), r.AllocsPerOp, r.BytesPerOp>>20)
	}
	return t
}

// runService serves an n-node clique from an in-process service.Server on
// loopback and measures it with internal/loadgen: closed-loop mixed load at
// 2 and 8 streams, then an open-loop Route overload past capacity. Every
// run is verified and must finish without a hard failure.
func runService(n int) (*experiments.ServiceSection, error) {
	sec := &experiments.ServiceSection{
		N:                 n,
		ServerConcurrency: 2,
		QueueDepth:        8,
		BatchMaxOps:       4,
		PlanCache:         8,
		Note: "measured end to end over the wire protocol against an AlgorithmAuto service.Server on loopback in " +
			"the recording process; closed rows fix the stream count, open rows hold an offered rate through " +
			"saturation — shedded_ops are named bounded-queue rejections, failed_ops must stay zero for the " +
			"overload claim to hold",
	}
	srv, err := service.NewServer(service.Config{
		N:                 n,
		MaxConcurrency:    sec.ServerConcurrency,
		QueueDepth:        sec.QueueDepth,
		BatchMaxOps:       sec.BatchMaxOps,
		Algorithm:         cc.AlgorithmAuto,
		PlanCacheCapacity: sec.PlanCache,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	ctx := context.Background()
	cfg := loadgen.Config{Addr: ln.Addr().String(), N: n, OpsPerStream: 8, Workload: "mixed", Verify: true}
	sec.Runs, err = runLoad(ctx, cfg, []int{2, 8})
	if err == nil {
		cfg.Workload, cfg.Rate, cfg.Duration = "route", 400, 3*time.Second
		var open []experiments.ServiceBench
		open, err = runLoad(ctx, cfg, []int{4})
		sec.Runs = append(sec.Runs, open...)
	}
	for _, r := range sec.Runs {
		if err == nil && r.FailedOps > 0 {
			err = fmt.Errorf("%s loop at %d streams: %d operations hard-failed", r.Mode, r.Streams, r.FailedOps)
		}
	}
	if shutErr := srv.Shutdown(ctx); err == nil {
		err = shutErr
	}
	if serveErr := <-served; err == nil {
		err = serveErr
	}
	return sec, err
}

package main

// The load subcommand drives a running cliqued over the wire protocol with
// internal/loadgen and tabulates throughput, latency percentiles, sheds and
// failures; every response is cross-checked bit for bit against an
// in-process serial golden unless -verify=false.
//
//	# closed loop at two stream levels
//	cliquebench load -addr 127.0.0.1:9024 -sweep 2,8 -ops 16
//
//	# open loop: offer 500 ops/sec for 5s regardless of completions — the
//	# honest way to measure past saturation; sheds are counted separately
//	cliquebench load -addr 127.0.0.1:9024 -rate 500 -duration 5s

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"congestedclique/internal/experiments"
	"congestedclique/internal/loadgen"
	"congestedclique/internal/service"
	"congestedclique/internal/tables"
)

func loadCmd(fs *flag.FlagSet) func([]string) error {
	var cfg loadgen.Config
	fs.StringVar(&cfg.Addr, "addr", "", "the cliqued server to drive (host:port)")
	fs.IntVar(&cfg.N, "n", 0, "clique size (0 = the server's)")
	streams := fs.Int("streams", 4, "concurrent connections")
	sweep := fs.String("sweep", "", "comma-separated stream counts to run one after another (closed loop; overrides -streams)")
	fs.IntVar(&cfg.OpsPerStream, "ops", 8, "operations per stream (closed loop)")
	fs.StringVar(&cfg.Workload, "workload", "mixed", "operation mix: route, sort, or mixed")
	fs.BoolVar(&cfg.Verify, "verify", true, "cross-check every result against an in-process serial golden")
	fs.IntVar(&cfg.FaultEvery, "fault-every", 0, "inject a deterministic transient fault into every k-th op of each stream (0 = none; the server needs -allow-fault-injection)")
	fs.IntVar(&cfg.Retries, "retries", 0, "server-side retry budget of the injected-fault operations")
	fs.DurationVar(&cfg.RetryBackoff, "retry-backoff", 0, "base backoff between those retries")
	fs.Float64Var(&cfg.Rate, "rate", 0, "open loop: offered ops/sec (0 = closed loop)")
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "open loop: measured window")
	fs.DurationVar(&cfg.OpDeadline, "deadline", 0, "per-operation deadline, microsecond wire granularity (0 = none)")
	timeout := fs.Duration("timeout", 0, "overall deadline (0 = none)")
	requireZeroFailed := fs.Bool("require-zero-failed", false, "fail if any operation hard-failed (sheds do not count)")
	return func([]string) error {
		if cfg.Addr == "" {
			return fmt.Errorf("load needs -addr")
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		levels := []int{*streams}
		if *sweep != "" {
			levels = levels[:0]
			for _, part := range strings.Split(*sweep, ",") {
				s, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil || s < 1 {
					return fmt.Errorf("bad -sweep entry %q", part)
				}
				levels = append(levels, s)
			}
		}
		if cfg.Rate > 0 && len(levels) > 1 {
			return fmt.Errorf("open loop (-rate) takes a single -streams level, not a sweep")
		}
		cl, err := service.Dial(cfg.Addr)
		if err != nil {
			return fmt.Errorf("dial %s: %w", cfg.Addr, err)
		}
		st, err := cl.ServerStats()
		cl.Close()
		if err != nil {
			return fmt.Errorf("server stats from %s: %w", cfg.Addr, err)
		}
		if cfg.N == 0 {
			cfg.N = st.N
		}
		rows, err := runLoad(ctx, cfg, levels)
		if err != nil {
			return err
		}
		emit(serviceTable(fmt.Sprintf("Load against %s: n=%d, server k=%d queue=%d batch=%d",
			cfg.Addr, cfg.N, st.MaxConcurrency, st.QueueDepth, st.BatchMaxOps), rows))
		for _, r := range rows {
			if *requireZeroFailed && r.FailedOps > 0 {
				return fmt.Errorf("-require-zero-failed: %d operations hard-failed at %d streams", r.FailedOps, r.Streams)
			}
		}
		return nil
	}
}

// runLoad runs cfg once per stream level and maps every result onto a
// service-section row. A level with failed operations logs its per-stream
// error counts and first error.
func runLoad(ctx context.Context, cfg loadgen.Config, levels []int) ([]experiments.ServiceBench, error) {
	var rows []experiments.ServiceBench
	for _, s := range levels {
		cfg.Streams = s
		res, err := loadgen.Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%d streams: %w", s, err)
		}
		if res.FailedOps > 0 {
			log.Printf("%d streams: stream errors %v (first: %s)", s, res.StreamErrors, res.FirstError)
		}
		rows = append(rows, serviceRow(res))
	}
	return rows, nil
}

func serviceRow(r loadgen.Result) experiments.ServiceBench {
	mode := "closed"
	if r.Rate > 0 {
		mode = "open"
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return experiments.ServiceBench{
		Mode:            mode,
		Workload:        r.Workload,
		Streams:         r.Streams,
		Rate:            r.Rate,
		OfferedOps:      r.TotalOps,
		SucceededOps:    r.SucceededOps,
		SheddedOps:      r.SheddedOps,
		FailedOps:       r.FailedOps,
		Retries:         r.Retries,
		PlanCacheHits:   r.PlanCacheHits,
		PlanCacheMisses: r.PlanCacheMisses,
		VerifiedOps:     r.Verified,
		OpsPerSec:       r.OpsPerSec,
		P50Ms:           ms(r.P50),
		P99Ms:           ms(r.P99),
		P999Ms:          ms(r.P999),
		WallMs:          ms(r.Wall),
	}
}

func serviceTable(caption string, rows []experiments.ServiceBench) *tables.Table {
	t := tables.New(caption, "mode", "workload", "streams", "rate/s", "offered", "ok", "shed", "failed", "retries",
		"cache hit/miss", "verified", "ops/s", "p50 ms", "p99 ms", "p999 ms")
	for _, r := range rows {
		t.AddRow(r.Mode, r.Workload, r.Streams, r.Rate, r.OfferedOps, r.SucceededOps, r.SheddedOps, r.FailedOps, r.Retries,
			fmt.Sprintf("%d/%d", r.PlanCacheHits, r.PlanCacheMisses), r.VerifiedOps,
			fmt.Sprintf("%.1f", r.OpsPerSec), fmt.Sprintf("%.1f", r.P50Ms), fmt.Sprintf("%.1f", r.P99Ms), fmt.Sprintf("%.1f", r.P999Ms))
	}
	return t
}

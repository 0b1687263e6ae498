// Command cliqueload is the concurrent load generator for the session API's
// engine pool and for a running cliqued server: it drives M concurrent
// streams of mixed Route/Sort operations — against one pooled in-process
// Clique handle, or over the wire with -addr — and reports aggregate
// throughput and latency percentiles. Every result is cross-checked bit for
// bit against a serial golden run unless -verify=false.
//
//	# 8 streams of mixed ops on a 256-node clique, pool of 4 engines
//	go run ./cmd/cliqueload -n 256 -concurrency 4 -streams 8 -ops 8 -workload mixed
//
//	# throughput scaling sweep: serial handle vs pooled handle at k=2,4,8
//	go run ./cmd/cliqueload -n 256 -sweep 1,2,4,8 -json load.json
//
//	# closed-loop network run against a cliqued daemon, two stream levels
//	go run ./cmd/cliqueload -addr 127.0.0.1:9024 -sweep 2,8 -ops 16
//
//	# open loop: offer 500 ops/sec for 5s regardless of completions — the
//	# honest way to measure past saturation; sheds are counted separately
//	go run ./cmd/cliqueload -addr 127.0.0.1:9024 -rate 500 -duration 5s
//
// In network mode -sweep sweeps client stream (connection) counts — the
// server's engine-pool size is fixed by the daemon and echoed in the k
// column. -protocol-json merges the run into the service section of
// BENCH_protocol.json.
//
// In-process engines share the machine's memory bandwidth and one run
// already keeps GOMAXPROCS sweep workers busy, so scaling with k is bounded by
// cores (the report records cores and GOMAXPROCS alongside every number —
// compare like with like).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"congestedclique/internal/experiments"
	"congestedclique/internal/loadgen"
	"congestedclique/internal/service"
)

// report is the JSON schema of one measured configuration.
type report struct {
	Mode         string  `json:"mode"`
	Addr         string  `json:"addr,omitempty"`
	N            int     `json:"n"`
	Concurrency  int     `json:"concurrency"`
	Streams      int     `json:"streams"`
	OpsPerStream int     `json:"ops_per_stream,omitempty"`
	Rate         float64 `json:"rate_ops_per_sec,omitempty"`
	Workload     string  `json:"workload"`
	Cores        int     `json:"cores"`
	Gomaxprocs   int     `json:"gomaxprocs"`
	TotalOps     int     `json:"total_ops"`
	WallMs       float64 `json:"wall_ms"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	P50Ms        float64 `json:"latency_p50_ms"`
	P90Ms        float64 `json:"latency_p90_ms"`
	P99Ms        float64 `json:"latency_p99_ms"`
	P999Ms       float64 `json:"latency_p999_ms"`
	Verified     int     `json:"verified_ops"`
	SucceededOps int     `json:"succeeded_ops"`
	FailedOps    int     `json:"failed_ops"`
	SheddedOps   int     `json:"shedded_ops"`
	StreamErrors []int   `json:"stream_errors,omitempty"`
	FirstError   string  `json:"first_error,omitempty"`
	Retries      int64   `json:"retries"`
	// PlanCacheHits/PlanCacheMisses are the server-side plan-cache counter
	// deltas over the run (network mode against a -plan-cache server only).
	PlanCacheHits   int64 `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses int64 `json:"plan_cache_misses,omitempty"`
	// SpeedupVsSerial is aggregate throughput relative to the sweep's k=1
	// entry (only set in in-process sweep mode).
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func toReport(r loadgen.Result) report {
	return report{
		Mode:            "in-process",
		N:               r.N,
		Concurrency:     r.Concurrency,
		Streams:         r.Streams,
		OpsPerStream:    r.OpsPerStream,
		Workload:        r.Workload,
		Cores:           r.Cores,
		Gomaxprocs:      r.Gomaxprocs,
		TotalOps:        r.TotalOps,
		WallMs:          ms(r.Wall),
		OpsPerSec:       r.OpsPerSec,
		P50Ms:           ms(r.P50),
		P90Ms:           ms(r.P90),
		P99Ms:           ms(r.P99),
		P999Ms:          ms(r.P999),
		Verified:        r.Verified,
		SucceededOps:    r.SucceededOps,
		FailedOps:       r.FailedOps,
		SheddedOps:      r.SheddedOps,
		StreamErrors:    r.StreamErrors,
		FirstError:      r.FirstError,
		Retries:         r.Retries,
		PlanCacheHits:   r.PlanCacheHits,
		PlanCacheMisses: r.PlanCacheMisses,
	}
}

func main() {
	log.SetFlags(0)
	n := flag.Int("n", 256, "clique size (network mode: adopted from the server unless set explicitly)")
	concurrency := flag.Int("concurrency", runtime.GOMAXPROCS(0), "engine-pool size k (WithMaxConcurrency; in-process mode)")
	streams := flag.Int("streams", 0, "concurrent caller streams / connections (default: same as -concurrency, or 4 in network mode)")
	ops := flag.Int("ops", 8, "operations per stream (closed loop)")
	workloadKind := flag.String("workload", "mixed", "operation mix: route, sort, or mixed")
	verify := flag.Bool("verify", true, "cross-check every result against a serial golden run")
	faultEvery := flag.Int("fault-every", 0, "inject a deterministic transient fault into every k-th op of each stream (0 = none)")
	retries := flag.Int("retries", 0, "retry budget (WithRetry) for injected-fault operations")
	retryBackoff := flag.Duration("retry-backoff", 0, "base backoff between retries of injected-fault operations")
	sweep := flag.String("sweep", "", "comma-separated levels to sweep: pool sizes in-process (streams follow k), stream counts in network mode")
	jsonPath := flag.String("json", "", "write the report as JSON to this file")
	timeout := flag.Duration("timeout", 0, "overall deadline (0 = none)")
	addr := flag.String("addr", "", "network mode: drive the cliqued server at this host:port over the wire protocol")
	rate := flag.Float64("rate", 0, "network mode: open-loop offered ops/sec (0 = closed loop)")
	duration := flag.Duration("duration", 5*time.Second, "network mode: open-loop measured window (with -rate)")
	opDeadline := flag.Duration("deadline", 0, "network mode: per-operation deadline, microsecond wire granularity (0 = none)")
	outPath := flag.String("out", "", "also write the printed table to this file")
	protocolJSON := flag.String("protocol-json", "", "network mode: merge the run into the service section of this BENCH_protocol.json")
	requireZeroFailed := flag.Bool("require-zero-failed", false, "exit nonzero if any operation hard-failed (sheds do not count)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	levels := []int{0} // placeholder; resolved per mode below
	if *sweep != "" {
		levels = levels[:0]
		for _, part := range strings.Split(*sweep, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || k < 1 {
				log.Fatalf("cliqueload: bad -sweep entry %q", part)
			}
			levels = append(levels, k)
		}
	}

	var reports []report
	if *addr != "" {
		reports = runNetworkMode(ctx, netOptions{
			addr: *addr, n: *n, nSet: flagWasSet("n"), streams: *streams,
			ops: *ops, workload: *workloadKind, verify: *verify,
			faultEvery: *faultEvery, retries: *retries, retryBackoff: *retryBackoff,
			rate: *rate, duration: *duration, opDeadline: *opDeadline,
			sweepLevels: levels, sweeping: *sweep != "",
			protocolJSON: *protocolJSON,
		})
	} else {
		if *protocolJSON != "" {
			log.Fatal("cliqueload: -protocol-json requires network mode (-addr); cmd/cliquebench owns the in-process sections")
		}
		if *sweep == "" {
			levels[0] = *concurrency
		}
		fmt.Printf("cliqueload: n=%d workload=%s ops/stream=%d verify=%v cores=%d GOMAXPROCS=%d\n",
			*n, *workloadKind, *ops, *verify, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		for _, k := range levels {
			s := *streams
			if s == 0 || *sweep != "" {
				s = k
			}
			res, err := loadgen.Run(ctx, loadgen.Config{
				N:            *n,
				Concurrency:  k,
				Streams:      s,
				OpsPerStream: *ops,
				Workload:     *workloadKind,
				Verify:       *verify,
				FaultEvery:   *faultEvery,
				Retries:      *retries,
				RetryBackoff: *retryBackoff,
			})
			if err != nil {
				log.Fatalf("cliqueload: k=%d: %v", k, err)
			}
			reports = append(reports, toReport(res))
		}
		// Speedups are a sweep-mode concept: they compare against the
		// sweep's own k=1 entry, wherever in the sweep it appears.
		if *sweep != "" {
			var serial float64
			for _, r := range reports {
				if r.Concurrency == 1 {
					serial = r.OpsPerSec
					break
				}
			}
			if serial > 0 {
				for i := range reports {
					reports[i].SpeedupVsSerial = reports[i].OpsPerSec / serial
				}
			}
		}
	}

	table := formatTable(reports)
	fmt.Print(table)
	if *verify {
		total := 0
		for _, r := range reports {
			total += r.Verified
		}
		fmt.Printf("verified %d operations bit-identical to serial execution\n", total)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(table), 0o644); err != nil {
			log.Fatalf("cliqueload: write %s: %v", *outPath, err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}

	if *jsonPath != "" {
		doc := struct {
			Tool    string   `json:"tool"`
			Schema  string   `json:"schema"`
			Results []report `json:"results"`
		}{Tool: "cliqueload", Schema: "congestedclique/cliqueload/v1", Results: reports}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatalf("cliqueload: marshal: %v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			log.Fatalf("cliqueload: write %s: %v", *jsonPath, err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	if *requireZeroFailed {
		for _, rep := range reports {
			if rep.FailedOps > 0 {
				log.Fatalf("cliqueload: -require-zero-failed: %d operations hard-failed (first: %s)",
					rep.FailedOps, rep.FirstError)
			}
		}
	}
}

// netOptions carries the resolved flag values of one network-mode run.
type netOptions struct {
	addr         string
	n            int
	nSet         bool
	streams      int
	ops          int
	workload     string
	verify       bool
	faultEvery   int
	retries      int
	retryBackoff time.Duration
	rate         float64
	duration     time.Duration
	opDeadline   time.Duration
	sweepLevels  []int
	sweeping     bool
	protocolJSON string
}

// runNetworkMode drives a cliqued server: one closed-loop run per stream
// level, or a single open-loop run when -rate is set. The server's clique
// size and pool configuration are learned over the wire (OpServerStats) so
// the rows carry the server's k, not the client's GOMAXPROCS.
func runNetworkMode(ctx context.Context, o netOptions) []report {
	cl, err := service.Dial(o.addr)
	if err != nil {
		log.Fatalf("cliqueload: dial %s: %v", o.addr, err)
	}
	st, err := cl.ServerStats()
	cl.Close()
	if err != nil {
		log.Fatalf("cliqueload: server stats from %s: %v", o.addr, err)
	}
	if o.nSet && o.n != st.N {
		log.Fatalf("cliqueload: server at %s serves n=%d, -n asked for %d", o.addr, st.N, o.n)
	}
	o.n = st.N

	levels := o.sweepLevels
	if !o.sweeping {
		s := o.streams
		if s == 0 {
			s = 4
		}
		levels = []int{s}
	}
	if o.rate > 0 && len(levels) > 1 {
		log.Fatal("cliqueload: open loop (-rate) takes a single -streams level, not a sweep")
	}

	mode := "closed"
	if o.rate > 0 {
		mode = "open"
	}
	fmt.Printf("cliqueload: addr=%s n=%d server k=%d queue=%d batch=%d workload=%s mode=%s verify=%v\n",
		o.addr, o.n, st.MaxConcurrency, st.QueueDepth, st.BatchMaxOps, o.workload, mode, o.verify)

	var reports []report
	for _, s := range levels {
		res, err := loadgen.RunNetwork(ctx, loadgen.NetworkConfig{
			Config: loadgen.Config{
				N:            o.n,
				Concurrency:  st.MaxConcurrency,
				Streams:      s,
				OpsPerStream: o.ops,
				Workload:     o.workload,
				Verify:       o.verify,
				FaultEvery:   o.faultEvery,
				Retries:      o.retries,
				RetryBackoff: o.retryBackoff,
			},
			Addr:       o.addr,
			Rate:       o.rate,
			Duration:   o.duration,
			OpDeadline: o.opDeadline,
		})
		if err != nil {
			log.Fatalf("cliqueload: streams=%d: %v", s, err)
		}
		rep := toReport(res)
		rep.Mode = "net-" + mode
		rep.Addr = o.addr
		rep.Rate = o.rate
		reports = append(reports, rep)
	}

	if o.protocolJSON != "" {
		writeServiceSection(o, st, mode, reports)
	}
	return reports
}

// writeServiceSection merges the run's rows into the service section of
// BENCH_protocol.json, preserving every other tool's sections.
func writeServiceSection(o netOptions, st *service.StatsReply, mode string, reports []report) {
	doc, err := experiments.ReadProtocolDoc(o.protocolJSON)
	if err != nil {
		log.Fatalf("cliqueload: %v", err)
	}
	sec := doc.Service
	if sec == nil || sec.N != o.n || sec.ServerConcurrency != st.MaxConcurrency ||
		sec.QueueDepth != st.QueueDepth {
		sec = &experiments.ServiceSection{
			Tool:              "cliqueload",
			Schema:            "congestedclique/cliqueload-service/v1",
			N:                 o.n,
			ServerConcurrency: st.MaxConcurrency,
			QueueDepth:        st.QueueDepth,
			BatchMaxOps:       st.BatchMaxOps,
			Note: "measured end to end over the wire protocol against a local cliqued; " +
				"closed rows fix the stream count, open rows hold an offered rate through " +
				"saturation — shedded_ops are named bounded-queue rejections, failed_ops " +
				"must stay zero for the overload claim to hold",
		}
	}
	for _, rep := range reports {
		sec.MergeServiceRun(experiments.ServiceBench{
			Mode:            mode,
			Workload:        rep.Workload,
			Streams:         rep.Streams,
			Rate:            rep.Rate,
			OfferedOps:      rep.TotalOps,
			SucceededOps:    rep.SucceededOps,
			SheddedOps:      rep.SheddedOps,
			FailedOps:       rep.FailedOps,
			Retries:         rep.Retries,
			PlanCacheHits:   rep.PlanCacheHits,
			PlanCacheMisses: rep.PlanCacheMisses,
			VerifiedOps:     rep.Verified,
			OpsPerSec:       rep.OpsPerSec,
			P50Ms:           rep.P50Ms,
			P99Ms:           rep.P99Ms,
			P999Ms:          rep.P999Ms,
			WallMs:          rep.WallMs,
		})
	}
	doc.Service = sec
	if err := experiments.WriteProtocolDoc(o.protocolJSON, doc); err != nil {
		log.Fatalf("cliqueload: write %s: %v", o.protocolJSON, err)
	}
	fmt.Printf("merged service section into %s\n", o.protocolJSON)
}

// formatTable renders the fixed-width summary table shared by stdout and
// -out.
func formatTable(reports []report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-8s %-9s %-7s %-6s %-8s %10s %12s %9s %9s %9s %9s\n",
		"k", "streams", "ops", "failed", "shed", "retries", "wall", "ops/sec", "p50", "p90", "p99", "p999")
	for _, rep := range reports {
		fmt.Fprintf(&b, "%-4d %-8d %-9d %-7d %-6d %-8d %10s %12.2f %8.1fms %8.1fms %8.1fms %8.1fms",
			rep.Concurrency, rep.Streams, rep.TotalOps, rep.FailedOps, rep.SheddedOps, rep.Retries,
			time.Duration(rep.WallMs*float64(time.Millisecond)).Round(time.Millisecond),
			rep.OpsPerSec, rep.P50Ms, rep.P90Ms, rep.P99Ms, rep.P999Ms)
		if rep.SpeedupVsSerial > 0 {
			fmt.Fprintf(&b, "  (%0.2fx vs k=1)", rep.SpeedupVsSerial)
		}
		if rep.PlanCacheHits+rep.PlanCacheMisses > 0 {
			fmt.Fprintf(&b, "  (cache %d hits / %d misses)", rep.PlanCacheHits, rep.PlanCacheMisses)
		}
		b.WriteByte('\n')
	}
	for _, rep := range reports {
		if rep.FailedOps > 0 {
			fmt.Fprintf(&b, "k=%d stream errors: %v (first: %s)\n", rep.Concurrency, rep.StreamErrors, rep.FirstError)
		}
	}
	return b.String()
}

// flagWasSet reports whether the named flag was given on the command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

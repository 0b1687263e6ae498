package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// This file is the single definition of the BENCH_protocol.json schema
// (congestedclique/bench-protocol/v1). Two tools write into the same file —
// cmd/cliquebench -protocol-json owns the protocol and concurrency sections,
// cmd/cliquescen owns the scenarios section — so the schema lives here and
// each tool preserves the other's sections when regenerating its own (see
// ReadProtocolDoc).

// ProtocolBench is one end-to-end protocol measurement: a full Route or Sort
// execution per op, allocations included. Cores and Gomaxprocs record the
// host the row was measured on — since delivery fans out over cores, ns/op
// is only comparable between rows that agree on them.
type ProtocolBench struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	Cores       int     `json:"cores,omitempty"`
	Gomaxprocs  int     `json:"gomaxprocs,omitempty"`
	Iterations  int     `json:"iterations,omitempty"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Rounds      int     `json:"rounds,omitempty"`
	MaxEdgeW    int     `json:"max_edge_words,omitempty"`
	SpeedupVs   float64 `json:"speedup_vs_baseline,omitempty"`
	AllocRatio  float64 `json:"alloc_reduction_vs_baseline,omitempty"`
}

// ConcurrencyBench is one measured point of the engine-pool throughput
// sweep: k concurrent streams on one handle with a pool of k engines,
// measured by the shared internal/loadgen harness (the same measurement
// cmd/cliqueload performs interactively). Every operation's result is
// verified bit-identical to serial execution before it counts.
type ConcurrencyBench struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	K           int     `json:"k"`
	Streams     int     `json:"streams"`
	TotalOps    int     `json:"total_ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Ms       float64 `json:"latency_p50_ms"`
	P99Ms       float64 `json:"latency_p99_ms"`
	SpeedupVsK1 float64 `json:"speedup_vs_k1,omitempty"`
	VerifiedOps int     `json:"verified_ops"`
}

// ConcurrencySection is the concurrency block of BENCH_protocol.json. The
// in-process engine shares one machine's memory bandwidth and every run
// already keeps GOMAXPROCS sweep workers busy, so scaling with k is bounded by
// Cores/Gomaxprocs — the numbers are recorded as measured on this machine,
// not extrapolated.
type ConcurrencySection struct {
	Cores      int                `json:"cores"`
	Gomaxprocs int                `json:"gomaxprocs"`
	Note       string             `json:"note"`
	Route      []ConcurrencyBench `json:"route"`
	Sort       []ConcurrencyBench `json:"sort"`
}

// ScenarioBench is one row of the scenario catalog sweep: the demand-aware
// planner (AlgorithmAuto) run once on the named workload scenario, compared
// against the full deterministic pipeline on the same instance.
type ScenarioBench struct {
	Scenario string `json:"scenario"`
	N        int    `json:"n"`
	// Strategy is the planner's verdict (pipeline | direct | broadcast |
	// empty) with the plan's one-line reason alongside.
	Strategy string `json:"strategy"`
	Reason   string `json:"reason"`
	// Rounds/MaxEdgeWords/TotalMessages/TotalWords are the model-cost
	// statistics of the planned execution.
	Rounds        int   `json:"rounds"`
	MaxEdgeWords  int   `json:"max_edge_words"`
	TotalMessages int64 `json:"total_messages"`
	TotalWords    int64 `json:"total_words"`
	// PipelineTotalWords is the word cost of the deterministic pipeline on
	// the identical instance; WordsVsPipeline = PipelineTotalWords /
	// TotalWords (omitted when the planned execution moved zero words).
	PipelineTotalWords int64   `json:"pipeline_total_words"`
	WordsVsPipeline    float64 `json:"words_vs_pipeline,omitempty"`
	// NsPerOp/AllocsPerOp are wall-clock and allocation figures of the
	// planned execution (warm engine, one measured iteration by default).
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// RandomizedTotalWords/RandomizedRounds are the cost of the randomized
	// Valiant-style two-hop baseline on the identical instance (routing
	// scenarios only — the randomized sorting baseline is a different
	// algorithm family, not a per-scenario routing comparison);
	// WordsVsRandomized = RandomizedTotalWords / TotalWords.
	RandomizedTotalWords int64   `json:"randomized_total_words,omitempty"`
	RandomizedRounds     int     `json:"randomized_rounds,omitempty"`
	WordsVsRandomized    float64 `json:"words_vs_randomized,omitempty"`
	// Verified reports that the planned delivery was compared message by
	// message against the deterministic pipeline's and found identical.
	Verified bool `json:"verified"`
}

// ScenarioSection is the scenarios block of BENCH_protocol.json, written by
// cmd/cliquescen.
type ScenarioSection struct {
	Tool    string          `json:"tool"`
	Schema  string          `json:"schema"`
	N       int             `json:"n"`
	Seed    int64           `json:"seed"`
	Entries []ScenarioBench `json:"entries"`
}

// ServiceBench is one measured load run against a cliqued server over the
// wire protocol, produced by cmd/cliqueload -addr -protocol-json. Closed-loop
// rows ("closed") measure latency at a fixed client-concurrency level;
// open-loop rows ("open") hold an offered rate through saturation, where
// SheddedOps counts bounded-queue rejections (named errors, not failures —
// FailedOps stays the hard-failure count and must be zero for the shedding
// claim to hold).
type ServiceBench struct {
	Mode         string  `json:"mode"`
	Workload     string  `json:"workload"`
	Streams      int     `json:"streams"`
	Rate         float64 `json:"rate_ops_per_sec,omitempty"`
	OfferedOps   int     `json:"offered_ops"`
	SucceededOps int     `json:"succeeded_ops"`
	SheddedOps   int     `json:"shedded_ops"`
	FailedOps    int     `json:"failed_ops"`
	Retries      int64   `json:"retries"`
	// PlanCacheHits/PlanCacheMisses are the server-side plan-cache counter
	// deltas over the run (zero unless cliqued runs with -plan-cache).
	PlanCacheHits   int64   `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses int64   `json:"plan_cache_misses,omitempty"`
	VerifiedOps     int     `json:"verified_ops"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	P50Ms           float64 `json:"latency_p50_ms"`
	P99Ms           float64 `json:"latency_p99_ms"`
	P999Ms          float64 `json:"latency_p999_ms"`
	WallMs          float64 `json:"wall_ms"`
}

// ServiceSection is the service block of BENCH_protocol.json: the network
// front-end's throughput/latency profile as measured end to end by
// cmd/cliqueload -addr against a running cliqued. The server-side pool and
// queue configuration is recorded alongside so the rows are interpretable;
// runs merge by (mode, streams, rate) so the section can be regenerated one
// invocation at a time without losing the other rows.
type ServiceSection struct {
	Tool              string         `json:"tool"`
	Schema            string         `json:"schema"`
	N                 int            `json:"n"`
	ServerConcurrency int            `json:"server_concurrency"`
	QueueDepth        int            `json:"queue_depth"`
	BatchMaxOps       int            `json:"batch_max_ops"`
	Note              string         `json:"note"`
	Runs              []ServiceBench `json:"runs"`
}

// MergeServiceRun replaces the section row with the same (mode, streams,
// rate) key or appends a new one, keeping regeneration idempotent.
func (s *ServiceSection) MergeServiceRun(run ServiceBench) {
	for i, r := range s.Runs {
		if r.Mode == run.Mode && r.Streams == run.Streams && r.Rate == run.Rate {
			s.Runs[i] = run
			return
		}
	}
	s.Runs = append(s.Runs, run)
}

// TemporalBench is one measured temporal-scenario trace: a sequence of
// routing instances with bursty repetition, executed on one handle with the
// plan cache armed (census charged) versus one plain AlgorithmAuto handle,
// every step's delivery deep-compared between the two. The speedup is net:
// the cache side pays the census on every step and the capture on every
// miss.
type TemporalBench struct {
	Scenario string `json:"scenario"`
	N        int    `json:"n"`
	// Steps is the trace length; DistinctInstances of them are unique, so
	// Steps - DistinctInstances are expected cache hits.
	Steps             int    `json:"steps"`
	DistinctInstances int    `json:"distinct_instances"`
	Strategy          string `json:"strategy"`
	CacheHits         int64  `json:"cache_hits"`
	CacheMisses       int64  `json:"cache_misses"`
	// HitRate = CacheHits / (CacheHits + CacheMisses).
	HitRate float64 `json:"hit_rate"`
	// MissRounds/HitRounds are the per-op round costs observed on the cache
	// side (census included); CacheOffRounds is the plain planner's cost.
	CacheOffRounds int `json:"cache_off_rounds"`
	MissRounds     int `json:"miss_rounds"`
	HitRounds      int `json:"hit_rounds"`
	// CacheOffNsPerOp/CacheOnNsPerOp are amortized wall times over the whole
	// trace; NetSpeedup = CacheOffNsPerOp / CacheOnNsPerOp.
	CacheOffNsPerOp    int64   `json:"cache_off_ns_per_op"`
	CacheOnNsPerOp     int64   `json:"cache_on_ns_per_op"`
	NetSpeedup         float64 `json:"net_speedup"`
	CacheOffTotalWords int64   `json:"cache_off_total_words"`
	CacheOnTotalWords  int64   `json:"cache_on_total_words"`
	// Verified reports that every step's delivery on the cached handle was
	// compared message by message against the cache-off handle's.
	Verified bool `json:"verified"`
}

// TemporalSection is the temporal block of BENCH_protocol.json, written by
// cmd/cliquescen -temporal. Rows merge by (scenario, n) so the section can
// be regenerated one trace at a time.
type TemporalSection struct {
	Tool    string          `json:"tool"`
	Schema  string          `json:"schema"`
	Seed    int64           `json:"seed"`
	Note    string          `json:"note,omitempty"`
	Entries []TemporalBench `json:"entries"`
}

// MergeTemporalRun replaces the row with the same (scenario, n) key or
// appends a new one, keeping regeneration idempotent.
func (s *TemporalSection) MergeTemporalRun(run TemporalBench) {
	for i, r := range s.Entries {
		if r.Scenario == run.Scenario && r.N == run.N {
			s.Entries[i] = run
			return
		}
	}
	s.Entries = append(s.Entries, run)
}

// ScalingBench is one point of the scale-out frontier curve: a full
// protocol run (sparse demand, AlgorithmAuto) at one clique size, with wall
// time, allocation figures and the process peak RSS recorded alongside the
// model cost.
type ScalingBench struct {
	// Op names the measured operation: route-sparse, route-broadcast or
	// sort-presorted.
	Op string `json:"op"`
	N  int    `json:"n"`
	// Strategy is the planner verdict the run executed under.
	Strategy      string `json:"strategy"`
	Rounds        int    `json:"rounds"`
	TotalMessages int64  `json:"total_messages"`
	TotalWords    int64  `json:"total_words"`
	Iterations    int    `json:"iterations"`
	NsPerOp       int64  `json:"ns_per_op"`
	AllocsPerOp   int64  `json:"allocs_per_op"`
	BytesPerOp    int64  `json:"bytes_per_op"`
	// PeakRSSBytes is the process high-water resident set (VmHWM) sampled
	// right after this point's runs. It is monotone across the whole
	// invocation, so with sizes measured in ascending order it reads as
	// "peak RSS after completing size n".
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
	// Verified reports that the point's output passed the internal/verify
	// oracle (Routing respectively Sorting), which cliquebench runs at every
	// n; documents written before that check existed carry false at n >= 4096.
	Verified bool `json:"verified"`
}

// ScalingSection is the scaling block of BENCH_protocol.json, written by
// cmd/cliquebench -scaling-json. Rows merge by (op, n) so the curve can be
// extended one size at a time.
type ScalingSection struct {
	Tool    string         `json:"tool"`
	Schema  string         `json:"schema"`
	Note    string         `json:"note"`
	Entries []ScalingBench `json:"entries"`
}

// MergeScalingRun replaces the row with the same (op, n) key or appends a
// new one, keeping regeneration idempotent.
func (s *ScalingSection) MergeScalingRun(run ScalingBench) {
	for i, r := range s.Entries {
		if r.Op == run.Op && r.N == run.N {
			s.Entries[i] = run
			return
		}
	}
	s.Entries = append(s.Entries, run)
}

// PeakRSSBytes returns the process's peak resident set size (VmHWM) in
// bytes, or 0 when the platform does not expose /proc/self/status.
func PeakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// ProtocolDoc is the schema of BENCH_protocol.json.
type ProtocolDoc struct {
	Tool     string          `json:"tool"`
	Schema   string          `json:"schema"`
	MaxN     int             `json:"max_n"`
	Measured []ProtocolBench `json:"measured"`
	// SessionReuse measures the same workloads issued repeatedly on one
	// long-lived Clique handle (the session API): amortized ns/op and
	// allocs/op of the warm-engine path, comparable entry by entry with the
	// fresh-handle numbers in Measured.
	SessionReuse []ProtocolBench `json:"session_reuse,omitempty"`
	// Concurrency records the engine-pool throughput sweep (see
	// ConcurrencySection).
	Concurrency *ConcurrencySection `json:"concurrency,omitempty"`
	// Scenarios records the demand-aware planner's scenario catalog sweep
	// (see ScenarioSection); owned by cmd/cliquescen and preserved by
	// cmd/cliquebench.
	Scenarios *ScenarioSection `json:"scenarios,omitempty"`
	// Service records the network front-end's measured profile (see
	// ServiceSection); owned by cmd/cliqueload -addr -protocol-json and
	// preserved by the other writers.
	Service *ServiceSection `json:"service,omitempty"`
	// Temporal records the cross-run plan-cache profile on bursty instance
	// sequences (see TemporalSection); owned by cmd/cliquescen -temporal and
	// preserved by the other writers.
	Temporal *TemporalSection `json:"temporal,omitempty"`
	// Scaling records the sparse scale-out frontier curve (see
	// ScalingSection); owned by cmd/cliquebench -scaling-json and preserved
	// by the other writers.
	Scaling *ScalingSection `json:"scaling,omitempty"`
}

// OpMeasurement is one wall-clock/allocation measurement produced by
// MeasureOp, in per-operation units.
type OpMeasurement struct {
	NsPerOp     int64
	AllocsPerOp int64
	BytesPerOp  int64
}

// MeasureOp is the shared measurement discipline of cliquebench and
// cliquescen: run op iters times after a GC flush and report wall time and
// allocation figures per op. The caller is responsible for warming the op
// (pools, engine construction) before measuring; both BENCH_protocol.json
// producers use this one helper so their sections stay comparable.
func MeasureOp(iters int, op func() error) (OpMeasurement, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return OpMeasurement{}, err
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return OpMeasurement{
		NsPerOp:     wall.Nanoseconds() / int64(iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
	}, nil
}

// ReadProtocolDoc loads an existing BENCH_protocol.json so a tool can
// regenerate its own sections while preserving the others. A missing file
// returns an empty doc; a malformed one returns an error (overwriting a file
// that fails to parse would silently destroy the other tool's sections).
func ReadProtocolDoc(path string) (ProtocolDoc, error) {
	var doc ProtocolDoc
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return doc, nil
	}
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("experiments: %s exists but does not parse as bench-protocol JSON: %w", path, err)
	}
	return doc, nil
}

// WriteProtocolDoc writes the doc back with stable indentation.
func WriteProtocolDoc(path string, doc ProtocolDoc) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

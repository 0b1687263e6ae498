package experiments

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// This file is the schema of BENCH_protocol.json
// (congestedclique/bench-protocol/v2). `cliquebench record` is its only
// writer and regenerates the whole document in one invocation, so every
// section was measured on the Host recorded once at the top.

// Host is the machine a document was measured on. Delivery fans out over
// cores, so wall times only compare between documents that agree on it.
type Host struct {
	Cores      int    `json:"cores"`
	Gomaxprocs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
}

// CurrentHost describes the running process's machine.
func CurrentHost() Host {
	return Host{
		Cores:      runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// ProtocolBench is one end-to-end protocol measurement: a full Route or Sort
// execution per op on a fresh one-shot handle, allocations included.
type ProtocolBench struct {
	Name        string `json:"name"`
	N           int    `json:"n"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	Rounds      int    `json:"rounds"`
	MaxEdgeW    int    `json:"max_edge_words"`
}

// ScenarioBench is one row of the scenario catalog sweep: the demand-aware
// planner (AlgorithmAuto) run on the named workload scenario, compared
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

// ScenarioSection is the scenarios block of BENCH_protocol.json.
type ScenarioSection struct {
	N       int             `json:"n"`
	Seed    int64           `json:"seed"`
	Entries []ScenarioBench `json:"entries"`
}

// ServiceBench is one measured load run against a service.Server over the
// wire protocol. Closed-loop rows ("closed") measure latency at a fixed
// client-concurrency level; open-loop rows ("open") hold an offered rate
// through saturation, where SheddedOps counts bounded-queue rejections
// (named errors, not failures — FailedOps stays the hard-failure count and
// must be zero for the shedding claim to hold).
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
	// deltas over the run (zero unless the server runs a plan cache).
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
// front-end's throughput/latency profile measured end to end against an
// in-process service.Server on loopback, with the server's pool, queue and
// batching configuration recorded so the rows are interpretable.
type ServiceSection struct {
	N                 int            `json:"n"`
	ServerConcurrency int            `json:"server_concurrency"`
	QueueDepth        int            `json:"queue_depth"`
	BatchMaxOps       int            `json:"batch_max_ops"`
	PlanCache         int            `json:"plan_cache"`
	Note              string         `json:"note"`
	Runs              []ServiceBench `json:"runs"`
}

// TemporalBench is one measured temporal-scenario trace: a sequence of
// routing instances with bursty repetition, executed on one handle with the
// plan cache armed (census charged on misses) versus one plain
// AlgorithmAuto handle, every step's delivery deep-compared between the two.
// The speedup is net: the cache side pays the census and the capture on
// every miss, and the lookup and the nodes' row check on every hit.
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
	// side (a miss's census included; a hit pays none); CacheOffRounds is
	// the plain planner's cost.
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

// TemporalSection is the temporal block of BENCH_protocol.json.
type TemporalSection struct {
	Seed    int64           `json:"seed"`
	Note    string          `json:"note,omitempty"`
	Entries []TemporalBench `json:"entries"`
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
	// invocation, so with sizes measured in ascending order, before any
	// other section, it reads as "peak RSS after completing size n".
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
	// Verified reports that the point's output passed the internal/verify
	// oracle (Routing respectively Sorting).
	Verified bool `json:"verified"`
}

// ScalingSection is the scaling block of BENCH_protocol.json.
type ScalingSection struct {
	Note    string         `json:"note"`
	Entries []ScalingBench `json:"entries"`
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
	Tool   string `json:"tool"`
	Schema string `json:"schema"`
	MaxN   int    `json:"max_n"`
	Host   Host   `json:"host"`
	// MeasureNote says how the per-op figures of every section are
	// measured (MeasureOp).
	MeasureNote string `json:"measure_note"`
	// Measured holds the one-shot Route and Sort rows at n = 64, 256 and
	// 1024 (up to MaxN).
	Measured  []ProtocolBench  `json:"measured"`
	Scenarios *ScenarioSection `json:"scenarios,omitempty"`
	Service   *ServiceSection  `json:"service,omitempty"`
	Temporal  *TemporalSection `json:"temporal,omitempty"`
	Scaling   *ScalingSection  `json:"scaling,omitempty"`
}

// WriteFile writes the document to path with stable indentation.
func (d *ProtocolDoc) WriteFile(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// OpMeasurement is one wall-clock/allocation measurement produced by
// MeasureOp, in per-operation units.
type OpMeasurement struct {
	NsPerOp     int64
	AllocsPerOp int64
	BytesPerOp  int64
}

// MeasureOp is the measurement discipline of every per-op figure in
// BENCH_protocol.json (the one-shot, scenario and scaling rows; MeasureNote
// says so in the file). It turns the collector off, and each of the iters
// timed runs of op follows an untimed run of op and a GC flush; only the
// timed runs count. The flush keeps what the process's sync.Pools hold (a
// collection sets pooled values aside, and only the next one drops them)
// and frees the untimed run's garbage for the timed run to reuse, so every
// timed run finds the pools as op itself leaves them, and ns/op includes no
// collection work. A one-shot op's fresh engine and every op's protocols
// take their buffers from those pools: with the collector on, a collection
// in the window empties them, and what a row read depended on the
// collector's phase, not on the code.
func MeasureOp(iters int, op func() error) (OpMeasurement, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var wall time.Duration
	var mallocs, bytes uint64
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return OpMeasurement{}, err
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := op(); err != nil {
			return OpMeasurement{}, err
		}
		wall += time.Since(start)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	return OpMeasurement{
		NsPerOp:     wall.Nanoseconds() / int64(iters),
		AllocsPerOp: int64(mallocs) / int64(iters),
		BytesPerOp:  int64(bytes) / int64(iters),
	}, nil
}

// MeasureNote is BENCH_protocol.json's account of the state its per-op
// figures measure (see MeasureOp).
const MeasureNote = "ns/op, allocs/op and bytes/op of the measured, scenario and scaling rows: with the " +
	"collector off, each timed op follows an untimed op of the same row and a GC flush (experiments.MeasureOp), " +
	"so it finds the process's pools as that op left them, whatever the collector's phase; ns/op includes no " +
	"collection work. The temporal rows time their whole trace with the collector on."

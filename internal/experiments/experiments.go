// Package experiments contains the measurement harness shared by
// cmd/cliquebench and the repository-level benchmarks. Every measurement
// verifies the protocol output before reporting numbers, so a reported round
// count always corresponds to a correct execution.
package experiments

import (
	"fmt"
	"time"

	"congestedclique/internal/baseline"
	"congestedclique/internal/bipartite"
	"congestedclique/internal/clique"
	"congestedclique/internal/core"
	"congestedclique/internal/verify"
	"congestedclique/internal/workload"
)

// Measurement is the outcome of one verified protocol execution.
type Measurement struct {
	N               int
	Load            int
	Workload        string
	Algorithm       string
	Rounds          int
	MaxEdgeWords    int
	MaxEdgeMessages int
	TotalWords      int64
	StepsPerNode    int64
	MemoryPerNode   int64
}

// RoutingAlgorithms lists the algorithm names accepted by RunRoute and
// MeasureRouting.
func RoutingAlgorithms() []string {
	return []string{"deterministic", "low-compute", "randomized", "naive-direct"}
}

// RunRoute runs one routing algorithm on a fresh n-node network, inputs[i]
// (one row per node) being node i's messages: a paper router ("deterministic", "low-compute")
// or a comparison baseline ("randomized", drawing from seed, and
// "naive-direct"), which nothing else runs. It returns what every node
// received and the run's metrics, unverified.
func RunRoute(n int, inputs [][]core.Message, algorithm string, seed int64) ([][]core.Message, clique.Metrics, error) {
	out := make([][]core.Message, n)
	m, err := runNodes(n, func(nd *clique.Node) (err error) {
		in := inputs[nd.ID()]
		switch algorithm {
		case "deterministic":
			out[nd.ID()], err = core.Route(nd, in)
		case "low-compute":
			out[nd.ID()], err = core.LowComputeRoute(nd, in)
		case "randomized":
			out[nd.ID()], err = baseline.RandomizedRoute(nd, in, seed)
		case "naive-direct":
			out[nd.ID()], err = baseline.NaiveDirectRoute(nd, in)
		default:
			err = fmt.Errorf("experiments: unknown routing algorithm %q", algorithm)
		}
		return err
	})
	return out, m, err
}

// RunSort runs one sorting algorithm — deterministic Algorithm 4
// ("deterministic") or the randomized sample-sort baseline ("randomized",
// drawing from seed) — on a fresh n-node network, inputs[i] (one row per
// node) being node i's keys. It returns every node's batch and the run's metrics, unverified.
func RunSort(n int, inputs [][]core.Key, algorithm string, seed int64) ([]*core.SortResult, clique.Metrics, error) {
	out := make([]*core.SortResult, n)
	m, err := runNodes(n, func(nd *clique.Node) (err error) {
		in := inputs[nd.ID()]
		switch algorithm {
		case "deterministic":
			out[nd.ID()], err = core.Sort(nd, in)
		case "randomized":
			out[nd.ID()], err = baseline.RandomizedSampleSort(nd, in, seed)
		default:
			err = fmt.Errorf("experiments: unknown sorting algorithm %q", algorithm)
		}
		return err
	})
	return out, m, err
}

// runNodes runs program on a fresh n-node network and returns its metrics.
func runNodes(n int, program func(*clique.Node) error) (clique.Metrics, error) {
	nw, err := clique.New(n)
	if err != nil {
		return clique.Metrics{}, err
	}
	defer nw.Close()
	if err := nw.Run(program); err != nil {
		return clique.Metrics{}, err
	}
	return nw.Metrics(), nil
}

// MeasureRouting runs one routing workload under the chosen algorithm (see
// RunRoute), verifies the delivery and reports the cost.
func MeasureRouting(n, per int, pattern workload.RoutingPattern, algorithm string, seed int64) (*Measurement, error) {
	inst, err := workload.NewRoutingInstance(n, per, pattern, seed)
	if err != nil {
		return nil, err
	}
	results, m, err := RunRoute(n, inst.Msgs, algorithm, seed)
	if err != nil {
		return nil, err
	}
	if err := verify.Routing(inst.Msgs, results); err != nil {
		return nil, fmt.Errorf("experiments: routing output invalid: %w", err)
	}
	return fromMetrics(n, per, string(pattern), algorithm, m), nil
}

// MeasureSorting runs one sorting workload under the chosen algorithm (see
// RunSort), verifies the output and reports the cost.
func MeasureSorting(n, per int, dist workload.KeyDistribution, algorithm string, seed int64) (*Measurement, error) {
	inst, err := workload.NewSortingInstance(n, per, dist, seed)
	if err != nil {
		return nil, err
	}
	results, m, err := RunSort(n, inst.Keys, algorithm, seed)
	if err != nil {
		return nil, err
	}
	if err := verify.Sorting(inst.Keys, results); err != nil {
		return nil, fmt.Errorf("experiments: sorting output invalid: %w", err)
	}
	return fromMetrics(n, per, string(dist), algorithm, m), nil
}

// MeasureRank runs the Corollary 4.6 rank computation as an epilogue on the
// deterministic Sort, with Theorem 3.7 as its route back, and verifies it.
func MeasureRank(n, per int, dist workload.KeyDistribution, seed int64) (*Measurement, error) {
	inst, err := workload.NewSortingInstance(n, per, dist, seed)
	if err != nil {
		return nil, err
	}
	results := make([]*core.RankResult, n)
	m, err := runSorted(n, inst.Keys, func(nd *clique.Node, res *core.SortResult) (err error) {
		results[nd.ID()], err = core.Rank(nd, res, core.Route)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := verify.Ranks(inst.Keys, results); err != nil {
		return nil, fmt.Errorf("experiments: rank output invalid: %w", err)
	}
	return fromMetrics(n, per, string(dist), "rank", m), nil
}

// MeasureSelect runs the selection corollary (median) on the deterministic
// Sort and verifies the key node 0 learns (every node decodes the same
// broadcast).
func MeasureSelect(n, per int, dist workload.KeyDistribution, seed int64) (*Measurement, error) {
	inst, err := workload.NewSortingInstance(n, per, dist, seed)
	if err != nil {
		return nil, err
	}
	var median core.Key
	m, err := runSorted(n, inst.Keys, func(nd *clique.Node, res *core.SortResult) error {
		k, err := core.Median(nd, res)
		if nd.ID() == 0 {
			median = k
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := verify.Select(inst.Keys, (inst.TotalKeys()-1)/2, median); err != nil {
		return nil, fmt.Errorf("experiments: median invalid: %w", err)
	}
	return fromMetrics(n, per, string(dist), "select-median", m), nil
}

// MeasureMode runs the mode corollary on the deterministic Sort and verifies
// the mode node 0 learns (every node decodes the same broadcast).
func MeasureMode(n, per int, dist workload.KeyDistribution, seed int64) (*Measurement, error) {
	inst, err := workload.NewSortingInstance(n, per, dist, seed)
	if err != nil {
		return nil, err
	}
	var mode core.ModeResult
	m, err := runSorted(n, inst.Keys, func(nd *clique.Node, res *core.SortResult) error {
		got, err := core.Mode(nd, res)
		if err == nil && nd.ID() == 0 {
			mode = *got
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := verify.Mode(inst.Keys, mode.Value, mode.Count); err != nil {
		return nil, fmt.Errorf("experiments: mode invalid: %w", err)
	}
	return fromMetrics(n, per, string(dist), "mode", m), nil
}

// runSorted runs the deterministic Sort of keys on a fresh n-node network
// and, in the same run, epilogue on every node's result.
func runSorted(n int, keys [][]core.Key, epilogue func(*clique.Node, *core.SortResult) error) (clique.Metrics, error) {
	return runNodes(n, func(nd *clique.Node) error {
		res, err := core.Sort(nd, keys[nd.ID()])
		if err != nil {
			return err
		}
		return epilogue(nd, res)
	})
}

// MeasureSmallKeys runs the Section 6.3 counting protocol and verifies it.
func MeasureSmallKeys(n, per, domain int, seed int64) (*Measurement, error) {
	values, err := workload.NewSmallKeyInstance(n, per, domain, seed)
	if err != nil {
		return nil, err
	}
	results := make([]*core.SmallKeyResult, n)
	m, err := runNodes(n, func(nd *clique.Node) (err error) {
		results[nd.ID()], err = core.SmallKeyCount(nd, values[nd.ID()], domain)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := verify.Histogram(values, results[0]); err != nil {
		return nil, fmt.Errorf("experiments: histogram invalid: %w", err)
	}
	return fromMetrics(n, per, fmt.Sprintf("domain=%d", domain), "small-keys", m), nil
}

func fromMetrics(n, per int, wl, algorithm string, m clique.Metrics) *Measurement {
	return &Measurement{
		N:               n,
		Load:            per,
		Workload:        wl,
		Algorithm:       algorithm,
		Rounds:          m.Rounds,
		MaxEdgeWords:    m.MaxEdgeWords,
		MaxEdgeMessages: m.MaxEdgeMessages,
		TotalWords:      m.TotalWords,
		StepsPerNode:    m.MaxStepsPerNode,
		MemoryPerNode:   m.MaxMemoryWordsPerNode,
	}
}

// ColoringMeasurement is the outcome of one edge-coloring micro-benchmark
// (experiment E8).
type ColoringMeasurement struct {
	Size     int
	Degree   int
	Method   string
	Colors   int
	Duration time.Duration
}

// MeasureColoring times one coloring method ("exact", "greedy" or
// "euler-expanded") on a pseudo-random d-regular demand matrix of the given
// size and validates the result.
func MeasureColoring(size, degree int, method string, seed int64) (*ColoringMeasurement, error) {
	demand := workloadDemand(size, degree, seed)
	start := time.Now()
	var (
		colors int
		err    error
	)
	switch method {
	case "exact":
		var dc *bipartite.DemandColoring
		dc, err = bipartite.ColorDemandMatrix(demand, bipartite.MaxRowColSum(demand))
		if err == nil {
			colors = dc.NumColors
			err = dc.Validate(demand)
		}
	case "greedy":
		var dc *bipartite.DemandColoring
		dc, err = bipartite.ColorDemandGreedy(demand)
		if err == nil {
			colors = dc.NumColors
			err = dc.Validate(demand)
		}
	case "exact-expanded":
		var g *bipartite.Multigraph
		g, err = bipartite.ExpandDemand(demand)
		if err == nil {
			var col *bipartite.Coloring
			col, err = bipartite.ColorExact(g)
			if err == nil {
				colors = col.NumColors
				err = col.Validate(g)
			}
		}
	default:
		return nil, fmt.Errorf("experiments: unknown coloring method %q", method)
	}
	if err != nil {
		return nil, err
	}
	return &ColoringMeasurement{Size: size, Degree: degree, Method: method, Colors: colors, Duration: time.Since(start)}, nil
}

// workloadDemand builds a pseudo-random doubly-d-regular demand matrix by
// overlaying d rotations.
func workloadDemand(size, degree int, seed int64) [][]int {
	demand := make([][]int, size)
	for i := range demand {
		demand[i] = make([]int, size)
	}
	state := uint64(seed)*2862933555777941757 + 3037000493
	for k := 0; k < degree; k++ {
		state = state*2862933555777941757 + 3037000493
		shift := int(state % uint64(size))
		for i := 0; i < size; i++ {
			demand[i][(i+shift)%size]++
		}
	}
	return demand
}

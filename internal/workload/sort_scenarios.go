package workload

import (
	"fmt"
	"math/rand"

	"congestedclique/internal/core"
)

// SortScenario is one named key-distribution shape of the sorting scenario
// catalog, the sorting counterpart of Scenario. The catalog spans the
// regimes the demand-aware sorting planner (core.PlanSort) distinguishes:
// the full-load wide-domain workload (the Algorithm 4 design point, also the
// stats-invariant golden), pre-sorted and near-sorted input (the
// skip-redistribution arm), and duplicate-heavy tiny domains (the Section
// 6.3 counting arm). Build is a pure function of (n, seed), so every
// scenario is reproducible; cliquebench scen runs the catalog and records
// one table row per scenario.
type SortScenario struct {
	// Name is the registry key.
	Name string
	// Description is a one-line summary listed by cliquebench scen.
	Description string
	// FullLoad marks scenarios in the full-load regime, where the planner
	// deliberately stays on the Theorem 4.5 pipeline.
	FullLoad bool
	// Build constructs the instance for a clique of n nodes (n >= 8, like
	// the routing catalog).
	Build func(n int, seed int64) (*SortingInstance, error)
}

// SortScenarios returns the sorting catalog in its canonical order. The
// slice is freshly allocated; callers may reorder it.
func SortScenarios() []SortScenario {
	return []SortScenario{
		{
			Name:        "sort-uniform-full",
			Description: "full load, wide value domain: the protocol-benchmark instance (stats-invariant golden workload), nothing to exploit",
			FullLoad:    true,
			Build:       buildSortUniformFull,
		},
		{
			Name:        "sort-presorted",
			Description: "pre-sorted input: node i holds the i-th block of the sorted sequence, in order",
			Build:       buildSortPresorted,
		},
		{
			Name:        "sort-near-sorted",
			Description: "near-sorted input: node i holds the i-th block of the sorted sequence, shuffled within the row",
			Build:       buildSortNearSorted,
		},
		{
			Name:        "sort-duplicate-heavy",
			Description: "duplicate-heavy tiny domain: values drawn from the largest domain the Section 6.3 counting arm admits at this n (at least 2)",
			Build:       buildSortDuplicateHeavy,
		},
	}
}

// SortScenarioNames lists the sorting catalog's names in canonical order.
func SortScenarioNames() []string {
	scenarios := SortScenarios()
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	return names
}

// SortScenarioByName looks a scenario up in the sorting catalog.
func SortScenarioByName(name string) (SortScenario, bool) {
	for _, s := range SortScenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return SortScenario{}, false
}

// buildSortUniformFull is the shared deterministic full-load sorting
// workload (ProtocolBenchSortValues): the exact instance the protocol
// benchmarks and the stats-invariant goldens measure, so scenario numbers
// stay comparable with the committed golden statistics. The seed is ignored.
func buildSortUniformFull(n int, _ int64) (*SortingInstance, error) {
	if err := checkScenarioN("sort-uniform-full", n); err != nil {
		return nil, err
	}
	values := ProtocolBenchSortValues(n)
	keys := make([][]core.Key, n)
	for i, row := range values {
		for k, v := range row {
			keys[i] = append(keys[i], core.Key{Value: v, Origin: i, Seq: k})
		}
	}
	return &SortingInstance{N: n, Distribution: KeysUniform, Keys: keys}, nil
}

// sortedBlockValue is the shared value layout of the (near-)sorted
// scenarios: key k of node i is i*n+k, so node i holds exactly the i-th
// block of the global order.
func sortedBlockValue(n, i, k int) int64 {
	return int64(i*n + k)
}

func buildSortPresorted(n int, _ int64) (*SortingInstance, error) {
	if err := checkScenarioN("sort-presorted", n); err != nil {
		return nil, err
	}
	keys := make([][]core.Key, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			keys[i] = append(keys[i], core.Key{Value: sortedBlockValue(n, i, k), Origin: i, Seq: k})
		}
	}
	return &SortingInstance{N: n, Distribution: KeysPreSorted, Keys: keys}, nil
}

func buildSortNearSorted(n int, seed int64) (*SortingInstance, error) {
	if err := checkScenarioN("sort-near-sorted", n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]core.Key, n)
	for i := 0; i < n; i++ {
		row := make([]int64, n)
		for k := 0; k < n; k++ {
			row[k] = sortedBlockValue(n, i, k)
		}
		rng.Shuffle(n, func(a, b int) { row[a], row[b] = row[b], row[a] })
		for k, v := range row {
			keys[i] = append(keys[i], core.Key{Value: v, Origin: i, Seq: k})
		}
	}
	return &SortingInstance{N: n, Distribution: KeysPreSorted, Keys: keys}, nil
}

func buildSortDuplicateHeavy(n int, seed int64) (*SortingInstance, error) {
	if err := checkScenarioN("sort-duplicate-heavy", n); err != nil {
		return nil, err
	}
	// The domain is the largest the counting arm admits at this n, capped at
	// 7 (the KeysDuplicateHeavy convention) and floored at 2: a single value
	// would be partitioned by the tie-break and take the presorted arm
	// instead, and at cliques too small for any counting (cap < 2) the
	// scenario honestly degrades to the pipeline.
	domain := core.SmallDomainDistinctCap(n)
	if domain > 7 {
		domain = 7
	}
	if domain < 2 {
		domain = 2
	}
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]core.Key, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			keys[i] = append(keys[i], core.Key{Value: int64(rng.Intn(domain)), Origin: i, Seq: k})
		}
	}
	return &SortingInstance{N: n, Distribution: KeysDuplicateHeavy, Keys: keys}, nil
}

// SortScenarioValues flattens a sorting instance to the plain per-node value
// rows the public Sort API consumes. It fails if the instance's keys were
// not built with the canonical (Origin=row, Seq=position) labeling, which
// the flattening silently re-derives.
func SortScenarioValues(si *SortingInstance) ([][]int64, error) {
	values := make([][]int64, si.N)
	for i, row := range si.Keys {
		for k, key := range row {
			if key.Origin != i || key.Seq != k {
				return nil, fmt.Errorf("workload: key at node %d position %d carries origin %d seq %d, cannot flatten to plain values",
					i, k, key.Origin, key.Seq)
			}
			values[i] = append(values[i], key.Value)
		}
	}
	return values, nil
}

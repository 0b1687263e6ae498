package workload

import (
	"fmt"
	"math/rand"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
)

// Scenario is one named demand shape of the routing scenario catalog. The
// catalog spans the regimes the demand-aware planner (core.PlanRoute)
// distinguishes: full balanced load (the paper's design point), sparse and
// degenerate demand (fast paths), and skewed/adversarial load (pipeline
// stress). Build is a pure function of (n, seed), so every scenario is
// reproducible; cliquebench scen runs the whole catalog and records one
// table row per scenario.
type Scenario struct {
	// Name is the registry key (also used as the instance's Pattern).
	Name string
	// Description is a one-line summary listed by cliquebench scen.
	Description string
	// FullLoad marks scenarios in the full-load regime, where the planner
	// deliberately stays on the Theorem 3.7 pipeline.
	FullLoad bool
	// Build constructs the instance for a clique of n nodes. Scenarios
	// require n >= 8 (the catalog's shapes degenerate below that).
	Build func(n int, seed int64) (*RoutingInstance, error)
}

// Scenarios returns the catalog in its canonical order. The slice is freshly
// allocated; callers may reorder it.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "uniform-full",
			Description: "full load, perfectly uniform: every node sends one message to every node (the stats-invariant golden workload)",
			FullLoad:    true,
			Build:       buildUniformFull,
		},
		{
			Name:        "sparse",
			Description: "sparse demand: n/16 messages per node to distinct spread destinations",
			Build:       buildSparse,
		},
		{
			Name:        "zipf-skew",
			Description: "heavy skew: n/2 messages per node with Zipf-distributed destinations (hot sinks capped at the Problem 3.1 receive bound)",
			FullLoad:    true,
			Build:       buildZipfSkew,
		},
		{
			Name:        "hotspot-sink",
			Description: "single hot sink at the direct-send boundary: n/4 sources each send DirectMaxMultiplicity messages to node 0",
			Build:       buildHotspotSink,
		},
		{
			Name:        "broadcast",
			Description: "one-to-all: node 0 sends one message to every node",
			Build:       buildBroadcast,
		},
		{
			Name:        "multicast",
			Description: "one-to-many with multiplicity: node 0 sends n messages over n/8 sinks (8 per sink)",
			Build:       buildMulticast,
		},
		{
			Name:        "transpose",
			Description: "block transpose: node i sends its full block of n messages to node (i+n/2) mod n",
			FullLoad:    true,
			Build:       buildTranspose,
		},
		{
			Name:        "shuffle",
			Description: "full-load Latin-square shuffle: message j of node i goes to node (i+j) mod n",
			FullLoad:    true,
			Build:       buildShuffle,
		},
		{
			Name:        "adversarial-sets",
			Description: "set-adversarial full load: all traffic of node set g targets set (g+1) mod sqrt(n), stressing Algorithm 2's inter-set balancing",
			FullLoad:    true,
			Build:       buildAdversarialSets,
		},
		{
			Name:        "empty",
			Description: "degenerate: no messages at all",
			Build:       buildEmpty,
		},
	}
}

// ScenarioNames lists the catalog's names in canonical order.
func ScenarioNames() []string {
	scenarios := Scenarios()
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	return names
}

// ScenarioByName looks a scenario up in the catalog.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// scenarioMinN is the smallest clique size the catalog's shapes support.
const scenarioMinN = 8

func checkScenarioN(name string, n int) error {
	if n < scenarioMinN {
		return fmt.Errorf("workload: scenario %q needs n >= %d, got %d", name, scenarioMinN, n)
	}
	return nil
}

// instanceBuilder accumulates messages with per-source sequence numbers.
type instanceBuilder struct {
	msgs [][]core.Message
}

func newInstanceBuilder(n int) *instanceBuilder {
	return &instanceBuilder{msgs: make([][]core.Message, n)}
}

func (b *instanceBuilder) add(src, dst int, payload int64) {
	b.msgs[src] = append(b.msgs[src], core.Message{
		Src:     src,
		Dst:     dst,
		Seq:     len(b.msgs[src]),
		Payload: clique.Word(payload),
	})
}

func (b *instanceBuilder) instance(n int, name string) *RoutingInstance {
	return &RoutingInstance{N: n, Pattern: RoutingPattern(name), Msgs: b.msgs}
}

// buildUniformFull is the shared deterministic full-load workload
// (ProtocolBenchRoute): the same instance the protocol benchmarks and the
// stats-invariant goldens measure, so scenario numbers stay comparable with
// the committed golden statistics. The seed is ignored — the goldens pin one
// exact instance.
func buildUniformFull(n int, _ int64) (*RoutingInstance, error) {
	if err := checkScenarioN("uniform-full", n); err != nil {
		return nil, err
	}
	b := newInstanceBuilder(n)
	dsts, payloads := ProtocolBenchRoute(n)
	for i := range dsts {
		for j := range dsts[i] {
			b.add(i, dsts[i][j], payloads[i][j])
		}
	}
	return b.instance(n, "uniform-full"), nil
}

func buildSparse(n int, seed int64) (*RoutingInstance, error) {
	if err := checkScenarioN("sparse", n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	per := n / 16
	if per < 1 {
		per = 1
	}
	b := newInstanceBuilder(n)
	for src := 0; src < n; src++ {
		for j := 0; j < per; j++ {
			// Distinct destinations per source (stride 1 from src+1), so the
			// per-pair multiplicity is exactly 1.
			b.add(src, (src+1+j)%n, rng.Int63n(1<<40))
		}
	}
	return b.instance(n, "sparse"), nil
}

func buildZipfSkew(n int, seed int64) (*RoutingInstance, error) {
	if err := checkScenarioN("zipf-skew", n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	per := n / 2
	recv := make([]int, n)
	b := newInstanceBuilder(n)
	for src := 0; src < n; src++ {
		for j := 0; j < per; j++ {
			dst := int(zipf.Uint64())
			// Respect the Problem 3.1 receive bound: a full sink deflects the
			// message to the next node with space (deterministic scan, space
			// always exists because the total is n*per <= n*n/2).
			for recv[dst] >= n {
				dst = (dst + 1) % n
			}
			recv[dst]++
			b.add(src, dst, rng.Int63n(1<<40))
		}
	}
	return b.instance(n, "zipf-skew"), nil
}

func buildHotspotSink(n int, seed int64) (*RoutingInstance, error) {
	if err := checkScenarioN("hotspot-sink", n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := newInstanceBuilder(n)
	// n/4 sources each send DirectMaxMultiplicity messages to the single
	// sink 0: the receive load is exactly n and the per-pair multiplicity
	// sits exactly on the planner's direct-send boundary.
	for src := 0; src < n/4; src++ {
		for j := 0; j < core.DirectMaxMultiplicity; j++ {
			b.add(src, 0, rng.Int63n(1<<40))
		}
	}
	return b.instance(n, "hotspot-sink"), nil
}

func buildBroadcast(n int, seed int64) (*RoutingInstance, error) {
	if err := checkScenarioN("broadcast", n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := newInstanceBuilder(n)
	for dst := 0; dst < n; dst++ {
		b.add(0, dst, rng.Int63n(1<<40))
	}
	return b.instance(n, "broadcast"), nil
}

func buildMulticast(n int, seed int64) (*RoutingInstance, error) {
	if err := checkScenarioN("multicast", n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	sinks := n / 8
	if sinks < 1 {
		sinks = 1
	}
	b := newInstanceBuilder(n)
	for j := 0; j < n; j++ {
		b.add(0, 1+j%sinks, rng.Int63n(1<<40))
	}
	return b.instance(n, "multicast"), nil
}

func buildTranspose(n int, seed int64) (*RoutingInstance, error) {
	if err := checkScenarioN("transpose", n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := newInstanceBuilder(n)
	for src := 0; src < n; src++ {
		dst := (src + n/2) % n
		for j := 0; j < n; j++ {
			b.add(src, dst, rng.Int63n(1<<40))
		}
	}
	return b.instance(n, "transpose"), nil
}

func buildShuffle(n int, seed int64) (*RoutingInstance, error) {
	if err := checkScenarioN("shuffle", n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := newInstanceBuilder(n)
	for src := 0; src < n; src++ {
		for j := 0; j < n; j++ {
			b.add(src, (src+j)%n, rng.Int63n(1<<40))
		}
	}
	return b.instance(n, "shuffle"), nil
}

func buildAdversarialSets(n int, seed int64) (*RoutingInstance, error) {
	if err := checkScenarioN("adversarial-sets", n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	// Every node of set g sends s*s messages (the full load when n is a
	// perfect square) spread over the s members of set (g+1) mod s. When n
	// is not a perfect square the wrapped groups are uneven, so a sink at
	// its Problem 3.1 receive bound stops accepting (deterministically) —
	// the shape stays maximally adversarial without becoming invalid.
	recv := make([]int, n)
	b := newInstanceBuilder(n)
	for src := 0; src < n; src++ {
		g := (src / s) % s
		tg := (g + 1) % s
		for k := 0; k < s*s; k++ {
			dst := (tg*s + (src+k)%s) % n
			if recv[dst] >= n {
				continue
			}
			recv[dst]++
			b.add(src, dst, rng.Int63n(1<<40))
		}
	}
	return b.instance(n, "adversarial-sets"), nil
}

func buildEmpty(n int, _ int64) (*RoutingInstance, error) {
	if err := checkScenarioN("empty", n); err != nil {
		return nil, err
	}
	return &RoutingInstance{N: n, Pattern: "empty", Msgs: make([][]core.Message, n)}, nil
}

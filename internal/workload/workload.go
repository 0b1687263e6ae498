// Package workload generates deterministic routing and sorting instances for
// tests, benchmarks and the experiment harness. Every generator is a pure
// function of its parameters and seed, so experiments are reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
)

// RoutingPattern names a routing workload family.
type RoutingPattern string

const (
	// RoutingUniform overlays per random permutations: every node sends and
	// receives exactly per messages with uniformly spread destinations.
	RoutingUniform RoutingPattern = "uniform"
	// RoutingSkewed sends all of node i's messages to node (i+1) mod n, the
	// worst case for naive direct delivery.
	RoutingSkewed RoutingPattern = "skewed"
	// RoutingSetAdversarial directs all traffic of node set g to node set
	// (g+1) mod sqrt(n), stressing the inter-set balancing of Algorithm 2.
	RoutingSetAdversarial RoutingPattern = "set-adversarial"
	// RoutingRandomPartial sends a random number of messages (at most per) to
	// random destinations; loads are unbalanced on both sides.
	RoutingRandomPartial RoutingPattern = "random-partial"
	// RoutingSelfHeavy sends half of each node's messages to itself and the
	// rest uniformly.
	RoutingSelfHeavy RoutingPattern = "self-heavy"
)

// RoutingPatterns lists all routing workload families.
func RoutingPatterns() []RoutingPattern {
	return []RoutingPattern{RoutingUniform, RoutingSkewed, RoutingSetAdversarial, RoutingRandomPartial, RoutingSelfHeavy}
}

// RoutingInstance is a complete instance of the Information Distribution
// Task: Msgs[i] are the messages originating at node i.
type RoutingInstance struct {
	N       int
	Pattern RoutingPattern
	Msgs    [][]core.Message
}

// TotalMessages returns the number of messages in the instance.
func (ri *RoutingInstance) TotalMessages() int {
	total := 0
	for _, ms := range ri.Msgs {
		total += len(ms)
	}
	return total
}

// MaxLoad returns the maximum number of messages any node sends or receives.
func (ri *RoutingInstance) MaxLoad() int {
	recv := make([]int, ri.N)
	max := 0
	for _, ms := range ri.Msgs {
		if len(ms) > max {
			max = len(ms)
		}
		for _, m := range ms {
			recv[m.Dst]++
		}
	}
	for _, r := range recv {
		if r > max {
			max = r
		}
	}
	return max
}

// NewRoutingInstance builds a routing instance with n nodes and (up to) per
// messages per node following the given pattern.
func NewRoutingInstance(n, per int, pattern RoutingPattern, seed int64) (*RoutingInstance, error) {
	if n <= 0 || per < 0 {
		return nil, fmt.Errorf("workload: invalid routing instance parameters n=%d per=%d", n, per)
	}
	rng := rand.New(rand.NewSource(seed))
	msgs := make([][]core.Message, n)
	add := func(src, dst int) {
		msgs[src] = append(msgs[src], core.Message{
			Src:     src,
			Dst:     dst,
			Seq:     len(msgs[src]),
			Payload: clique.Word(rng.Int63n(1 << 40)),
		})
	}
	switch pattern {
	case RoutingUniform:
		for k := 0; k < per; k++ {
			perm := rng.Perm(n)
			for src, dst := range perm {
				add(src, dst)
			}
		}
	case RoutingSkewed:
		for src := 0; src < n; src++ {
			for k := 0; k < per; k++ {
				add(src, (src+1)%n)
			}
		}
	case RoutingSetAdversarial:
		s := 1
		for (s+1)*(s+1) <= n {
			s++
		}
		for src := 0; src < n; src++ {
			g := (src / s) % s
			tg := (g + 1) % s
			for k := 0; k < per; k++ {
				add(src, (tg*s+(src+k)%s)%n)
			}
		}
	case RoutingRandomPartial:
		for src := 0; src < n; src++ {
			count := rng.Intn(per + 1)
			for k := 0; k < count; k++ {
				add(src, rng.Intn(n))
			}
		}
	case RoutingSelfHeavy:
		for src := 0; src < n; src++ {
			for k := 0; k < per; k++ {
				if k%2 == 0 {
					add(src, src)
				} else {
					add(src, rng.Intn(n))
				}
			}
		}
	default:
		return nil, fmt.Errorf("workload: unknown routing pattern %q", pattern)
	}
	return &RoutingInstance{N: n, Pattern: pattern, Msgs: msgs}, nil
}

// KeyDistribution names a sorting workload family.
type KeyDistribution string

const (
	// KeysUniform draws values uniformly from a large range.
	KeysUniform KeyDistribution = "uniform"
	// KeysDuplicateHeavy draws values from a tiny range, so almost every key
	// has many duplicates.
	KeysDuplicateHeavy KeyDistribution = "duplicate-heavy"
	// KeysPreSorted gives node i the i-th block of an already sorted
	// sequence, so the algorithm's data movement is maximally "unnecessary".
	KeysPreSorted KeyDistribution = "pre-sorted"
	// KeysReverseSorted is the mirror image of KeysPreSorted.
	KeysReverseSorted KeyDistribution = "reverse-sorted"
	// KeysClustered gives every node a narrow value range of its own.
	KeysClustered KeyDistribution = "clustered"
	// KeysConstant makes every key identical, the degenerate duplicate case.
	KeysConstant KeyDistribution = "constant"
)

// KeyDistributions lists all sorting workload families.
func KeyDistributions() []KeyDistribution {
	return []KeyDistribution{KeysUniform, KeysDuplicateHeavy, KeysPreSorted, KeysReverseSorted, KeysClustered, KeysConstant}
}

// SortingInstance is a complete sorting instance: Keys[i] are node i's keys.
type SortingInstance struct {
	N            int
	Distribution KeyDistribution
	Keys         [][]core.Key
}

// TotalKeys returns the number of keys in the instance.
func (si *SortingInstance) TotalKeys() int {
	total := 0
	for _, ks := range si.Keys {
		total += len(ks)
	}
	return total
}

// NewSortingInstance builds a sorting instance with n nodes and per keys per
// node drawn from the given distribution.
func NewSortingInstance(n, per int, dist KeyDistribution, seed int64) (*SortingInstance, error) {
	if n <= 0 || per < 0 {
		return nil, fmt.Errorf("workload: invalid sorting instance parameters n=%d per=%d", n, per)
	}
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]core.Key, n)
	for i := 0; i < n; i++ {
		for k := 0; k < per; k++ {
			var v int64
			switch dist {
			case KeysUniform:
				v = rng.Int63n(1 << 40)
			case KeysDuplicateHeavy:
				v = int64(rng.Intn(7))
			case KeysPreSorted:
				v = int64(i*per + k)
			case KeysReverseSorted:
				v = int64((n-i)*per - k)
			case KeysClustered:
				v = int64(i)*1_000 + int64(rng.Intn(10))
			case KeysConstant:
				v = 42
			default:
				return nil, fmt.Errorf("workload: unknown key distribution %q", dist)
			}
			keys[i] = append(keys[i], core.Key{Value: v, Origin: i, Seq: k})
		}
	}
	return &SortingInstance{N: n, Distribution: dist, Keys: keys}, nil
}

// NewSmallKeyInstance builds a Section 6.3 instance: per values per node from
// the domain [0, domain).
func NewSmallKeyInstance(n, per, domain int, seed int64) ([][]int, error) {
	if n <= 0 || per < 0 || domain <= 0 {
		return nil, fmt.Errorf("workload: invalid small-key instance parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	values := make([][]int, n)
	for i := 0; i < n; i++ {
		for k := 0; k < per; k++ {
			values[i] = append(values[i], rng.Intn(domain))
		}
	}
	return values, nil
}

// ProtocolBenchRoute returns the deterministic full-load routing instance of
// the protocol benchmarks (BenchmarkRoute, cliquebench record and the
// stats-invariant goldens): every node sends one message to every node,
// dsts[i][j] = j with payload i*n+j. Both consumers must measure the same
// workload for the recorded before/after numbers to stay comparable, so
// this is the single definition.
func ProtocolBenchRoute(n int) (dsts [][]int, payloads [][]int64) {
	dsts = make([][]int, n)
	payloads = make([][]int64, n)
	for i := 0; i < n; i++ {
		dsts[i] = make([]int, n)
		payloads[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			dsts[i][j] = j
			payloads[i][j] = int64(i*n + j)
		}
	}
	return dsts, payloads
}

// ProtocolBenchSortValues returns the deterministic full-load sorting
// instance of the protocol benchmarks: n values per node drawn from a fixed
// linear congruential sequence (see ProtocolBenchRoute for why it is shared).
func ProtocolBenchSortValues(n int) [][]int64 {
	values := make([][]int64, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		row := make([]int64, n)
		for j := 0; j < n; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			row[j] = int64(x >> 33)
		}
		values[i] = row
	}
	return values
}

package core

import (
	"fmt"

	"congestedclique/internal/clique"
)

// SmallKeyResult is the outcome of the Section 6.3 counting protocol: the
// exact multiplicity of every value of a small key domain, known to every
// node. From the histogram each node can locally derive sorted order,
// distinct ranks, modes and selections of its own keys — the point of
// Section 6.3 is that for keys of o(log n) bits this takes only two rounds of
// messages carrying one or two bits each.
type SmallKeyResult struct {
	// Counts[v] is the number of occurrences of value v in the whole system.
	Counts []int64
	// Domain is the size of the key domain.
	Domain int
}

// Total returns the total number of keys counted.
func (r *SmallKeyResult) Total() int64 {
	var t int64
	for _, c := range r.Counts {
		t += c
	}
	return t
}

// DistinctRank returns the rank of value v among the distinct values present
// in the system (the Corollary 4.6 notion of rank), or -1 if v is absent.
func (r *SmallKeyResult) DistinctRank(v int) int {
	if v < 0 || v >= r.Domain || r.Counts[v] == 0 {
		return -1
	}
	rank := 0
	for u := 0; u < v; u++ {
		if r.Counts[u] > 0 {
			rank++
		}
	}
	return rank
}

// Rank returns the number of keys strictly smaller than v, i.e. the position
// at which the first copy of v appears in the globally sorted sequence.
func (r *SmallKeyResult) Rank(v int) int64 {
	if v < 0 {
		return 0
	}
	if v > r.Domain {
		v = r.Domain
	}
	var rank int64
	for u := 0; u < v; u++ {
		rank += r.Counts[u]
	}
	return rank
}

// Mode returns the most frequent value and its multiplicity (smallest value
// wins ties); the boolean is false if no keys are present.
func (r *SmallKeyResult) Mode() (int, int64, bool) {
	best := -1
	var bestCount int64
	for v, c := range r.Counts {
		if c > bestCount {
			best = v
			bestCount = c
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestCount, true
}

// smallKeyBits returns ceil(log2(n+1)), the bit width the Section 6.3
// protocol uses for both the per-node and the aggregated counts.
func smallKeyBits(n int) int {
	bits := 1
	for (1 << bits) <= n {
		bits++
	}
	return bits
}

// CheckSmallKeyDomain validates the Section 6.3 feasibility precondition —
// positive domain and K * ceil(log2(n+1))^2 <= n helper nodes — without
// running anything. It is the single source of truth for the bound: the
// session layer calls it before checking an engine out of its pool, and
// SmallKeyCount re-checks it inside the run as defense in depth.
func CheckSmallKeyDomain(n, domain int) error {
	if domain <= 0 {
		return fmt.Errorf("core: small-key domain must be positive, got %d", domain)
	}
	bits := smallKeyBits(n)
	if domain*bits*bits > n {
		return fmt.Errorf("core: domain %d needs %d helper nodes, only %d available (Section 6.3 requires K*log^2(n) <= n)",
			domain, domain*bits*bits, n)
	}
	return nil
}

// SmallKeyCount implements the counting protocol of Section 6.3 for keys
// drawn from a domain of size K. Every value is statically assigned a block
// of helper nodes: one helper per (bit position of the per-node count, bit
// position of the aggregated count). In the first round every node sends the
// i-th bit of its local count of value v to the helpers of (v, i); in the
// second round the j-th helper of (v, i) broadcasts the j-th bit of the
// number of set bits it received. Every node then reconstructs the exact
// global histogram. Both rounds use messages of a single word (conceptually
// one bit), and the protocol needs K * ceil(log2(n+1))^2 <= n, the paper's
// "number of different keys is at most n / log^2 n" regime.
func SmallKeyCount(ex clique.Exchanger, myValues []int, domain int) (*SmallKeyResult, error) {
	c := fullComm(ex, fmt.Sprintf("smallkeys@r%d", ex.Round()))
	defer c.release()
	n := c.size()
	if err := CheckSmallKeyDomain(n, domain); err != nil {
		return nil, err
	}
	bits := smallKeyBits(n)

	// Local histogram.
	local := make([]int64, domain)
	for _, v := range myValues {
		if v < 0 || v >= domain {
			return nil, fmt.Errorf("core: key value %d outside domain [0,%d)", v, domain)
		}
		local[v]++
	}

	// Round 1: every node sends the bits of its local counts to the helpers.
	sendCountBits(c, local, bits)
	rx, err := c.exchange()
	if err != nil {
		return nil, fmt.Errorf("core: small-key round 1: %w", err)
	}

	// Round 2: the helper of (v, i, j) counts the set bits it received and
	// broadcasts the j-th bit of that count.
	if c.me < domain*bits*bits {
		myAggBit := c.me % bits
		var ones int64
		for _, p := range rx.all() {
			if len(p) > 0 && p[0] == 1 {
				ones++
			}
		}
		outBit := (ones >> uint(myAggBit)) & 1
		for to := 0; to < n; to++ {
			c.send(to, clique.Word(outBit))
		}
	}
	rx, err = c.exchange()
	if err != nil {
		return nil, fmt.Errorf("core: small-key round 2: %w", err)
	}

	counts := make([]int64, domain)
	if err := readCountBits(rx, bits, "small-key round 2", counts); err != nil {
		return nil, err
	}
	return &SmallKeyResult{Counts: counts, Domain: domain}, nil
}

// smallKeyHelper is the Section 6.3 helper node of (value, countBit,
// aggBit): one node per value, bit of a per-node count and bit of the
// aggregated count, for counts of bits = smallKeyBits(n) bits.
func smallKeyHelper(bits, value, countBit, aggBit int) int {
	return value*bits*bits + countBit*bits + aggBit
}

// sendCountBits stages round 1 of the Section 6.3 protocol: bit i of my
// count local[v] goes to every helper of (v, i), one single-word message
// each.
func sendCountBits[T int | int64](c *comm, local []T, bits int) {
	for v := range local {
		for i := 0; i < bits; i++ {
			bit := (local[v] >> uint(i)) & 1
			for j := 0; j < bits; j++ {
				c.send(smallKeyHelper(bits, v, i, j), clique.Word(bit))
			}
		}
	}
}

// readCountBits reconstructs counts from round 2 of the Section 6.3
// protocol. Word w of the packet from the helper of (v, i, j) is bit j of
// a count over the nodes whose count of v has bit i set; sums[w][v] becomes
// the sum over i of that count shifted left by i — for word 0, the number of
// keys of value v in the whole system. context labels the error for a
// missing packet.
func readCountBits[T int | int64](rx *rxBuf, bits int, context string, sums ...[]T) error {
	for v := range sums[0] {
		for i := 0; i < bits; i++ {
			for j := 0; j < bits; j++ {
				p := rx.single(smallKeyHelper(bits, v, i, j))
				if len(p) < len(sums) {
					return fmt.Errorf("core: %s: missing bits from helper of (%d,%d,%d)", context, v, i, j)
				}
				for w, s := range sums {
					if p[w] == 1 {
						s[v] += 1 << uint(i+j)
					}
				}
			}
		}
	}
	return nil
}

package congestedclique

import (
	"context"
	"fmt"
)

// SortResult is the outcome of one sorting execution (Problem 4.1): node i's
// batch holds the keys of global ranks [Starts[i], Starts[i]+len(Batches[i])).
type SortResult struct {
	// Batches[i] is node i's contiguous batch of the globally sorted order.
	Batches [][]Key
	// Starts[i] is the global rank of the first key of Batches[i].
	Starts []int
	// Total is the number of keys in the system.
	Total int
	// Strategy is the strategy the demand-aware sorting planner selected.
	// It is set only when the operation ran under AlgorithmAuto; under an
	// explicitly chosen algorithm it is the zero value ("unplanned").
	Strategy SortStrategy
	// Stats describes the execution cost.
	Stats Stats
}

// Sort sorts the values of a clique of n nodes: values[i] are node i's keys
// (at most n per node). It is the one-shot convenience form of Clique.Sort
// (see Route for the one-shot contract). The default algorithm is the
// paper's 37-round deterministic Algorithm 4 (Theorem 4.5); LowCompute runs
// Algorithm 4 with Theorem 5.4 as its Step 6 router (31 rounds, same
// batches), and WithAlgorithm(AlgorithmAuto) consults the demand-aware
// sorting planner, whose pipeline arm is the LowCompute sorter.
func Sort(n int, values [][]int64, opts ...Option) (*SortResult, error) {
	if err := validateValueShims(n, values); err != nil {
		return nil, err
	}
	c, err := New(n, opts...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Sort(context.Background(), values)
}

// SortKeys is Sort for callers that already carry Key structures (for example
// to preserve their own Origin/Seq bookkeeping).
func SortKeys(n int, keys [][]Key, opts ...Option) (*SortResult, error) {
	if err := validateSortingInstance(n, keys); err != nil {
		return nil, err
	}
	c, err := New(n, opts...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.SortKeys(context.Background(), keys)
}

// RankResult is the outcome of the rank-in-union computation
// (Corollary 4.6).
type RankResult struct {
	// Ranks[i][j] is the rank, among the distinct values present anywhere in
	// the system, of values[i][j].
	Ranks [][]int
	// DistinctTotal is the number of distinct values in the system.
	DistinctTotal int
	// Stats describes the execution cost.
	Stats Stats
}

// Rank computes, for every input value, its index in the sorted sequence of
// distinct values present in the system; duplicate values share an index
// (Corollary 4.6). It is the one-shot convenience form of Clique.Rank.
func Rank(n int, values [][]int64, opts ...Option) (*RankResult, error) {
	if err := validateValueShims(n, values); err != nil {
		return nil, err
	}
	c, err := New(n, opts...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Rank(context.Background(), values)
}

// SelectKth returns the key of global rank k (0-based) among all input
// values, together with the execution statistics. It is the one-shot
// convenience form of Clique.SelectKth.
func SelectKth(n int, values [][]int64, k int, opts ...Option) (Key, Stats, error) {
	if err := validateValueShims(n, values); err != nil {
		return Key{}, Stats{}, err
	}
	c, err := New(n, opts...)
	if err != nil {
		return Key{}, Stats{}, err
	}
	defer c.Close()
	return c.SelectKth(context.Background(), values, k)
}

// Median returns the lower median of all input values. It is the one-shot
// convenience form of Clique.Median.
func Median(n int, values [][]int64, opts ...Option) (Key, Stats, error) {
	if err := validateValueShims(n, values); err != nil {
		return Key{}, Stats{}, err
	}
	c, err := New(n, opts...)
	if err != nil {
		return Key{}, Stats{}, err
	}
	defer c.Close()
	return c.Median(context.Background(), values)
}

// ModeResult is the most frequent value and its multiplicity.
type ModeResult struct {
	Value int64
	Count int
	Stats Stats
}

// Mode returns the most frequent value among all inputs (smallest value wins
// ties), computed by sorting plus one summary round. It is the one-shot
// convenience form of Clique.Mode.
func Mode(n int, values [][]int64, opts ...Option) (*ModeResult, error) {
	if err := validateValueShims(n, values); err != nil {
		return nil, err
	}
	c, err := New(n, opts...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Mode(context.Background(), values)
}

// HistogramResult is the outcome of the Section 6.3 small-key counting
// protocol: the exact global multiplicity of every value of the domain.
type HistogramResult struct {
	Counts []int64
	Stats  Stats
}

// CountSmallKeys counts keys drawn from a small domain [0, domain) in two
// rounds of single-word messages (Section 6.3). The domain must satisfy
// domain * ceil(log2(n+1))^2 <= n. It is the one-shot convenience form of
// Clique.CountSmallKeys.
func CountSmallKeys(n int, values [][]int, domain int, opts ...Option) (*HistogramResult, error) {
	if err := validateNodeCount(n); err != nil {
		return nil, err
	}
	if err := validateSmallKeys(n, values, domain); err != nil {
		return nil, err
	}
	c, err := New(n, opts...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.CountSmallKeys(context.Background(), values, domain)
}

// validateValueShims is the engine-free precondition check shared by the
// plain-value one-shot shims: instance shape errors return before any
// engine construction.
func validateValueShims(n int, values [][]int64) error {
	if err := validateNodeCount(n); err != nil {
		return err
	}
	return validateValues(n, values)
}

// validateSortingInstance checks the Problem 4.1 preconditions.
func validateSortingInstance(n int, keys [][]Key) error {
	if n <= 0 {
		return fmt.Errorf("%w: need at least one node, got %d", ErrInvalidInstance, n)
	}
	if len(keys) > n {
		return fmt.Errorf("%w: %d input slots for %d nodes", ErrInvalidInstance, len(keys), n)
	}
	for i, ks := range keys {
		if len(ks) > n {
			return fmt.Errorf("%w: node %d holds %d keys, Problem 4.1 allows at most n=%d", ErrInvalidInstance, i, len(ks), n)
		}
		for _, k := range ks {
			if k.Origin != i {
				return fmt.Errorf("%w: node %d holds a key with origin %d", ErrInvalidInstance, i, k.Origin)
			}
		}
	}
	return nil
}

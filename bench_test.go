package congestedclique

// This file regenerates, as Go benchmarks, the experiment tables E1–E8 that
// `cliquebench tables` prints (the paper has no empirical tables or figures
// of its own, so the "tables" are the paper's claimed round, bandwidth and
// computation bounds, listed in ARCHITECTURE.md's paper-to-code table). Each benchmark reports the quantities the paper's
// bounds are stated in as custom metrics:
//
//	rounds/op          synchronous communication rounds of one execution
//	edge-words/round   maximum words on any directed edge in any round
//	steps/node         maximum self-reported local computation (E3 only)
//
// Run with:  go test -bench=. -benchmem
//
// Every measured execution is verified (exact delivery, sorted output, exact
// histogram) before its numbers are reported.

import (
	"fmt"
	"testing"

	"congestedclique/internal/experiments"
	"congestedclique/internal/workload"
)

// benchSizes are the perfect-square clique sizes exercised by default; the
// non-square sizes exercise the V1/V2/V3 construction of Theorem 3.7.
var (
	benchSizes          = []int{16, 64, 144}
	benchNonSquareSizes = []int{20, 90, 200}
)

func reportRouting(b *testing.B, m *experiments.Measurement) {
	b.Helper()
	b.ReportMetric(float64(m.Rounds), "rounds/op")
	b.ReportMetric(float64(m.MaxEdgeWords), "edge-words/round")
	if m.StepsPerNode > 0 {
		b.ReportMetric(float64(m.StepsPerNode), "steps/node")
	}
}

// BenchmarkE1DeterministicRouting regenerates experiment E1 (Theorem 3.7):
// the deterministic Information Distribution Task in at most 16 rounds, for
// square and non-square n and several destination patterns.
func BenchmarkE1DeterministicRouting(b *testing.B) {
	patterns := []workload.RoutingPattern{workload.RoutingUniform, workload.RoutingSkewed, workload.RoutingSetAdversarial}
	sizes := append(append([]int{}, benchSizes...), benchNonSquareSizes...)
	for _, n := range sizes {
		for _, p := range patterns {
			b.Run(fmt.Sprintf("n=%d/%s", n, p), func(b *testing.B) {
				var last *experiments.Measurement
				for i := 0; i < b.N; i++ {
					m, err := experiments.MeasureRouting(n, n, p, "deterministic", int64(i+1))
					if err != nil {
						b.Fatal(err)
					}
					if m.Rounds > 16 {
						b.Fatalf("measured %d rounds, Theorem 3.7 claims <= 16", m.Rounds)
					}
					last = m
				}
				reportRouting(b, last)
			})
		}
	}
}

// BenchmarkE2DeterministicSorting regenerates experiment E2 (Theorem 4.5):
// sorting n keys per node in at most 37 rounds.
func BenchmarkE2DeterministicSorting(b *testing.B) {
	dists := []workload.KeyDistribution{workload.KeysUniform, workload.KeysDuplicateHeavy, workload.KeysPreSorted}
	sizes := append(append([]int{}, benchSizes...), benchNonSquareSizes[0])
	for _, n := range sizes {
		for _, d := range dists {
			b.Run(fmt.Sprintf("n=%d/%s", n, d), func(b *testing.B) {
				var last *experiments.Measurement
				for i := 0; i < b.N; i++ {
					m, err := experiments.MeasureSorting(n, n, d, "deterministic", int64(i+1))
					if err != nil {
						b.Fatal(err)
					}
					if m.Rounds > 37 {
						b.Fatalf("measured %d rounds, Theorem 4.5 claims <= 37", m.Rounds)
					}
					last = m
				}
				reportRouting(b, last)
			})
		}
	}
}

// BenchmarkE3LowComputeRouting regenerates experiment E3 (Theorem 5.4): the
// 10-round routing variant (the theorem bounds 12) with near-linear
// self-reported computation.
func BenchmarkE3LowComputeRouting(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var last *experiments.Measurement
			for i := 0; i < b.N; i++ {
				m, err := experiments.MeasureRouting(n, n, workload.RoutingUniform, "low-compute", int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				if m.Rounds > 10 {
					b.Fatalf("measured %d rounds, the Theorem 5.4 schedule takes <= 10", m.Rounds)
				}
				last = m
			}
			reportRouting(b, last)
			b.ReportMetric(float64(last.StepsPerNode)/float64(n), "steps/node/n")
		})
	}
}

// BenchmarkE4RankSelectMode regenerates experiment E4 (Corollary 4.6): the
// rank-in-union variant, selection and mode in a constant number of rounds.
func BenchmarkE4RankSelectMode(b *testing.B) {
	for _, n := range []int{16, 64, 144} {
		b.Run(fmt.Sprintf("rank/n=%d", n), func(b *testing.B) {
			var last *experiments.Measurement
			for i := 0; i < b.N; i++ {
				m, err := experiments.MeasureRank(n, n, workload.KeysDuplicateHeavy, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			reportRouting(b, last)
		})
		b.Run(fmt.Sprintf("select/n=%d", n), func(b *testing.B) {
			var last *experiments.Measurement
			for i := 0; i < b.N; i++ {
				m, err := experiments.MeasureSelect(n, n, workload.KeysUniform, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			reportRouting(b, last)
		})
		b.Run(fmt.Sprintf("mode/n=%d", n), func(b *testing.B) {
			var last *experiments.Measurement
			for i := 0; i < b.N; i++ {
				m, err := experiments.MeasureMode(n, n, workload.KeysDuplicateHeavy, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			reportRouting(b, last)
		})
	}
}

// BenchmarkE5RandomizedComparison regenerates experiment E5: deterministic vs
// the randomized prior-work stand-ins vs naive direct delivery.
func BenchmarkE5RandomizedComparison(b *testing.B) {
	for _, n := range []int{64, 144} {
		for _, p := range []workload.RoutingPattern{workload.RoutingUniform, workload.RoutingSkewed} {
			for _, alg := range experiments.RoutingAlgorithms() {
				b.Run(fmt.Sprintf("routing/n=%d/%s/%s", n, p, alg), func(b *testing.B) {
					var last *experiments.Measurement
					for i := 0; i < b.N; i++ {
						m, err := experiments.MeasureRouting(n, n, p, alg, int64(i+1))
						if err != nil {
							b.Fatal(err)
						}
						last = m
					}
					reportRouting(b, last)
				})
			}
		}
		for _, alg := range []string{"deterministic", "randomized"} {
			b.Run(fmt.Sprintf("sorting/n=%d/%s", n, alg), func(b *testing.B) {
				var last *experiments.Measurement
				for i := 0; i < b.N; i++ {
					m, err := experiments.MeasureSorting(n, n, workload.KeysUniform, alg, int64(i+1))
					if err != nil {
						b.Fatal(err)
					}
					last = m
				}
				reportRouting(b, last)
			})
		}
	}
}

// BenchmarkE6SmallKeys regenerates experiment E6 (Section 6.3): counting keys
// from a small domain in two rounds of single-word messages.
func BenchmarkE6SmallKeys(b *testing.B) {
	for _, tc := range []struct{ n, domain int }{{64, 1}, {256, 3}, {576, 5}} {
		b.Run(fmt.Sprintf("n=%d/K=%d", tc.n, tc.domain), func(b *testing.B) {
			var last *experiments.Measurement
			for i := 0; i < b.N; i++ {
				m, err := experiments.MeasureSmallKeys(tc.n, tc.n, tc.domain, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				if m.Rounds != 2 {
					b.Fatalf("measured %d rounds, Section 6.3 describes 2", m.Rounds)
				}
				last = m
			}
			reportRouting(b, last)
		})
	}
}

// BenchmarkE7BandwidthCompliance regenerates experiment E7: the maximum
// per-edge load of every algorithm stays a constant number of words as n
// grows (the O(log n) bits-per-edge model).
func BenchmarkE7BandwidthCompliance(b *testing.B) {
	for _, n := range benchSizes {
		for _, alg := range []string{"deterministic", "low-compute"} {
			b.Run(fmt.Sprintf("%s/n=%d", alg, n), func(b *testing.B) {
				var last *experiments.Measurement
				for i := 0; i < b.N; i++ {
					m, err := experiments.MeasureRouting(n, n, workload.RoutingSetAdversarial, alg, int64(i+1))
					if err != nil {
						b.Fatal(err)
					}
					if m.MaxEdgeWords > 64 {
						b.Fatalf("per-edge load %d words is not a small constant", m.MaxEdgeWords)
					}
					last = m
				}
				reportRouting(b, last)
			})
		}
	}
}

// BenchmarkE8ColoringAblation regenerates experiment E8: the cost of the
// exact König coloring versus the greedy 2Δ-1 coloring of footnote 3, both on
// the compact demand-matrix representation and on the fully expanded
// multigraph.
func BenchmarkE8ColoringAblation(b *testing.B) {
	for _, tc := range []struct{ size, degree int }{{16, 256}, {32, 1024}, {32, 4096}} {
		for _, method := range []string{"exact", "greedy", "exact-expanded"} {
			b.Run(fmt.Sprintf("%dx%d-deg%d/%s", tc.size, tc.size, tc.degree, method), func(b *testing.B) {
				var colors int
				for i := 0; i < b.N; i++ {
					m, err := experiments.MeasureColoring(tc.size, tc.degree, method, int64(i+1))
					if err != nil {
						b.Fatal(err)
					}
					colors = m.Colors
				}
				b.ReportMetric(float64(colors), "colors")
			})
		}
	}
}

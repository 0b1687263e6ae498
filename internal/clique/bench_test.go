package clique

import (
	"fmt"
	"testing"
)

// benchEngineSizes are the clique sizes the engine benchmarks sweep. They are
// chosen so that the barrier cost (small n) and the delivery cost (large n)
// are both visible.
var benchEngineSizes = []int{64, 256, 1024}

// BenchmarkRoundBarrier measures pure round-turnover throughput: n nodes
// exchanging empty rounds. One benchmark op is one completed round of the
// whole clique, so allocs/op is allocations per round across all n nodes.
func BenchmarkRoundBarrier(b *testing.B) {
	for _, n := range benchEngineSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw, err := New(n, WithPerRoundStats(false))
			if err != nil {
				b.Fatal(err)
			}
			defer nw.Close()
			b.ReportAllocs()
			b.ResetTimer()
			err = nw.Run(func(nd *Node) error {
				for i := 0; i < b.N; i++ {
					if _, err := nd.Exchange(); err != nil {
						return err
					}
				}
				return nil
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllToAll measures full-mesh delivery: every node sends one
// one-word packet to every node each round (n^2 packets per round). One op is
// one round.
func BenchmarkAllToAll(b *testing.B) {
	for _, n := range benchEngineSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw, err := New(n, WithPerRoundStats(false))
			if err != nil {
				b.Fatal(err)
			}
			defer nw.Close()
			b.ReportAllocs()
			b.ResetTimer()
			err = nw.Run(func(nd *Node) error {
				payload := Packet{Word(nd.ID())}
				for i := 0; i < b.N; i++ {
					for to := 0; to < nd.N(); to++ {
						nd.Send(to, payload)
					}
					inbox, err := nd.Exchange()
					if err != nil {
						return err
					}
					if countPackets(inbox) != nd.N() {
						return fmt.Errorf("node %d received %d packets, want %d", nd.ID(), countPackets(inbox), nd.N())
					}
				}
				return nil
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllToAllRunRounds measures full-mesh delivery under the
// worker-pool scheduler (n logical nodes multiplexed onto GOMAXPROCS
// goroutines). One op is one round.
func BenchmarkAllToAllRunRounds(b *testing.B) {
	for _, n := range benchEngineSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw, err := New(n, WithPerRoundStats(false))
			if err != nil {
				b.Fatal(err)
			}
			defer nw.Close()
			rounds := b.N
			b.ReportAllocs()
			b.ResetTimer()
			err = nw.RunRounds(func(nd *Node, round int, inbox Inbox) (bool, error) {
				if round > 0 && countPackets(inbox) != nd.N() {
					return true, fmt.Errorf("node %d received %d packets, want %d", nd.ID(), countPackets(inbox), nd.N())
				}
				if round == rounds {
					return true, nil
				}
				payload := Packet{Word(nd.ID())}
				for to := 0; to < nd.N(); to++ {
					nd.Send(to, payload)
				}
				return false, nil
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSparseExchange measures the common light-traffic round: each node
// sends a single packet to one neighbour. One op is one round.
func BenchmarkSparseExchange(b *testing.B) {
	for _, n := range benchEngineSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw, err := New(n, WithPerRoundStats(false))
			if err != nil {
				b.Fatal(err)
			}
			defer nw.Close()
			b.ReportAllocs()
			b.ResetTimer()
			err = nw.Run(func(nd *Node) error {
				payload := Packet{Word(nd.ID())}
				to := (nd.ID() + 1) % nd.N()
				for i := 0; i < b.N; i++ {
					nd.Send(to, payload)
					if _, err := nd.Exchange(); err != nil {
						return err
					}
				}
				return nil
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

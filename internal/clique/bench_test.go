package clique

import (
	"fmt"
	"math"
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
			nw, err := New(n)
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
			nw, err := New(n)
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
			nw, err := New(n)
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
			nw, err := New(n)
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

// BenchmarkMuxRun measures what multiplexing costs a run: on an n=196 clique
// (sort_full's size) every node runs two instances of 16 rounds on a Mux, each
// instance sending one 2-word packet per round, next to the same traffic sent
// by the node itself ("plain"). One op is one Network.Run on a reused Network.
func BenchmarkMuxRun(b *testing.B) {
	const n, rounds = 196, 16
	relay := func(ex Exchanger, base Word) error {
		for r := 0; r < rounds; r++ {
			ex.Send((ex.ID()+r+1)%n, Packet{base, Word(r)})
			if _, err := ex.ExchangeFlat(); err != nil {
				return err
			}
		}
		return nil
	}
	programs := []struct {
		name    string
		program func(*Node) error
	}{
		{"plain", func(nd *Node) error {
			for r := 0; r < rounds; r++ {
				nd.Send((nd.ID()+r+1)%n, Packet{1, Word(r)})
				nd.Send((nd.ID()+r+1)%n, Packet{2, Word(r)})
				if _, err := nd.ExchangeFlat(); err != nil {
					return err
				}
			}
			return nil
		}},
		{"mux", func(nd *Node) error {
			return NewMux(nd).Run([]func(Exchanger) error{
				func(ex Exchanger) error { return relay(ex, 1) },
				func(ex Exchanger) error { return relay(ex, 2) },
			})
		}},
	}
	for _, p := range programs {
		b.Run(p.name, func(b *testing.B) {
			nw, err := New(n)
			if err != nil {
				b.Fatal(err)
			}
			defer nw.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := nw.Run(p.program); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeliverReplay measures delivery per packet and per word apart: an
// n=256 clique replays one round shape b.N times, every shape moving 8n words
// per sender on average (Thm 3.7's full load moves about 5n), while the packet
// size (1, 5 or 16 words) and the fan-out vary — dense (every node sends to
// every node), senders=n/8 (an eighth of the nodes send, each to every node,
// eight times as much) and sparse (every node sends everything to its
// successor). Each shape runs on both delivery loops: receiver-major (every
// outbox here is large enough to be sorted at publish) and sender-major over
// outboxes publish left unsorted.
// Receivers read the flat records, so one op is one round of sends, publish
// and delivery; ns/packet and ns/word divide it by the round's traffic.
func BenchmarkDeliverReplay(b *testing.B) {
	const n = 256
	fanouts := []struct {
		name    string
		senders int // the senders are the nodes id%(n/senders) == 0
		spread  int // a sender's packets cycle over this many successors
	}{
		{"dense", n, n},
		{"senders=n/8", n / 8, n},
		{"sparse", n, 1},
	}
	for _, fo := range fanouts {
		for _, words := range []int{1, 5, 16} {
			for _, loop := range []string{"receiver", "sender"} {
				name := fmt.Sprintf("fanout=%s/words=%d/loop=%s", fo.name, words, loop)
				b.Run(name, func(b *testing.B) {
					packets := 8 * n * (n / fo.senders) / words // per sender
					payload := make(Packet, words)
					nw, err := New(n)
					if err != nil {
						b.Fatal(err)
					}
					defer nw.Close()
					if loop == "sender" {
						nw.sortMin = math.MaxInt // no outbox sorted, as in a sparse round
					}
					b.ReportAllocs()
					b.ResetTimer()
					err = nw.Run(func(nd *Node) error {
						sends := nd.ID()%(n/fo.senders) == 0
						for r := 0; r < b.N; r++ {
							if sends {
								for k := 0; k < packets; k++ {
									nd.Send((nd.ID()+1+k%fo.spread)%n, payload)
								}
							}
							if _, err := nd.ExchangeFlat(); err != nil {
								return err
							}
						}
						return nil
					})
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					if nw.receiverMajor != (loop == "receiver") {
						b.Fatalf("the round was delivered receiver-major=%v", nw.receiverMajor)
					}
					perRound := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					total := packets * fo.senders
					b.ReportMetric(perRound/float64(total), "ns/packet")
					b.ReportMetric(perRound/float64(total*words), "ns/word")
				})
			}
		}
	}
}

package clique

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shardRun is what one execution of the shard-agreement sequence leaves
// behind: every receiver's records round by round, the run's metrics and its
// error, and which loop delivered each round (true: receiver-major).
type shardRun struct {
	records [][][]Word // [receiver][round], copied
	metrics Metrics
	err     string
	loops   []bool
}

// shardSeqRounds is the length of the shard-agreement sequence: the rounds of
// viewTraffic, then the over-budget round.
const shardSeqRounds = 7

// runShardSequence delivers the seeded sequence of TestDeliveryShardsAgree on
// a fresh Network whose every round is split into the given number of shards
// and, with senderMajor, delivered sender-major throughout: viewTraffic's
// dense, mixed and sparse rounds (multi-packet edges, zero-length packets,
// silent senders) with every third packet re-accounted as a frame whose model
// cost differs from its length, the middle node departing half-way (its
// later traffic is Dropped, first in a dense round), and a final dense round
// in which three edges tie for the most words, all over the strict budget.
func runShardSequence(t *testing.T, step bool, shards int, senderMajor bool) shardRun {
	const (
		seed   = 20261001
		n      = 23
		rounds = shardSeqRounds - 1
		budget = 500
	)
	life := func(id int) int {
		if id == n/2 {
			return rounds / 2
		}
		return rounds
	}
	send := func(nd *Node, r int) {
		if r == rounds {
			// The violation: 5->9, 5->3 (queued in that order, so first-touch
			// order is not receiver order) and 8->1 all carry budget+1 model
			// words; the error must name 5->3 however the receivers are split
			// and whichever loop delivers. The background of one packet per
			// edge, charged no words, makes the round dense.
			for to := 0; to < n; to++ {
				nd.SendFramed(to, Packet{Word(nd.ID())}, 1, 0)
			}
			switch nd.ID() {
			case 5:
				nd.SendFramed(9, Packet{1}, 2, budget+1)
				nd.SendFramed(3, Packet{2, 3}, 1, budget+1)
			case 8:
				nd.SendFramed(1, Packet{}, 3, budget+1)
			}
			return
		}
		for k, pp := range viewTraffic(seed, n, r, nd.ID()) {
			if k%3 == 2 {
				nd.SendFramed(pp.to, pp.data, 1+k%4, len(pp.data)+1+k%5)
			} else {
				nd.Send(pp.to, pp.data)
			}
		}
	}

	nw, err := New(n, WithWorkers(3), WithStrictEdgeBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.forceShards, nw.forceSenderMajor = shards, senderMajor
	out := shardRun{records: make([][][]Word, n), loops: make([]bool, shardSeqRounds)}
	for id := range out.records {
		out.records[id] = make([][]Word, life(id))
	}
	// Node 0 notes which loop delivered each round as soon as it is handed
	// the round's records: receiverMajor is only written by the delivery that
	// precedes the sweep. The failing last round is read after the run.
	if step {
		err = nw.RunRounds(func(nd *Node, r int, inbox Inbox) (bool, error) {
			if r > 0 {
				out.records[nd.ID()][r-1] = canonical(unbox(inbox))
				if nd.ID() == 0 {
					out.loops[r-1] = nw.receiverMajor
				}
			}
			if r == life(nd.ID()) && r < rounds {
				return true, nil
			}
			send(nd, r)
			return false, nil
		})
	} else {
		err = nw.Run(func(nd *Node) error {
			for r := 0; r <= rounds; r++ {
				if r == life(nd.ID()) && r < rounds {
					return nil
				}
				send(nd, r)
				flat, err := nd.ExchangeFlat()
				if err != nil {
					return err
				}
				out.records[nd.ID()][r] = append([]Word{}, flat...)
				if nd.ID() == 0 {
					out.loops[r] = nw.receiverMajor
				}
			}
			return nil
		})
	}
	if err == nil {
		t.Fatal("the over-budget round did not fail the run")
	}
	out.loops[rounds] = nw.receiverMajor
	out.metrics, out.err = nw.Metrics(), err.Error()
	return out
}

// TestDeliveryShardsAgree pins delivery's independence of its fan-out and of
// its loop: the same seeded rounds delivered as 1, 2, 3 and 7 receiver
// shards, receiver-major where every outbox is sorted or sender-major
// throughout, under both schedulers, must leave every receiver byte-identical
// records, DeepEqual Metrics (PerRound included) and the same strict-budget
// error — naming the tied worst edge with the lowest sender, then the lowest
// receiver. A panic inside a helper shard must fail the run with the
// delivery-panic error, in either loop, strand nobody, leave no goroutine
// behind and pin nothing in the pooled buffers.
func TestDeliveryShardsAgree(t *testing.T) {
	ref := runShardSequence(t, false, 1, false)
	if want := "clique: round 6: edge 5->3 carried 501 words, budget 500: " + ErrBandwidthExceeded.Error(); ref.err != want {
		t.Fatalf("strict-budget error %q, want %q", ref.err, want)
	}
	if ref.metrics.Rounds != shardSeqRounds || ref.metrics.DroppedToDeparted == 0 {
		t.Fatalf("test setup: %d rounds, %d dropped", ref.metrics.Rounds, ref.metrics.DroppedToDeparted)
	}
	// Dense, mixed, sparse, dense with a departed receiver, mixed, sparse,
	// dense with the tie.
	denseRounds := []bool{true, false, false, true, false, false, true}
	if !reflect.DeepEqual(ref.loops, denseRounds) {
		t.Fatalf("receiver-major rounds %v, want %v", ref.loops, denseRounds)
	}
	for _, step := range []bool{false, true} {
		for _, senderMajor := range []bool{false, true} {
			for _, shards := range []int{1, 2, 3, 7} {
				t.Run(fmt.Sprintf("step=%v/shards=%d%s", step, shards, loopSuffix(senderMajor)), func(t *testing.T) {
					got := runShardSequence(t, step, shards, senderMajor)
					for id := range ref.records {
						for r := range ref.records[id] {
							if !reflect.DeepEqual(got.records[id][r], ref.records[id][r]) {
								t.Fatalf("node %d round %d received\n%v\nwant\n%v", id, r, got.records[id][r], ref.records[id][r])
							}
						}
					}
					if !reflect.DeepEqual(got.metrics, ref.metrics) {
						t.Fatalf("metrics\n%+v\nwant\n%+v", got.metrics, ref.metrics)
					}
					if got.err != ref.err {
						t.Fatalf("error %q, want %q", got.err, ref.err)
					}
					for r, rm := range got.loops {
						if want := denseRounds[r] && !senderMajor; rm != want {
							t.Fatalf("round %d delivered receiver-major=%v, want %v", r, rm, want)
						}
					}
				})
			}
		}
	}

	for _, step := range []bool{false, true} {
		for _, senderMajor := range []bool{false, true} {
			t.Run(fmt.Sprintf("panic/step=%v%s", step, loopSuffix(senderMajor)), func(t *testing.T) {
				testShardPanic(t, step, senderMajor)
			})
		}
	}
}

// loopSuffix names the forced sender-major runs of TestDeliveryShardsAgree.
func loopSuffix(senderMajor bool) string {
	if senderMajor {
		return "/sender-major"
	}
	return ""
}

// testShardPanic makes the last of three shards panic mid-delivery while the
// other two complete. One worker sweeps the nodes in order, so node n-1 runs
// last: in round 1, once every node has read its round-0 records, it cuts
// round 0's arena slot slice short and empties its own slot of round 1, so
// whichever loop delivers round 1 indexes the previous slot past its end when
// it presizes node n-1's. The run is bounded, so a fault that never fires
// fails the test instead of hanging it.
func testShardPanic(t *testing.T, step, senderMajor bool) {
	const (
		n      = 12
		rounds = 4
	)
	before := runtime.NumGoroutine()
	nw, err := New(n, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	nw.forceShards, nw.forceSenderMajor = 3, senderMajor
	payload := Packet{7, 8, 9}
	send := func(nd *Node, r int) {
		nd.Broadcast(payload)
		if r == 1 && nd.ID() == n-1 {
			nw.wordArena[0] = nw.wordArena[0][: n-1 : n-1]
			nw.wordArena[1][n-1] = nil
		}
	}
	if step {
		err = nw.RunRounds(func(nd *Node, r int, inbox Inbox) (bool, error) {
			if r == rounds {
				return true, nil
			}
			send(nd, r)
			return false, nil
		})
	} else {
		err = nw.Run(func(nd *Node) error {
			for r := 0; r < rounds; r++ {
				send(nd, r)
				if _, err := nd.Exchange(); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err == nil || !strings.HasPrefix(err.Error(), "clique: delivery panicked: ") || !strings.Contains(err.Error(), "index out of range") {
		t.Fatalf("want the delivery-panic failure, got %v", err)
	}
	if got := nw.Rounds(); got != 1 {
		t.Fatalf("%d rounds completed, want round 0 and not the panicked round 1", got)
	}
	if nw.receiverMajor == senderMajor {
		t.Fatalf("round 1 delivered receiver-major=%v, want %v", nw.receiverMajor, !senderMajor)
	}

	// The panicked round's outboxes were never consumed; Close must hand the
	// buffers back pinning neither them nor a view nor the Network.
	closeAndAuditBuffers(t, nw)

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after the panicked run", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

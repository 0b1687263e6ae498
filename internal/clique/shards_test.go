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
// error.
type shardRun struct {
	records [][][]Word // [receiver][round], copied
	metrics Metrics
	err     string
}

// runShardSequence delivers the seeded sequence of TestDeliveryShardsAgree on
// a fresh Network whose every round is split into the given number of shards:
// viewTraffic (multi-packet edges, zero-length packets, silent senders) with
// every third packet re-accounted as a frame whose model cost differs from
// its length, the middle node departing half-way (its later traffic is
// Dropped), and a final round in which three edges tie for the most words,
// all over the strict budget.
func runShardSequence(t *testing.T, step bool, shards int) shardRun {
	const (
		seed   = 20261001
		n      = 23
		rounds = 6
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
			// words; the error must name 5->3 however the receivers are split.
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
	nw.forceShards = shards
	out := shardRun{records: make([][][]Word, n)}
	for id := range out.records {
		out.records[id] = make([][]Word, life(id))
	}
	if step {
		err = nw.RunRounds(func(nd *Node, r int, inbox Inbox) (bool, error) {
			if r > 0 {
				out.records[nd.ID()][r-1] = canonical(unbox(inbox))
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
			}
			return nil
		})
	}
	if err == nil {
		t.Fatal("the over-budget round did not fail the run")
	}
	out.metrics, out.err = nw.Metrics(), err.Error()
	return out
}

// TestDeliveryShardsAgree pins delivery's independence of its fan-out: the
// same seeded rounds delivered as 1, 2, 3 and 7 receiver shards, under both
// schedulers, must leave every receiver byte-identical records, DeepEqual
// Metrics (PerRound included) and the same strict-budget error — naming the
// tied worst edge with the lowest sender, then the lowest receiver. A panic
// inside a helper shard must fail the run with the delivery-panic error,
// strand nobody, leave no goroutine behind and pin nothing in the pooled
// buffers.
func TestDeliveryShardsAgree(t *testing.T) {
	ref := runShardSequence(t, false, 1)
	if want := "clique: round 6: edge 5->3 carried 501 words, budget 500: " + ErrBandwidthExceeded.Error(); ref.err != want {
		t.Fatalf("strict-budget error %q, want %q", ref.err, want)
	}
	if ref.metrics.Rounds != 7 || ref.metrics.DroppedToDeparted == 0 {
		t.Fatalf("test setup: %d rounds, %d dropped", ref.metrics.Rounds, ref.metrics.DroppedToDeparted)
	}
	for _, step := range []bool{false, true} {
		for _, shards := range []int{1, 2, 3, 7} {
			t.Run(fmt.Sprintf("step=%v/shards=%d", step, shards), func(t *testing.T) {
				got := runShardSequence(t, step, shards)
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
			})
		}
	}

	for _, step := range []bool{false, true} {
		t.Run(fmt.Sprintf("panic/step=%v", step), func(t *testing.T) {
			testShardPanic(t, step)
		})
	}
}

// testShardPanic makes the last of three shards panic mid-delivery (its
// receivers' recvWords slots are cut off, so delivering to node n-1 indexes
// out of range) while the other two complete.
func testShardPanic(t *testing.T, step bool) {
	const n = 12
	before := runtime.NumGoroutine()
	nw, err := New(n, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	nw.forceShards = 3
	nw.recvWords = nw.recvWords[: n-1 : n-1]
	payload := Packet{7, 8, 9}
	if step {
		err = nw.RunRounds(func(nd *Node, r int, inbox Inbox) (bool, error) {
			nd.Broadcast(payload)
			return false, nil
		})
	} else {
		err = nw.Run(func(nd *Node) error {
			for {
				nd.Broadcast(payload)
				if _, err := nd.Exchange(); err != nil {
					return err
				}
			}
		})
	}
	if err == nil || !strings.HasPrefix(err.Error(), "clique: delivery panicked: ") || !strings.Contains(err.Error(), "index out of range") {
		t.Fatalf("want the delivery-panic failure, got %v", err)
	}
	if got := nw.Rounds(); got != 0 {
		t.Fatalf("%d rounds completed, want the panicked round 0 not to count", got)
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

package clique

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"testing"
)

func TestNewRejectsBadArguments(t *testing.T) {
	t.Parallel()
	if _, err := New(0); err == nil {
		t.Fatal("New(0) should fail")
	}
	if _, err := New(-3); err == nil {
		t.Fatal("New(-3) should fail")
	}
	if _, err := New(4, WithStrictEdgeBudget(0)); err == nil {
		t.Fatal("zero strict budget should fail")
	}
	if _, err := New(4, WithStrictEdgeBudget(-1)); err == nil {
		t.Fatal("negative strict budget should fail")
	}
}

func TestSingleRoundAllToAll(t *testing.T) {
	t.Parallel()
	const n = 8
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		for to := 0; to < n; to++ {
			nd.Send(to, Packet{Word(nd.ID()*100 + to)})
		}
		inbox, err := nd.Exchange()
		if err != nil {
			return err
		}
		for from := 0; from < n; from++ {
			p := inbox.Single(from)
			if p == nil {
				return fmt.Errorf("node %d missing packet from %d", nd.ID(), from)
			}
			want := Word(from*100 + nd.ID())
			if p[0] != want {
				return fmt.Errorf("node %d got %d from %d, want %d", nd.ID(), p[0], from, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := nw.Metrics()
	if m.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", m.Rounds)
	}
	if m.TotalMessages != n*n {
		t.Fatalf("messages = %d, want %d", m.TotalMessages, n*n)
	}
	if m.MaxEdgeWords != 1 {
		t.Fatalf("max edge words = %d, want 1", m.MaxEdgeWords)
	}
}

func TestMultiRoundRelay(t *testing.T) {
	t.Parallel()
	const n = 6
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	// Round 1: node i sends its id to node (i+1) mod n.
	// Round 2: forward what was received to (i+2) mod n of the original sender.
	err = nw.Run(func(nd *Node) error {
		n := nd.N()
		nd.Send((nd.ID()+1)%n, Packet{Word(nd.ID())})
		inbox, err := nd.Exchange()
		if err != nil {
			return err
		}
		var got Packet
		for from := 0; from < n; from++ {
			if p := inbox.Single(from); p != nil {
				got = p
			}
		}
		if got == nil {
			return fmt.Errorf("node %d received nothing in round 1", nd.ID())
		}
		orig := int(got[0])
		nd.Send((orig+2)%n, Packet{got[0]})
		inbox, err = nd.Exchange()
		if err != nil {
			return err
		}
		count := 0
		for from := 0; from < n; from++ {
			for _, p := range inbox.From(from) {
				count++
				if int(p[0]) != (nd.ID()-2+n)%n {
					return fmt.Errorf("node %d got relayed id %d, want %d", nd.ID(), p[0], (nd.ID()-2+n)%n)
				}
			}
		}
		if count != 1 {
			return fmt.Errorf("node %d received %d packets in round 2, want 1", nd.ID(), count)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Rounds(); got != 2 {
		t.Fatalf("rounds = %d, want 2", got)
	}
}

func TestStrictEdgeBudgetViolation(t *testing.T) {
	t.Parallel()
	nw, err := New(4, WithStrictEdgeBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		if nd.ID() == 0 {
			nd.Send(1, Packet{1, 2, 3}) // three words on one edge, budget two
		}
		_, err := nd.Exchange()
		return err
	})
	if !errors.Is(err, ErrBandwidthExceeded) {
		t.Fatalf("want ErrBandwidthExceeded, got %v", err)
	}
}

func TestStrictEdgeBudgetCountsMultiplePackets(t *testing.T) {
	t.Parallel()
	nw, err := New(4, WithStrictEdgeBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		if nd.ID() == 0 {
			nd.Send(1, Packet{1, 2})
			nd.Send(1, Packet{3})
		}
		_, err := nd.Exchange()
		return err
	})
	if !errors.Is(err, ErrBandwidthExceeded) {
		t.Fatalf("want ErrBandwidthExceeded for aggregated edge load, got %v", err)
	}
}

func TestNodesFinishingAtDifferentRounds(t *testing.T) {
	t.Parallel()
	const n = 10
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	var lastRoundTraffic atomic.Int64
	err = nw.Run(func(nd *Node) error {
		// Node i runs i+1 rounds; in each round it pings node 0 unless node 0
		// may already have departed.
		for r := 0; r <= nd.ID(); r++ {
			if nd.ID() != 0 && r == 0 {
				nd.Send(0, Packet{Word(nd.ID())})
			}
			inbox, err := nd.Exchange()
			if err != nil {
				return err
			}
			if nd.ID() == 0 && r == 0 {
				lastRoundTraffic.Store(int64(countPackets(inbox)))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := lastRoundTraffic.Load(); got != n-1 {
		t.Fatalf("node 0 received %d packets in round 0, want %d", got, n-1)
	}
	if got := nw.Rounds(); got != n {
		t.Fatalf("rounds = %d, want %d (slowest node)", got, n)
	}
}

func TestNodeErrorPropagates(t *testing.T) {
	t.Parallel()
	sentinel := errors.New("boom")
	nw, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		if nd.ID() == 3 {
			return sentinel
		}
		_, err := nd.Exchange()
		return err
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
}

func TestNodePanicIsConvertedToError(t *testing.T) {
	t.Parallel()
	nw, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		if nd.ID() == 2 {
			panic("unexpected")
		}
		_, err := nd.Exchange()
		return err
	})
	if err == nil {
		t.Fatal("want error from panicking node")
	}
}

func TestRunReuseAndClose(t *testing.T) {
	t.Parallel()
	nw, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	program := func(nd *Node) error {
		nd.Broadcast(Packet{Word(nd.ID())})
		inbox, err := nd.Exchange()
		if err != nil {
			return err
		}
		if countPackets(inbox) != 3 {
			return fmt.Errorf("node %d received %d packets, want 3", nd.ID(), countPackets(inbox))
		}
		return nil
	}
	if err := nw.Run(program); err != nil {
		t.Fatal(err)
	}
	first := nw.Metrics()
	if err := nw.Run(program); err != nil {
		t.Fatalf("second run on the same Network: %v", err)
	}
	second := nw.Metrics()
	if first.Rounds != second.Rounds || first.TotalMessages != second.TotalMessages ||
		first.TotalWords != second.TotalWords || first.MaxEdgeWords != second.MaxEdgeWords {
		t.Fatalf("per-run metrics differ across identical runs: %+v vs %+v", first, second)
	}
	cum := nw.CumulativeMetrics()
	if cum.Runs != 2 || cum.Rounds != first.Rounds*2 || cum.TotalWords != first.TotalWords*2 {
		t.Fatalf("cumulative metrics wrong: %+v", cum)
	}
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
	if err := nw.Run(program); err == nil {
		t.Fatal("Run after Close should fail")
	}
}

func TestBroadcast(t *testing.T) {
	t.Parallel()
	const n = 7
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		nd.Broadcast(Packet{Word(nd.ID())})
		inbox, err := nd.Exchange()
		if err != nil {
			return err
		}
		if countPackets(inbox) != n {
			return fmt.Errorf("node %d received %d packets, want %d", nd.ID(), countPackets(inbox), n)
		}
		for from := 0; from < n; from++ {
			if p := inbox.Single(from); p == nil || int(p[0]) != from {
				return fmt.Errorf("node %d bad broadcast from %d: %v", nd.ID(), from, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStepAndMemoryAccounting(t *testing.T) {
	t.Parallel()
	nw, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		nd.CountSteps(10 * (nd.ID() + 1))
		nd.CountSteps(-5) // ignored
		nd.ReportMemory(100 * (nd.ID() + 1))
		nd.ReportMemory(1) // smaller value does not lower the max
		_, err := nd.Exchange()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	m := nw.Metrics()
	if m.MaxStepsPerNode != 40 {
		t.Fatalf("max steps = %d, want 40", m.MaxStepsPerNode)
	}
	if m.MaxMemoryWordsPerNode != 400 {
		t.Fatalf("max memory = %d, want 400", m.MaxMemoryWordsPerNode)
	}
	steps := nw.StepsPerNode()
	if steps[0] != 10 || steps[3] != 40 {
		t.Fatalf("per-node steps wrong: %v", steps)
	}
}

func TestSharedComputeCaching(t *testing.T) {
	t.Parallel()
	const n = 16
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	var calls atomic.Int64
	err = nw.Run(func(nd *Node) error {
		v := nd.SharedComputeKeyed(SharedKey{Label: "answer"}, func() interface{} {
			calls.Add(1)
			return 42
		})
		if v.(int) != 42 {
			return fmt.Errorf("unexpected shared value %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Racing nodes may compute the value more than once, but the cache should
	// prevent anything close to n computations in the common case; with the
	// cache disabled every node computes it.
	if calls.Load() > int64(n) {
		t.Fatalf("shared compute called %d times, more than n=%d", calls.Load(), n)
	}

	nw2, err := New(n, WithSharedCache(false))
	if err != nil {
		t.Fatal(err)
	}
	defer nw2.Close()
	var calls2 atomic.Int64
	err = nw2.Run(func(nd *Node) error {
		nd.SharedComputeKeyed(SharedKey{Label: "answer"}, func() interface{} {
			calls2.Add(1)
			return 42
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != n {
		t.Fatalf("with cache disabled, want %d computations, got %d", n, calls2.Load())
	}
}

func TestMetricsPerRoundStats(t *testing.T) {
	t.Parallel()
	const n = 5
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		// Round 1: everyone sends 2 words to node 0.
		nd.Send(0, Packet{1, 2})
		if _, err := nd.Exchange(); err != nil {
			return err
		}
		// Round 2: only node 0 sends, 3 words to each node.
		if nd.ID() == 0 {
			for to := 0; to < n; to++ {
				nd.Send(to, Packet{1, 2, 3})
			}
		}
		_, err := nd.Exchange()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	m := nw.Metrics()
	if m.Rounds != 2 || len(m.PerRound) != 2 {
		t.Fatalf("rounds = %d, per-round entries = %d", m.Rounds, len(m.PerRound))
	}
	r1, r2 := m.PerRound[0], m.PerRound[1]
	if r1.Messages != n || r1.Words != 2*n || r1.MaxNodeRecvWords != 2*n || r1.MaxEdgeWords != 2 {
		t.Fatalf("round 1 stats wrong: %+v", r1)
	}
	if r2.Messages != n || r2.Words != 3*n || r2.MaxNodeSentWords != 3*n || r2.MaxEdgeWords != 3 {
		t.Fatalf("round 2 stats wrong: %+v", r2)
	}
	if m.MaxEdgeWords != 3 {
		t.Fatalf("overall max edge words = %d, want 3", m.MaxEdgeWords)
	}
}

func TestSendToInvalidDestinationPanics(t *testing.T) {
	t.Parallel()
	nw, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		if nd.ID() == 0 {
			nd.Send(7, Packet{1})
		}
		_, err := nd.Exchange()
		return err
	})
	if err == nil {
		t.Fatal("sending to an invalid destination should surface an error via panic recovery")
	}
}

func TestInboxHelpers(t *testing.T) {
	t.Parallel()
	var in Inbox
	if in.Single(3) != nil || in.From(1) != nil {
		t.Fatal("nil inbox helpers misbehave")
	}
	in = Inbox{nil, {Packet{1, 2}}, {Packet{3}, Packet{4, 5, 6}}}
	if p := in.Single(2); p == nil || p[0] != 3 {
		t.Fatalf("single(2) = %v", p)
	}
	if in.Single(0) != nil {
		t.Fatal("single(0) should be nil")
	}
	if in.From(10) != nil {
		t.Fatal("From out of range should be nil")
	}
}

func TestPacketClone(t *testing.T) {
	t.Parallel()
	var nilPacket Packet
	if nilPacket.Clone() != nil {
		t.Fatal("clone of nil should be nil")
	}
	p := Packet{1, 2, 3}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatal("clone shares storage")
	}
}

// TestNewReusesReleasedBuffers pins that New takes the buffer set the last
// Close released even when the two run on different processors: a lone
// sync.Pool Put sits in its processor's private slot, which a Get elsewhere
// cannot reach, so with the pool alone the next Network allocated a fresh set
// about half the time. The Close runs on a goroutine the test spins beside,
// which puts it on another processor whenever there is one. Not parallel: a
// concurrent New could rightly take the set first. The GC is off so that it
// cannot reclaim the pooled set in between.
func TestNewReusesReleasedBuffers(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 20; i++ {
		nw, err := New(16)
		if err != nil {
			t.Fatal(err)
		}
		b := nw.buffers
		var closed atomic.Bool
		go func() {
			if err := nw.Close(); err != nil {
				t.Error(err)
			}
			closed.Store(true)
		}()
		for !closed.Load() {
		}
		next, err := New(16)
		if err != nil {
			t.Fatal(err)
		}
		reused := next.buffers == b
		if err := next.Close(); err != nil {
			t.Fatal(err)
		}
		if !reused {
			t.Fatalf("iteration %d: New allocated a fresh buffer set although Close had just released one", i)
		}
	}
}

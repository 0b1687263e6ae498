package clique

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"congestedclique/internal/leakcheck"
)

// pw is a deterministic per-(round, from, to, k) payload word.
func pw(round, from, to, k int) Word {
	return Word(round*1000003 + from*10007 + to*101 + k)
}

// TestDeliveryExactness drives several rounds of irregular traffic (multiple
// packets per edge, varying lengths, silent senders) and verifies every inbox
// word-for-word against the closed form of the workload.
func TestDeliveryExactness(t *testing.T) {
	t.Parallel()
	const n = 24
	const rounds = 9
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	// Node i sends, in round r, to destinations (i*j+r)%n for j=0..(i%5), a
	// packet of length 1+(i+j+r)%4 with known words; duplicates per edge
	// happen naturally.
	dests := func(r, i int) []int {
		var ds []int
		for j := 0; j <= i%5; j++ {
			ds = append(ds, (i*j+r)%n)
		}
		return ds
	}
	mkPacket := func(r, from, j, to int) Packet {
		p := make(Packet, 1+(from+j+r)%4)
		for k := range p {
			p[k] = pw(r, from, to, k) + Word(j)
		}
		return p
	}
	err = nw.Run(func(nd *Node) error {
		for r := 0; r < rounds; r++ {
			for j, to := range dests(r, nd.ID()) {
				nd.Send(to, mkPacket(r, nd.ID(), j, to))
			}
			inbox, err := nd.Exchange()
			if err != nil {
				return err
			}
			for f := 0; f < n; f++ {
				var want []Packet
				for j, to := range dests(r, f) {
					if to == nd.ID() {
						want = append(want, mkPacket(r, f, j, to))
					}
				}
				got := inbox.From(f)
				if len(got) != len(want) {
					return fmt.Errorf("r=%d node %d from %d: got %d packets want %d", r, nd.ID(), f, len(got), len(want))
				}
				for x := range want {
					if !reflect.DeepEqual(got[x], want[x]) {
						return fmt.Errorf("r=%d node %d from %d pkt %d: got %v want %v", r, nd.ID(), f, x, got[x], want[x])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStress exercises the barrier under -race at n=128 with
// irregular traffic, staggered departures and a concurrent metrics reader.
func TestConcurrentStress(t *testing.T) {
	t.Parallel()
	const n = 128
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = nw.Metrics()
				_ = nw.Rounds()
			}
		}
	}()
	err = nw.Run(func(nd *Node) error {
		// Node i runs 1 + i%7 rounds, spraying traffic each round at nodes
		// that are provably still alive (node j departs after round j%7).
		myRounds := 1 + nd.ID()%7
		for r := 0; r < myRounds; r++ {
			for to := 0; to < n; to++ {
				if r < 1+to%7 {
					nd.Send(to, Packet{Word(nd.ID()), Word(r)})
				}
			}
			inbox, err := nd.Exchange()
			if err != nil {
				return err
			}
			for f := 0; f < n; f++ {
				for _, p := range inbox.From(f) {
					if int(p[0]) != f || int(p[1]) != r {
						return fmt.Errorf("node %d round %d: bad packet %v from %d", nd.ID(), r, p, f)
					}
				}
			}
		}
		return nil
	})
	close(stop)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	m := nw.Metrics()
	if m.DroppedToDeparted != 0 {
		t.Fatalf("traffic to live nodes only, but %d packets dropped", m.DroppedToDeparted)
	}
}

// TestPanicMidRoundRecovery kills one node between barriers while every other
// node is already parked; the run must neither deadlock nor strand a node,
// the panic must surface as the run's root-cause error, and the survivors
// must abort at their next barrier instead of finishing rounds with a
// silently missing member. The engine stays usable afterwards.
func TestPanicMidRoundRecovery(t *testing.T) {
	t.Parallel()
	const n = 8
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	program := func(nd *Node) error {
		for r := 0; r < 3; r++ {
			if nd.ID() == 3 && r == 1 {
				panic("mid-round failure")
			}
			nd.Send((nd.ID()+r)%n, Packet{Word(r)})
			if _, err := nd.Exchange(); err != nil {
				return err
			}
		}
		return nil
	}
	err = nw.Run(program)
	if err == nil || !contains(err.Error(), "node 3 panicked") {
		t.Fatalf("want node 3 panic error, got %v", err)
	}
	// The crash is broadcast before the barrier releases, so the survivors
	// fail out of round 1 rather than completing all 3 rounds without node 3.
	if got := nw.Rounds(); got >= 3 {
		t.Fatalf("rounds = %d, want < 3 (crash fails the run fast)", got)
	}
	// A failed run must not poison the engine: the same program without the
	// crashing node completes all rounds on the same Network.
	err = nw.Run(func(nd *Node) error {
		for r := 0; r < 3; r++ {
			nd.Send((nd.ID()+r)%n, Packet{Word(r)})
			if _, err := nd.Exchange(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run after crash: %v", err)
	}
	if got := nw.Rounds(); got != 3 {
		t.Fatalf("rounds after recovery = %d, want 3", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// workloadDigest runs a fixed seeded workload and digests every inbox the
// nodes observe plus the final metrics.
func workloadDigest(t *testing.T, opts ...Option) (uint64, Metrics) {
	t.Helper()
	const n = 32
	const rounds = 6
	nw, err := New(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	digests := make([]uint64, n)
	err = nw.Run(func(nd *Node) error {
		h := fnv.New64a()
		state := uint64(nd.ID()*2654435761 + 12345)
		for r := 0; r < rounds; r++ {
			k := int(state % 5)
			for j := 0; j < k; j++ {
				state = state*6364136223846793005 + 1442695040888963407
				to := int(state % n)
				nd.Send(to, Packet{Word(state >> 32), Word(r)})
			}
			inbox, err := nd.Exchange()
			if err != nil {
				return err
			}
			for f := 0; f < n; f++ {
				for _, p := range inbox.From(f) {
					fmt.Fprintf(h, "%d/%d/%d/%v;", r, nd.ID(), f, p)
				}
			}
			state = state*6364136223846793005 + 1442695040888963407
		}
		digests[nd.ID()] = h.Sum64()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, d := range digests {
		fmt.Fprintf(h, "%d;", d)
	}
	return h.Sum64(), nw.Metrics()
}

// TestDeterministicReplay runs the same seeded workload twice and requires
// identical inbox contents and identical metrics.
func TestDeterministicReplay(t *testing.T) {
	t.Parallel()
	d1, m1 := workloadDigest(t)
	d2, m2 := workloadDigest(t)
	if d1 != d2 {
		t.Fatalf("inbox digests differ across replays: %x vs %x", d1, d2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("metrics differ across replays:\n%+v\n%+v", m1, m2)
	}
	// The bound on compute concurrency must not change observable behaviour.
	d3, m3 := workloadDigest(t, WithWorkers(3))
	if d3 != d1 || !reflect.DeepEqual(m3, m1) {
		t.Fatal("WithWorkers changed the observable execution")
	}
}

// TestDeterministicErrorReporting: the error of the lowest failing node id is
// returned even when a higher node fails earlier in wall-clock time.
func TestDeterministicErrorReporting(t *testing.T) {
	t.Parallel()
	nw, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	errOf := func(id int) error { return fmt.Errorf("node-%d-failed", id) }
	err = nw.Run(func(nd *Node) error {
		switch nd.ID() {
		case 6: // fails immediately
			return errOf(6)
		case 2: // fails two rounds later
			for r := 0; r < 2; r++ {
				if _, err := nd.Exchange(); err != nil {
					return err
				}
			}
			return errOf(2)
		default:
			for r := 0; r < 3; r++ {
				if _, err := nd.Exchange(); err != nil {
					return err
				}
			}
			return nil
		}
	})
	if err == nil || err.Error() != "node-2-failed" {
		t.Fatalf("want node-2-failed (lowest failing id), got %v", err)
	}
}

// TestSameRoundForwarding documents the contract that a packet received this
// round may be re-sent without cloning.
func TestSameRoundForwarding(t *testing.T) {
	t.Parallel()
	const n = 10
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		// Round 0: node i sends a tagged packet to i+1; round 1: the receiver
		// forwards the received packet, un-cloned, another hop.
		nd.Send((nd.ID()+1)%n, Packet{Word(nd.ID()), 42})
		inbox, err := nd.Exchange()
		if err != nil {
			return err
		}
		p := inbox.Single((nd.ID() - 1 + n) % n)
		nd.Send((nd.ID()+1)%n, p)
		inbox, err = nd.Exchange()
		if err != nil {
			return err
		}
		q := inbox.Single((nd.ID() - 1 + n) % n)
		want := Word((nd.ID() - 2 + n) % n)
		if q == nil || q[0] != want || q[1] != 42 {
			return fmt.Errorf("node %d: forwarded packet %v, want [%d 42]", nd.ID(), q, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunRoundsAllToAll checks the worker-pool scheduler end to end and that
// its metrics and delivery are identical for every worker count.
func TestRunRoundsAllToAll(t *testing.T) {
	t.Parallel()
	const n = 64
	const rounds = 4
	run := func(workers int) (Metrics, uint64) {
		nw, err := New(n, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		digests := make([]uint64, n)
		err = nw.RunRounds(func(nd *Node, round int, inbox Inbox) (bool, error) {
			h := fnv.New64a()
			if round > 0 {
				count := 0
				for f := 0; f < n; f++ {
					for _, p := range inbox.From(f) {
						if int(p[0]) != f || int(p[1]) != round-1 {
							return true, fmt.Errorf("node %d round %d: bad packet %v from %d", nd.ID(), round, p, f)
						}
						count++
					}
				}
				if count != n {
					return true, fmt.Errorf("node %d round %d: %d packets, want %d", nd.ID(), round, count, n)
				}
				fmt.Fprintf(h, "%d/%d/%d;", nd.ID(), round, count)
				digests[nd.ID()] ^= h.Sum64()
			}
			if round == rounds {
				return true, nil
			}
			for to := 0; to < n; to++ {
				nd.Send(to, Packet{Word(nd.ID()), Word(round)})
			}
			return false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, d := range digests {
			fmt.Fprintf(h, "%d;", d)
		}
		return nw.Metrics(), h.Sum64()
	}
	m1, d1 := run(1)
	m8, d8 := run(8)
	m0, d0 := run(0) // GOMAXPROCS
	if m1.Rounds != rounds || m1.TotalMessages != int64(n*n*rounds) {
		t.Fatalf("unexpected metrics: %+v", m1)
	}
	if d1 != d8 || d1 != d0 || !reflect.DeepEqual(m1, m8) || !reflect.DeepEqual(m1, m0) {
		t.Fatal("RunRounds execution depends on worker count")
	}
}

// TestRunRoundsPanicAndError: a panicking step surfaces as that node's error,
// lowest failing id wins, and the run terminates — with the very error the
// same program produces under Run (one panic-to-error conversion, recorded as
// the run's failure by both schedulers).
func TestRunRoundsPanicAndError(t *testing.T) {
	t.Parallel()
	nw, err := New(16, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	// program is node nd's compute phase of the given round; done ends it.
	program := func(nd *Node, round int) (done bool, err error) {
		if round == 2 {
			switch nd.ID() {
			case 9:
				panic("step blew up")
			case 11:
				return true, errors.New("step failed")
			}
		}
		return round == 3, nil
	}
	stepErr := nw.RunRounds(func(nd *Node, round int, inbox Inbox) (bool, error) {
		return program(nd, round)
	})
	if stepErr == nil || !contains(stepErr.Error(), "node 9 panicked") {
		t.Fatalf("want node 9 panic (lowest failing id), got %v", stepErr)
	}
	runErr := nw.Run(func(nd *Node) error {
		for round := 0; ; round++ {
			if done, err := program(nd, round); done || err != nil {
				return err
			}
			if _, err := nd.Exchange(); err != nil {
				return err
			}
		}
	})
	if runErr == nil || runErr.Error() != stepErr.Error() {
		t.Fatalf("Run reports %q, RunRounds %q for the same panicking program", runErr, stepErr)
	}
}

// TestRunRoundsStaggeredDeparture: nodes retire at different rounds, final
// sends are delivered, and packets to departed nodes are dropped and counted.
func TestRunRoundsStaggeredDeparture(t *testing.T) {
	t.Parallel()
	const n = 12
	nw, err := New(n, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	got := make([]int, n)
	err = nw.RunRounds(func(nd *Node, round int, inbox Inbox) (bool, error) {
		got[nd.ID()] += countPackets(inbox)
		// Everyone pings node 1 every round it participates in; node i
		// departs after its step in round i (node 0 immediately).
		nd.Send(1, Packet{Word(nd.ID())})
		return round == nd.ID(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 sees round 0's pings in its round-1 step (n packets, including
	// the one from node 0, whose final sends are delivered) and then departs;
	// it can never receive its own final round's traffic.
	if got[1] != n {
		t.Fatalf("node 1 received %d packets, want %d", got[1], n)
	}
	m := nw.Metrics()
	// Rounds 1..n-2 are delivered with node 1 already departed; round r still
	// has nodes r..n-1 stepping (node r sends its final ping), so n-r pings
	// are dropped per round. Round n-1's send is never delivered at all: the
	// last node's departure empties the clique and delivery is skipped.
	want := 0
	for r := 1; r <= n-2; r++ {
		want += n - r
	}
	if m.DroppedToDeparted != want {
		t.Fatalf("dropped = %d, want %d", m.DroppedToDeparted, want)
	}
	// A second run on the same Network starts from a clean departure state.
	if err := nw.RunRounds(func(nd *Node, round int, inbox Inbox) (bool, error) { return true, nil }); err != nil {
		t.Fatalf("second run on the same network: %v", err)
	}
	if m := nw.Metrics(); m.DroppedToDeparted != 0 {
		t.Fatalf("departure state leaked into second run: %+v", m)
	}
}

// TestRunRoundsExchangeForbidden: the blocking barrier is not available from
// inside a step program.
func TestRunRoundsExchangeForbidden(t *testing.T) {
	t.Parallel()
	nw, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.RunRounds(func(nd *Node, round int, inbox Inbox) (bool, error) {
		_, err := nd.Exchange()
		if err == nil {
			return true, errors.New("Exchange should fail in RunRounds mode")
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWithWorkersValidation rejects negative worker counts.
func TestWithWorkersValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(4, WithWorkers(-1)); err == nil {
		t.Fatal("negative worker count should fail")
	}
}

// TestWithWorkersBlockingRun: bounded compute concurrency on the blocking API
// delivers exactly the same traffic.
func TestWithWorkersBlockingRun(t *testing.T) {
	t.Parallel()
	const n = 64
	nw, err := New(n, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		for r := 0; r < 3; r++ {
			nd.Broadcast(Packet{Word(nd.ID())})
			inbox, err := nd.Exchange()
			if err != nil {
				return err
			}
			if countPackets(inbox) != n {
				return fmt.Errorf("node %d round %d: %d packets, want %d", nd.ID(), r, countPackets(inbox), n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := nw.Metrics(); m.TotalMessages != int64(3*n*n) {
		t.Fatalf("total messages = %d, want %d", m.TotalMessages, 3*n*n)
	}
}

// TestStrictBudgetWakesStragglers: after a budget violation, nodes that were
// still computing (not yet parked) must not deadlock on a dead barrier.
func TestStrictBudgetWakesStragglers(t *testing.T) {
	t.Parallel()
	const n = 6
	nw, err := New(n, WithStrictEdgeBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		for r := 0; r < 4; r++ {
			if nd.ID() == 0 && r == 1 {
				nd.Send(1, Packet{1, 2, 3}) // violates the 1-word budget
			} else {
				nd.Send((nd.ID()+1)%n, Packet{1})
			}
			if _, err := nd.Exchange(); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, ErrBandwidthExceeded) {
		t.Fatalf("want ErrBandwidthExceeded, got %v", err)
	}
}

// TestFailedRunNeverDelivers: the round a run fails in is not delivered, even
// though every surviving node has published its outbox by then. Each node's
// round-1 sends point into a buffer its deferred cleanup overwrites once its
// Exchange hands it the failure — a delivery after that point would copy the
// poison, one before it would show up in Metrics and the arenas. The crash is
// the last node's, so with any worker count the others are swept first and
// sit suspended with published outboxes when it happens; under Run the node
// program panics itself, through a Mux one of its instances does.
func TestFailedRunNeverDelivers(t *testing.T) {
	t.Parallel()
	const n = 6
	const poison = Word(-77)
	program := func(ex Exchanger) error {
		ex.Send((ex.ID()+1)%n, Packet{Word(ex.ID())})
		if _, err := ex.ExchangeFlat(); err != nil {
			return err
		}
		buf := make(Packet, 4)
		defer func() {
			for i := range buf {
				buf[i] = poison
			}
		}()
		for to := 0; to < n; to++ {
			ex.Send(to, buf)
		}
		if ex.ID() == n-1 {
			panic("crash with sends queued")
		}
		_, err := ex.ExchangeFlat()
		return err
	}
	for name, run := range map[string]func(*Node) error{
		"run": func(nd *Node) error { return program(nd) },
		"mux": func(nd *Node) error { return NewMux(nd).Run([]func(Exchanger) error{3: program}) },
	} {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 2, n} {
				nw, err := New(n, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				err = nw.Run(run)
				if err == nil || !contains(err.Error(), "panicked") {
					t.Fatalf("workers=%d: want the panic as the run's error, got %v", workers, err)
				}
				if m := nw.Metrics(); m.Rounds != 1 || m.TotalMessages != n {
					t.Fatalf("workers=%d: %d rounds, %d messages delivered, want round 0's %d messages only", workers, m.Rounds, m.TotalMessages, n)
				}
				for id := 0; id < n; id++ {
					if rec := nw.wordArena[1][id]; len(rec) != 0 {
						t.Fatalf("workers=%d: node %d holds round-1 records %v of a round that must not be delivered", workers, id, rec)
					}
				}
			}
		})
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// falling for 50ms: the goroutines of an earlier test (sweep workers,
// stopped coroutines) may still be exiting when the next one starts, and a
// base counted among them is too high.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 10; still++ {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, still = m, -1
		}
	}
	return n
}

// TestCoroutineLifecycle pins what a Network owes for running blocking
// programs as coroutines: they are made once per node and reused (a warm run's
// allocations do not grow with n), they are gone after Close whatever the last
// run did, a panic costs exactly the coroutine it killed, and a program that
// ignores a failed Exchange is never suspended again.
func TestCoroutineLifecycle(t *testing.T) {
	allToAll := func(payload []Packet) func(*Node) error {
		return func(nd *Node) error {
			for r := 0; r < 3; r++ {
				nd.Broadcast(payload[nd.ID()])
				if _, err := nd.ExchangeFlat(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	payloads := func(n int) []Packet {
		ps := make([]Packet, n)
		for i := range ps {
			ps[i] = Packet{Word(i)}
		}
		return ps
	}

	t.Run("warm run allocations", func(t *testing.T) {
		base := settledGoroutines()
		allocs := map[int]float64{}
		for _, n := range []int{8, 64, 256} {
			nw, err := New(n)
			if err != nil {
				t.Fatal(err)
			}
			program := allToAll(payloads(n))
			allocs[n] = testing.AllocsPerRun(5, func() { // its warm-up call creates the coroutines
				if err := nw.Run(program); err != nil {
					t.Error(err)
				}
			})
			if got := runtime.NumGoroutine(); got < base+n {
				t.Fatalf("n=%d: %d goroutines after a blocking run, want the %d coroutines parked", n, got, n)
			}
			if err := nw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := leakcheck.Settle(base, 2*time.Second); err != nil {
				t.Fatalf("n=%d after Close: %v", n, err)
			}
		}
		if allocs[256] > allocs[8]+4 || allocs[64] > allocs[8]+4 {
			t.Fatalf("allocations of a warm 3-round run grow with n: %v", allocs)
		}
	})

	t.Run("panic", func(t *testing.T) {
		base := settledGoroutines()
		const n = 8
		nw, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		program := allToAll(payloads(n))
		if err := nw.Run(program); err != nil {
			t.Fatal(err)
		}
		err = nw.Run(func(nd *Node) error {
			if _, err := nd.Exchange(); err != nil {
				return err
			}
			if nd.ID() == 2 {
				panic("boom")
			}
			_, err := nd.Exchange()
			return err
		})
		if err == nil || !contains(err.Error(), "node 2 panicked") {
			t.Fatalf("want node 2's panic, got %v", err)
		}
		for i := range nw.coros {
			if dead := nw.coros[i].next == nil; dead != (i == 2) {
				t.Fatalf("after node 2's panic coroutine %d dead = %v", i, dead)
			}
		}
		if err := leakcheck.Settle(base+n-1, 2*time.Second); err != nil {
			t.Fatalf("after the panic: %v", err)
		}
		if err := nw.Run(program); err != nil {
			t.Fatalf("run after the panic: %v", err)
		}
		// Exactly n again (once the run's workers are gone): only the dead
		// coroutine was made anew.
		if err := leakcheck.Settle(base+n, 2*time.Second); err != nil || runtime.NumGoroutine() != base+n {
			t.Fatalf("%d goroutines after the run that followed the panic, want %d (%v)", runtime.NumGoroutine(), base+n, err)
		}
		// Close right after a panicked run: one coroutine is already gone.
		if err := nw.Run(func(nd *Node) error { panic("again") }); err == nil {
			t.Fatal("panicking run reported success")
		}
		if err := nw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := leakcheck.Settle(base, 2*time.Second); err != nil {
			t.Fatalf("after Close: %v", err)
		}
	})

	t.Run("cancel and ignored errors", func(t *testing.T) {
		base := settledGoroutines()
		const n = 8
		nw, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ignored := make([]int, n)
		err = nw.RunContext(ctx, func(nd *Node) error {
			for r := 0; ; r++ {
				if nd.ID() == n/2 && r == 2 {
					cancel() // mid-round: half the nodes are suspended already
				}
				if _, err := nd.Exchange(); err != nil {
					// Ignore it a few times: each further Exchange must hand
					// the failure back at once instead of suspending.
					for i := 0; i < 3; i++ {
						if _, again := nd.Exchange(); again != nil && again.Error() == err.Error() {
							ignored[nd.ID()]++
						}
					}
					return nil
				}
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run error = %v, want one wrapping context.Canceled", err)
		}
		for id, k := range ignored {
			if k != 3 {
				t.Fatalf("node %d got the failure from %d of 3 further exchanges", id, k)
			}
		}
		if err := nw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := leakcheck.Settle(base, 2*time.Second); err != nil {
			t.Fatalf("after Close of a cancelled run: %v", err)
		}
	})
}

package clique

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"congestedclique/internal/leakcheck"
)

// muxAllocsPerNode bounds what a warm two-instance Mux run allocates per node
// beyond the traffic it carries (TestMuxCoroutineLifecycle): 12 on go1.24,
// well below the 22 that making the two instances' coroutines anew would add.
const muxAllocsPerNode = 16

// TestMuxTwoInstancesLockstep runs two logical all-to-all protocols of
// different lengths on the same physical clique and checks that both see only
// their own traffic and that the physical round count equals the length of
// the longer instance.
func TestMuxTwoInstancesLockstep(t *testing.T) {
	t.Parallel()
	const (
		n          = 6
		shortRound = 2
		longRound  = 5
	)
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	allToAll := func(rounds int, tagBase Word) func(Exchanger) error {
		return func(ex Exchanger) error {
			for r := 0; r < rounds; r++ {
				for to := 0; to < ex.N(); to++ {
					ex.Send(to, Packet{tagBase + Word(r), Word(ex.ID())})
				}
				inbox, err := ex.Exchange()
				if err != nil {
					return err
				}
				for from := 0; from < ex.N(); from++ {
					ps := inbox.From(from)
					if len(ps) != 1 {
						return fmt.Errorf("instance %d node %d round %d: %d packets from %d, want 1",
							tagBase, ex.ID(), r, len(ps), from)
					}
					if ps[0][0] != tagBase+Word(r) || int(ps[0][1]) != from {
						return fmt.Errorf("instance %d node %d round %d: bad packet %v from %d",
							tagBase, ex.ID(), r, ps[0], from)
					}
				}
			}
			return nil
		}
	}

	err = nw.Run(func(nd *Node) error {
		mux := NewMux(nd)
		return mux.Run([]func(Exchanger) error{
			0: allToAll(shortRound, 1000),
			1: allToAll(longRound, 2000),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Rounds(); got != longRound {
		t.Fatalf("physical rounds = %d, want %d", got, longRound)
	}
	// Each physical packet carries one extra tag word.
	m := nw.Metrics()
	if m.MaxEdgeWords < 3 {
		t.Fatalf("expected tagged packets of >=3 words, max edge words = %d", m.MaxEdgeWords)
	}
}

// TestMuxSubsetInstance runs an instance that only exists on half the nodes
// next to a global instance, mirroring how the non-square-n routing
// construction uses the multiplexer.
func TestMuxSubsetInstance(t *testing.T) {
	t.Parallel()
	const n = 8
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	globalProgram := func(ex Exchanger) error {
		for r := 0; r < 3; r++ {
			ex.Send((ex.ID()+1)%ex.N(), Packet{Word(ex.ID())})
			inbox, err := ex.Exchange()
			if err != nil {
				return err
			}
			want := (ex.ID() - 1 + ex.N()) % ex.N()
			if p := inbox.Single(want); p == nil || int(p[0]) != want {
				return fmt.Errorf("global instance node %d round %d: bad packet from %d: %v", ex.ID(), r, want, p)
			}
		}
		return nil
	}
	// The subset instance only involves nodes 0..3 and exchanges within them.
	subsetProgram := func(ex Exchanger) error {
		for r := 0; r < 5; r++ {
			for to := 0; to < 4; to++ {
				ex.Send(to, Packet{Word(100 + ex.ID())})
			}
			inbox, err := ex.Exchange()
			if err != nil {
				return err
			}
			count := 0
			for from := 0; from < ex.N(); from++ {
				for _, p := range inbox.From(from) {
					count++
					if int(p[0]) != 100+from || from >= 4 {
						return fmt.Errorf("subset node %d: unexpected packet %v from %d", ex.ID(), p, from)
					}
				}
			}
			if count != 4 {
				return fmt.Errorf("subset node %d round %d received %d packets, want 4", ex.ID(), r, count)
			}
		}
		return nil
	}

	err = nw.Run(func(nd *Node) error {
		programs := []func(Exchanger) error{globalProgram, nil}
		if nd.ID() < 4 {
			programs[1] = subsetProgram
		}
		return NewMux(nd).Run(programs)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 0..3 run 5 rounds (the longer of 3 and 5); nodes 4..7 run 3.
	if got := nw.Rounds(); got != 5 {
		t.Fatalf("physical rounds = %d, want 5", got)
	}
}

// TestMuxInstanceValidation pins what Run checks of its instances. An
// identifier is an index into Run's slice, so a negative or a duplicate one
// cannot be expressed; what is left is that nil entries run nothing — a node
// running no instance at all spends no round — and that a Mux runs one set of
// instances only.
func TestMuxInstanceValidation(t *testing.T) {
	t.Parallel()
	nw, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		mux := NewMux(nd)
		if err := mux.Run(make([]func(Exchanger) error, 3)); err != nil {
			return err
		}
		if err := mux.Run(nil); err == nil {
			return fmt.Errorf("node %d: a second Run on one Mux was accepted", nd.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Rounds(); got != 0 {
		t.Fatalf("a Mux without instances took %d rounds", got)
	}
}

// TestMuxTagPaths pins the instance tags: an instance's identifier on a Mux
// of the node, its path packed into one word on a nested Mux, the same on
// every node; each level's instance exchanges one round before nesting the
// next, reading only its own packets. Run refuses instances whose path does
// not fit a tag: a fifth nesting level, or more than 1<<16 identifiers.
func TestMuxTagPaths(t *testing.T) {
	t.Parallel()
	const n = 3
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	tags := make([][]Word, n)
	err = nw.Run(func(nd *Node) error {
		if err := NewMux(nd).Run(make([]func(Exchanger) error, 1<<16+1)); err == nil {
			return fmt.Errorf("node %d: Run accepted %d instances", nd.ID(), 1<<16+1)
		}
		var nest func(ex Exchanger, depth int) error
		nest = func(ex Exchanger, depth int) error {
			tags[ex.ID()] = append(tags[ex.ID()], ex.(FrameTagger).FrameTag())
			ex.Send((ex.ID()+1)%n, Packet{Word(depth)})
			inbox, err := ex.Exchange()
			if err != nil {
				return err
			}
			from := (ex.ID() + n - 1) % n
			if p := inbox.Single(from); len(p) != 1 || p[0] != Word(depth) || len(ex.InboxSenders()) != 1 {
				return fmt.Errorf("node %d depth %d: received %v", ex.ID(), depth, inbox)
			}
			return NewMux(ex).Run([]func(Exchanger) error{3: func(ex Exchanger) error { return nest(ex, depth+1) }})
		}
		return NewMux(nd).Run([]func(Exchanger) error{3: func(ex Exchanger) error { return nest(ex, 1) }})
	})
	if err == nil || !strings.Contains(err.Error(), "do not fit a frame tag") {
		t.Fatalf("nesting without end ended with %v", err)
	}
	want := []Word{3, 4<<16 | 3, (4<<16|3+1)<<16 | 3, ((4<<16|3+1)<<16|3+1)<<16 | 3}
	for id, got := range tags {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: tags %v, want %v", id, got, want)
		}
	}
	if got := nw.Rounds(); got != len(want) {
		t.Fatalf("physical rounds = %d, want %d", got, len(want))
	}
}

func TestMuxPropagatesInstanceError(t *testing.T) {
	t.Parallel()
	nw, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		mux := NewMux(nd)
		return mux.Run([]func(Exchanger) error{
			0: func(ex Exchanger) error {
				if ex.ID() == 1 {
					return fmt.Errorf("instance failure on node %d", ex.ID())
				}
				return nil
			},
		})
	})
	if err == nil {
		t.Fatal("expected instance error to propagate")
	}
}

// muxProgram is the node program of the Mux failure tests: two relay
// instances on a Mux of the node or, stacked, on a Mux of an instance that
// runs beside a third relay. A relay sends one packet per round and folds what
// it receives into sums[node] (nil: nothing is kept); boom, when set, runs at
// the top of every round and may panic or stop the relay with an error.
func muxProgram(stacked bool, sums []int64, boom func(ex Exchanger, base Word, r int) error) func(*Node) error {
	const rounds = 4
	relay := func(base Word) func(Exchanger) error {
		return func(ex Exchanger) error {
			acc := int64(base) * int64(ex.ID()+1)
			for r := 0; r < rounds; r++ {
				if boom != nil {
					if err := boom(ex, base, r); err != nil {
						return err
					}
				}
				ex.Send((ex.ID()+r+1)%ex.N(), Packet{base, Word(ex.ID())})
				inbox, err := ex.Exchange()
				if err != nil {
					return err
				}
				for from := 0; from < ex.N(); from++ {
					for _, p := range inbox.From(from) {
						acc += int64(p[0]) * int64(p[1]+1)
					}
				}
			}
			if sums != nil {
				// All instances of a node add into its slot, one at a time.
				sums[ex.ID()] += acc
			}
			return nil
		}
	}
	pair := func(ex Exchanger) error {
		return NewMux(ex).Run([]func(Exchanger) error{relay(1000), relay(2000)})
	}
	return func(nd *Node) error {
		if stacked {
			return NewMux(nd).Run([]func(Exchanger) error{0: relay(3000), 2: pair})
		}
		return pair(nd)
	}
}

// muxFailure is one way a node's Mux fails, on a Mux of the node or on one
// stacked on an instance of it: an armed fault plan, or what boom does.
type muxFailure struct {
	name    string
	stacked bool
	plan    *FaultPlan
	boom    func(ex Exchanger, base Word, r int) error
	want    string
}

// muxFailures lists the failure cases: node 2 crashes in round 1 — inside the
// physical exchange (an injected panic, which on a stacked Mux fires while the
// inner Mux exchanges) or in the first instance's program — or that instance
// returns an error while its siblings are suspended.
func muxFailures() []muxFailure {
	injected := func() *FaultPlan {
		return &FaultPlan{Faults: []Fault{{Kind: FaultPanic, Node: 2, Round: 1}}}
	}
	bug := func(ex Exchanger, base Word, r int) error {
		if ex.ID() == 2 && r == 1 && base == 1000 {
			panic("instance bug")
		}
		return nil
	}
	fails := func(ex Exchanger, base Word, r int) error {
		if ex.ID() == 2 && r == 1 && base == 1000 {
			return fmt.Errorf("instance %d failed on node %d", base, ex.ID())
		}
		return nil
	}
	return []muxFailure{
		{"injected-mid-exchange", false, injected(), nil, "clique: node 2 panicked in round 1: injected fault"},
		{"instance-program-panic", false, nil, bug, "clique: node 2 panicked: instance bug"},
		{"stacked/injected-mid-exchange", true, injected(), nil, "clique: node 2 panicked in round 1: injected fault"},
		{"stacked/instance-program-panic", true, nil, bug, "clique: node 2 panicked: instance bug"},
		{"stacked/instance-error", true, nil, fails, "instance 1000 failed on node 2"},
	}
}

// TestMuxPanicFailsRunFast pins the fail-fast rule on the multiplexed path:
// a panic inside a Mux instance — whether injected by the engine's fault
// plan mid physical exchange, or raised by the instance program itself, on a
// Mux of the node or on a stacked one — must fail the whole run with the panic
// as root cause, where an instance that returns an error only departs. Either
// way the peers must not be left waiting at the physical barrier for the
// crashed node's exchange, and the engine must run cleanly afterwards.
func TestMuxPanicFailsRunFast(t *testing.T) {
	t.Parallel()
	const n = 4
	for _, tc := range muxFailures() {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := New(n)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			golden := make([]int64, n)
			if err := nw.Run(muxProgram(tc.stacked, golden, nil)); err != nil {
				t.Fatalf("fault-free run failed: %v", err)
			}

			nw.SetFaultPlan(tc.plan)
			err = nw.Run(muxProgram(tc.stacked, nil, tc.boom))
			if err == nil || err.Error() != tc.want {
				t.Fatalf("run error %v, want %q", err, tc.want)
			}
			if tc.plan != nil && !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("injected panic lost its ErrFaultInjected identity: %v", err)
			}

			// A failed multiplexed run must not poison the engine.
			again := make([]int64, n)
			if err := nw.Run(muxProgram(tc.stacked, again, nil)); err != nil {
				t.Fatalf("clean run after the failed one failed: %v", err)
			}
			for i := range golden {
				if golden[i] != again[i] {
					t.Fatalf("node %d: run after the failure diverged: %d != %d", i, again[i], golden[i])
				}
			}
		})
	}
}

// TestMuxCoroutineLifecycle pins what the Mux's instances owe the Network
// whose pooled coroutines they run on: a Mux takes one per instance and gives
// it back when the instance returns, so later Muxes of the node — within the
// run, nested or in later runs — create none; a failed run costs at most the
// coroutines it stopped; Close ends them all; and a warm Mux run allocates
// little beyond the traffic it carries.
func TestMuxCoroutineLifecycle(t *testing.T) {
	const n = 8
	start := runtime.NumGoroutine()
	// settle bounds the goroutines from above only: a run's sweep workers
	// exit just after it returns, possibly after the caller counted its base.
	settle := func(t *testing.T, want int) {
		t.Helper()
		if err := leakcheck.Settle(want, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	pooled := func(nw *Network, want int) error {
		for i, idle := range nw.idle {
			if len(idle) != want {
				return fmt.Errorf("node %d pools %d coroutines, want %d", i, len(idle), want)
			}
		}
		return nil
	}

	t.Run("pooled across Muxes, nesting and runs", func(t *testing.T) {
		base := runtime.NumGoroutine()
		nw, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		twice := func(nd *Node) error {
			for k := 0; k < 2; k++ {
				if err := muxProgram(false, nil, nil)(nd); err != nil {
					return err
				}
			}
			return nil
		}
		for run := 0; run < 3; run++ {
			if err := nw.Run(twice); err != nil {
				t.Fatal(err)
			}
			if err := pooled(nw, 2); err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			settle(t, base+3*n) // the node's own coroutine and its two pooled ones
		}
		// The stacked program needs four per node: two more than the pool
		// holds on its first run, none on later ones.
		for run := 0; run < 3; run++ {
			if err := nw.Run(muxProgram(true, nil, nil)); err != nil {
				t.Fatal(err)
			}
			if err := pooled(nw, 4); err != nil {
				t.Fatalf("stacked run %d: %v", run, err)
			}
			settle(t, base+5*n)
		}
		if err := nw.Close(); err != nil {
			t.Fatal(err)
		}
		settle(t, base)
	})

	t.Run("failed runs", func(t *testing.T) {
		for _, tc := range muxFailures() {
			t.Run(tc.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				nw, err := New(n)
				if err != nil {
					t.Fatal(err)
				}
				clean := muxProgram(tc.stacked, nil, nil)
				perNode := 3
				if tc.stacked {
					perNode = 5
				}
				for cycle := 0; cycle < 2; cycle++ {
					nw.SetFaultPlan(tc.plan)
					if err := nw.Run(muxProgram(tc.stacked, nil, tc.boom)); err == nil {
						t.Fatal("failing run reported success")
					}
					// What the failure stopped is made anew, and only that.
					if err := nw.Run(clean); err != nil {
						t.Fatal(err)
					}
					if err := pooled(nw, perNode-1); err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
					settle(t, base+perNode*n)
				}
				// Close right after a failed run, too.
				nw.SetFaultPlan(tc.plan)
				if err := nw.Run(muxProgram(tc.stacked, nil, tc.boom)); err == nil {
					t.Fatal("failing run reported success")
				}
				if err := nw.Close(); err != nil {
					t.Fatal(err)
				}
				settle(t, base)
			})
		}
	})

	t.Run("warm run allocations", func(t *testing.T) {
		// The same traffic, two relays' worth per node, with and without a
		// Mux: what a warm Mux run allocates beyond the plain run is the Mux,
		// its virtual nodes and their views — never a coroutine.
		sendAll := func(ex Exchanger, base Word) error {
			for r := 0; r < 4; r++ {
				ex.Send((ex.ID()+r+1)%ex.N(), Packet{base, Word(ex.ID())})
				if _, err := ex.Exchange(); err != nil {
					return err
				}
			}
			return nil
		}
		plain := func(nd *Node) error {
			for r := 0; r < 4; r++ {
				nd.Send((nd.ID()+r+1)%n, Packet{1000, Word(nd.ID())})
				nd.Send((nd.ID()+r+1)%n, Packet{2000, Word(nd.ID())})
				if _, err := nd.Exchange(); err != nil {
					return err
				}
			}
			return nil
		}
		muxed := func(nd *Node) error {
			return NewMux(nd).Run([]func(Exchanger) error{
				func(ex Exchanger) error { return sendAll(ex, 1000) },
				func(ex Exchanger) error { return sendAll(ex, 2000) },
			})
		}
		measure := func(program func(*Node) error, runs int) float64 {
			nw, err := New(n)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			return testing.AllocsPerRun(runs, func() {
				if err := nw.Run(program); err != nil {
					t.Error(err)
				}
			})
		}
		base := measure(plain, 20)
		early, late := measure(muxed, 5), measure(muxed, 40)
		t.Logf("warm run allocations: %v without a Mux, %v with (over 5 runs), %v (over 40)", base, early, late)
		// Slack of two per node: under -race sync.Pool drops a share of the
		// buffers put back on purpose.
		if late > early+2*n {
			t.Fatalf("a warm Mux run's allocations grow across runs: %v over 5 runs, %v over 40", early, late)
		}
		// A fresh coroutine costs eleven allocations, so a Mux that made its
		// instances' anew would cost over 22 per node.
		if perNode := (late - base) / n; perNode > muxAllocsPerNode {
			t.Fatalf("a warm Mux run allocates %.1f per node beyond its traffic, want at most %d", perNode, muxAllocsPerNode)
		}
	})

	t.Run("under RunRounds", func(t *testing.T) {
		nw, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		done := make(chan error, 1)
		go func() {
			done <- nw.RunRounds(func(nd *Node, r int, inbox Inbox) (bool, error) {
				return true, NewMux(nd).Run([]func(Exchanger) error{
					func(ex Exchanger) error { _, err := ex.Exchange(); return err },
				})
			})
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("a Mux under RunRounds reported success")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a Mux under RunRounds hung")
		}
	})

	// Leave no exiting goroutine behind for the next test's count.
	settle(t, start)
}

// TestScratchSlotsOutliveClose checks that the executors' ScratchHolder slots
// — each node's and each of its Mux coroutines' — reach the next Network
// built on the released buffer set, a larger one and a smaller one, and that
// memory made by a small Network serves a larger one on the same set. The
// collector is off: a collection may reclaim a released set, and then the
// next Network starts cold, correctly.
func TestScratchSlotsOutliveClose(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var seen atomic.Int32
	mark := func(ex Exchanger) error {
		slot := ex.(ScratchHolder).ScratchSlot()
		if *slot != nil {
			seen.Add(1)
		}
		*slot = true
		_, err := ex.ExchangeFlat()
		return err
	}
	program := func(nd *Node) error {
		if err := mark(nd); err != nil {
			return err
		}
		return NewMux(nd).Run([]func(Exchanger) error{mark, mark})
	}
	// A buffer set for 8 nodes, released without executor memory.
	nw, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	nw.mem = nil
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, n := range []int{4, 8, 4} {
		if nw, err = New(n); err != nil {
			t.Fatal(err)
		}
		seen.Store(0)
		if err := nw.Run(program); err != nil {
			t.Fatal(err)
		}
		if err := nw.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := seen.Load(), int32(3*min(n, prev)); got != want {
			t.Fatalf("n=%d after n=%d: %d slots held the last network's values, want %d", n, prev, got, want)
		}
		prev = n
	}
}

func TestVNodeDelegation(t *testing.T) {
	t.Parallel()
	nw, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		mux := NewMux(nd)
		return mux.Run([]func(Exchanger) error{
			7: func(ex Exchanger) error {
				if ex.ID() != nd.ID() || ex.N() != nd.N() {
					return fmt.Errorf("identity not delegated")
				}
				ex.CountSteps(5)
				ex.ReportMemory(11)
				v := ex.SharedComputeKeyed(SharedKey{Label: "k"}, func() interface{} { return "v" })
				if v.(string) != "v" {
					return fmt.Errorf("shared compute not delegated")
				}
				if ex.Round() != 0 {
					return fmt.Errorf("round should start at 0")
				}
				return nil
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	m := nw.Metrics()
	if m.MaxStepsPerNode != 5 || m.MaxMemoryWordsPerNode != 11 {
		t.Fatalf("instrumentation not delegated: %+v", m)
	}
}

package clique

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

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
		return mux.Run(map[int]func(Exchanger) error{
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
		mux := NewMux(nd)
		programs := map[int]func(Exchanger) error{0: globalProgram}
		if nd.ID() < 4 {
			programs[1] = subsetProgram
		}
		return mux.Run(programs)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 0..3 run 5 rounds (the longer of 3 and 5); nodes 4..7 run 3.
	if got := nw.Rounds(); got != 5 {
		t.Fatalf("physical rounds = %d, want 5", got)
	}
}

func TestMuxInstanceValidation(t *testing.T) {
	t.Parallel()
	nw, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = nw.Run(func(nd *Node) error {
		mux := NewMux(nd)
		if _, err := mux.Instance(-1); err == nil {
			return fmt.Errorf("negative instance id accepted")
		}
		if _, err := mux.Instance(1); err != nil {
			return err
		}
		if _, err := mux.Instance(1); err == nil {
			return fmt.Errorf("duplicate instance id accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
		return mux.Run(map[int]func(Exchanger) error{
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

// TestMuxPanicFailsRunFast pins the fail-fast rule on the multiplexed path:
// a panic inside a Mux instance — whether injected by the engine's fault
// plan mid physical exchange, or raised by the instance program itself —
// must fail the whole run with the panic as root cause. Before the fix, the
// Mux's recovery downgraded the panic to a graceful instance error without
// broadcasting a failure, so peer nodes deadlocked at the physical barrier
// waiting for the crashed node's exchange (the bug only reproduces on the
// Mux path, which square-n routing never takes).
func TestMuxPanicFailsRunFast(t *testing.T) {
	t.Parallel()
	const n, rounds = 4, 4

	var sumsMu sync.Mutex
	muxProgram := func(sums []int64, boom func(ex Exchanger, r int)) func(*Node) error {
		relay := func(base Word) func(Exchanger) error {
			return func(ex Exchanger) error {
				acc := int64(base) * int64(ex.ID()+1)
				for r := 0; r < rounds; r++ {
					if boom != nil {
						boom(ex, r)
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
					// Both instances of a node add into its slot.
					sumsMu.Lock()
					sums[ex.ID()] += acc
					sumsMu.Unlock()
				}
				return nil
			}
		}
		return func(nd *Node) error {
			mux := NewMux(nd)
			return mux.Run(map[int]func(Exchanger) error{
				0: relay(1000),
				1: relay(2000),
			})
		}
	}

	for name, tc := range map[string]struct {
		arm  func(nw *Network)
		boom func(ex Exchanger, r int)
		want string
	}{
		"injected-mid-exchange": {
			arm: func(nw *Network) {
				nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultPanic, Node: 2, Round: 1}}})
			},
			want: "node 2 panicked in round 1",
		},
		"instance-program-panic": {
			boom: func(ex Exchanger, r int) {
				if ex.ID() == 2 && r == 1 {
					panic("instance bug")
				}
			},
			want: "panicked",
		},
	} {
		t.Run(name, func(t *testing.T) {
			nw, err := New(n)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			golden := make([]int64, n)
			if err := nw.Run(muxProgram(golden, nil)); err != nil {
				t.Fatalf("fault-free run failed: %v", err)
			}

			if tc.arm != nil {
				tc.arm(nw)
			}
			err = nw.Run(muxProgram(nil, tc.boom))
			if err == nil {
				t.Fatal("panicked run reported success")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the panic root cause %q", err, tc.want)
			}
			if tc.arm != nil && !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("injected panic lost its ErrFaultInjected identity: %v", err)
			}

			// A failed multiplexed run must not poison the engine.
			again := make([]int64, n)
			if err := nw.Run(muxProgram(again, nil)); err != nil {
				t.Fatalf("clean run after mux panic failed: %v", err)
			}
			for i := range golden {
				if golden[i] != again[i] {
					t.Fatalf("node %d: post-panic run diverged: %d != %d", i, again[i], golden[i])
				}
			}
		})
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
		return mux.Run(map[int]func(Exchanger) error{
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

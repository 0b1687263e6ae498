package clique

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"congestedclique/internal/leakcheck"
)

// chaosProgram is a small deterministic multi-round workload: every node
// relays a rolling checksum around the clique for rounds rounds and records
// its final value in sums. It is the golden against which fault runs are
// compared.
func chaosProgram(rounds int, sums []int64) func(*Node) error {
	return func(nd *Node) error {
		acc := int64(nd.ID() + 1)
		for r := 0; r < rounds; r++ {
			to := (nd.ID() + r + 1) % nd.N()
			nd.Send(to, Packet{Word(acc)})
			inbox, err := nd.Exchange()
			if err != nil {
				return err
			}
			for from, pkts := range inbox {
				for _, p := range pkts {
					acc += int64(from+1) * int64(p[0])
				}
			}
		}
		sums[nd.ID()] = acc
		return nil
	}
}

func runChaosGolden(t *testing.T, nw *Network, n, rounds int) []int64 {
	t.Helper()
	sums := make([]int64, n)
	if err := nw.Run(chaosProgram(rounds, sums)); err != nil {
		t.Fatalf("fault-free run failed: %v", err)
	}
	return sums
}

func TestInjectedPanicDeterministic(t *testing.T) {
	const n, rounds = 8, 5
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	var msgs []string
	for i := 0; i < 3; i++ {
		nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultPanic, Node: 3, Round: 2}}})
		sums := make([]int64, n)
		err := nw.Run(chaosProgram(rounds, sums))
		if err == nil {
			t.Fatal("injected panic did not fail the run")
		}
		if !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("error does not wrap ErrFaultInjected: %v", err)
		}
		for _, want := range []string{"node 3", "round 2"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		}
		msgs = append(msgs, err.Error())
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("injected panic not deterministic: %q vs %q", msgs[0], m)
		}
	}

	// The plan was consumed: the engine must be fault-free and fully usable.
	golden := runChaosGolden(t, nw, n, rounds)
	again := runChaosGolden(t, nw, n, rounds)
	for i := range golden {
		if golden[i] != again[i] {
			t.Fatalf("node %d: fault-free replay diverged: %d vs %d", i, golden[i], again[i])
		}
	}
}

func TestInjectedStallIsAbsorbed(t *testing.T) {
	const n, rounds = 6, 4
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	golden := runChaosGolden(t, nw, n, rounds)

	nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultStall, Node: 2, Round: 1, Stall: 20 * time.Millisecond}}})
	sums := make([]int64, n)
	if err := nw.Run(chaosProgram(rounds, sums)); err != nil {
		t.Fatalf("stalled run failed: %v", err)
	}
	for i := range golden {
		if sums[i] != golden[i] {
			t.Fatalf("node %d: stalled run diverged from golden: %d vs %d", i, sums[i], golden[i])
		}
	}
}

func TestInjectedStallAbsorbedUnderRoundDeadline(t *testing.T) {
	const n, rounds = 6, 4
	nw, err := New(n, WithRoundDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	golden := runChaosGolden(t, nw, n, rounds)
	nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultStall, Node: 1, Round: 2, Stall: 10 * time.Millisecond}}})
	sums := make([]int64, n)
	if err := nw.Run(chaosProgram(rounds, sums)); err != nil {
		t.Fatalf("stalled run under generous deadline failed: %v", err)
	}
	for i := range golden {
		if sums[i] != golden[i] {
			t.Fatalf("node %d: diverged from golden: %d vs %d", i, sums[i], golden[i])
		}
	}
}

func TestWatchdogConvertsStallIntoDeadlineFailure(t *testing.T) {
	const n, rounds = 6, 4
	nw, err := New(n, WithRoundDeadline(40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	// The stall is far longer than the deadline; the watchdog must fail the
	// run promptly and the interruptible stall must not sleep out its full
	// duration.
	nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultStall, Node: 4, Round: 1, Stall: 30 * time.Second}}})
	sums := make([]int64, n)
	start := time.Now()
	err = nw.Run(chaosProgram(rounds, sums))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("watchdog did not fail the stalled run")
	}
	if !errors.Is(err, ErrRoundDeadline) {
		t.Fatalf("error does not wrap ErrRoundDeadline: %v", err)
	}
	for _, want := range []string{"round 1", "waiting on 1 of 6 nodes", "nodes 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("watchdog diagnostic %q does not name %q", err, want)
		}
	}
	if elapsed > 5*time.Second {
		t.Fatalf("stalled run took %v; the watchdog fire did not interrupt the stall", elapsed)
	}

	// Engine stays usable and bit-identical after the failure.
	golden := runChaosGolden(t, nw, n, rounds)
	if golden[0] == 0 {
		t.Fatal("golden checksum unexpectedly zero")
	}
}

func TestInjectedCancelAtTurnOver(t *testing.T) {
	const n, rounds = 8, 5
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	var msgs []string
	for i := 0; i < 2; i++ {
		nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultCancel, Round: 1}}})
		sums := make([]int64, n)
		err := nw.Run(chaosProgram(rounds, sums))
		if err == nil {
			t.Fatal("injected cancellation did not fail the run")
		}
		if !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("error does not wrap ErrFaultInjected: %v", err)
		}
		if !strings.Contains(err.Error(), "round 1 turn-over") {
			t.Fatalf("error %q does not name the turn-over round", err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("injected cancellation not deterministic: %q vs %q", msgs[0], msgs[1])
	}
	runChaosGolden(t, nw, n, rounds)
}

// chaosStepProgram is chaosProgram for the engine-driven scheduler: the same
// rolling-checksum relay, expressed as a StepFunc. Sends of round r arrive in
// the inbox of round r+1, so the final accumulation happens in round `rounds`
// with no sends — producing checksums identical to the blocking program's.
func chaosStepProgram(rounds int, sums []int64) StepFunc {
	accs := make([]int64, len(sums))
	return func(nd *Node, round int, inbox Inbox) (bool, error) {
		id := nd.ID()
		if round == 0 {
			accs[id] = int64(id + 1)
		}
		for from := 0; from < len(inbox); from++ {
			for _, p := range inbox[from] {
				accs[id] += int64(from+1) * int64(p[0])
			}
		}
		if round == rounds {
			sums[id] = accs[id]
			return true, nil
		}
		nd.Send((id+round+1)%nd.N(), Packet{Word(accs[id])})
		return false, nil
	}
}

func runStepChaosGolden(t *testing.T, nw *Network, n, rounds int) []int64 {
	t.Helper()
	sums := make([]int64, n)
	if err := nw.RunRounds(chaosStepProgram(rounds, sums)); err != nil {
		t.Fatalf("fault-free step run failed: %v", err)
	}
	return sums
}

func TestRunRoundsInjectedPanic(t *testing.T) {
	const n, rounds = 8, 5
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	var msgs []string
	for i := 0; i < 3; i++ {
		nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultPanic, Node: 3, Round: 2}}})
		sums := make([]int64, n)
		err := nw.RunRounds(chaosStepProgram(rounds, sums))
		if err == nil {
			t.Fatal("injected panic did not fail the step run")
		}
		if !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("error does not wrap ErrFaultInjected: %v", err)
		}
		for _, want := range []string{"node 3", "round 2"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		}
		msgs = append(msgs, err.Error())
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("injected step panic not deterministic: %q vs %q", msgs[0], m)
		}
	}

	// The plan was consumed: later step runs are fault-free and bit-identical.
	golden := runStepChaosGolden(t, nw, n, rounds)
	again := runStepChaosGolden(t, nw, n, rounds)
	for i := range golden {
		if golden[i] != again[i] {
			t.Fatalf("node %d: fault-free step replay diverged: %d vs %d", i, golden[i], again[i])
		}
	}
}

func TestRunRoundsStallAbsorbed(t *testing.T) {
	const n, rounds = 6, 4
	nw, err := New(n, WithRoundDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	golden := runStepChaosGolden(t, nw, n, rounds)
	nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultStall, Node: 2, Round: 1, Stall: 20 * time.Millisecond}}})
	sums := make([]int64, n)
	if err := nw.RunRounds(chaosStepProgram(rounds, sums)); err != nil {
		t.Fatalf("stalled step run failed: %v", err)
	}
	for i := range golden {
		if sums[i] != golden[i] {
			t.Fatalf("node %d: stalled step run diverged from golden: %d vs %d", i, sums[i], golden[i])
		}
	}
}

func TestRunRoundsWatchdogFailsLongStall(t *testing.T) {
	const n, rounds = 6, 4
	nw, err := New(n, WithRoundDeadline(40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultStall, Node: 4, Round: 1, Stall: 30 * time.Second}}})
	sums := make([]int64, n)
	start := time.Now()
	err = nw.RunRounds(chaosStepProgram(rounds, sums))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("watchdog did not fail the stalled step run")
	}
	if !errors.Is(err, ErrRoundDeadline) {
		t.Fatalf("error does not wrap ErrRoundDeadline: %v", err)
	}
	for _, want := range []string{"round 1", "waiting on 1 of 6 nodes", "nodes 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("watchdog diagnostic %q does not name %q", err, want)
		}
	}
	if elapsed > 5*time.Second {
		t.Fatalf("stalled step run took %v; the watchdog fire did not interrupt the stall", elapsed)
	}

	// Engine stays usable and deterministic after the failure.
	golden := runStepChaosGolden(t, nw, n, rounds)
	again := runStepChaosGolden(t, nw, n, rounds)
	for i := range golden {
		if golden[i] != again[i] {
			t.Fatalf("node %d: post-failure step replay diverged", i)
		}
	}
}

func TestRunRoundsInjectedCancel(t *testing.T) {
	const n, rounds = 8, 5
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	var msgs []string
	for i := 0; i < 2; i++ {
		nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultCancel, Round: 1}}})
		sums := make([]int64, n)
		err := nw.RunRounds(chaosStepProgram(rounds, sums))
		if err == nil {
			t.Fatal("injected cancellation did not fail the step run")
		}
		if !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("error does not wrap ErrFaultInjected: %v", err)
		}
		if !strings.Contains(err.Error(), "round 1 turn-over") {
			t.Fatalf("error %q does not name the turn-over round", err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("injected step cancellation not deterministic: %q vs %q", msgs[0], msgs[1])
	}
	runStepChaosGolden(t, nw, n, rounds)
}

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		fault Fault
		ok    bool
	}{
		{Fault{Kind: FaultPanic, Node: 0, Round: 0}, true},
		{Fault{Kind: FaultPanic, Node: 8, Round: 0}, false},
		{Fault{Kind: FaultPanic, Node: -1, Round: 0}, false},
		{Fault{Kind: FaultPanic, Node: 0, Round: -1}, false},
		{Fault{Kind: FaultStall, Node: 3, Round: 2, Stall: time.Millisecond}, true},
		{Fault{Kind: FaultStall, Node: 3, Round: 2}, false},
		{Fault{Kind: FaultCancel, Round: 4}, true},
		{Fault{Kind: FaultKind(99), Round: 0}, false},
	}
	for i, c := range cases {
		plan := &FaultPlan{Faults: []Fault{c.fault}}
		err := plan.Validate(8)
		if c.ok && err != nil {
			t.Errorf("case %d: unexpected validation error: %v", i, err)
		}
		if !c.ok && err == nil {
			t.Errorf("case %d: invalid fault %+v passed validation", i, c.fault)
		}
	}
	if err := (*FaultPlan)(nil).Validate(8); err != nil {
		t.Errorf("nil plan must validate: %v", err)
	}
}

// TestFailurePathDoesNotPoisonPooledBuffers pins the buffer audit: a run that
// fails between outbox publication and delivery (here via an injected
// cancellation at the turn-over) must not return netBuffers to the pool with
// pendingPacket entries still referencing caller-owned payload memory.
func TestFailurePathDoesNotPoisonPooledBuffers(t *testing.T) {
	const n = 4
	nw, err := New(n)
	if err != nil {
		t.Fatal(err)
	}

	payload := make(Packet, 64)
	for i := range payload {
		payload[i] = Word(i)
	}
	nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultCancel, Round: 0}}})
	err = nw.Run(func(nd *Node) error {
		for to := 0; to < nd.N(); to++ {
			nd.Send(to, payload)
		}
		_, err := nd.Exchange()
		return err
	})
	if !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("expected injected cancellation, got %v", err)
	}

	closeAndAuditBuffers(t, nw)
}

// closeAndAuditBuffers closes a Network whose last run failed with published
// outboxes still undelivered and checks what Close hands back to the pool:
// every outbox slot nilled, every outbox and both outbox backing arrays of
// every node cleared of packet references, every view at rest and no
// delivery shard still pointing at the Network or holding a panic value.
func closeAndAuditBuffers(t *testing.T, nw *Network) {
	t.Helper()
	n, b := nw.n, nw.buffers
	var backing [][]pendingPacket
	published := 0
	for i := 0; i < n; i++ {
		if out := nw.outboxes[i]; out != nil {
			backing = append(backing, out[:cap(out)])
			published++
		}
		backing = append(backing, b.pending[i][:cap(b.pending[i])], b.spare[i][:cap(b.spare[i])])
	}
	if published == 0 {
		t.Fatal("test setup: no published outboxes survived the failed run")
	}
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if b.outboxes[i] != nil || b.outOffs[i] != nil {
			t.Fatalf("pooled netBuffers.outboxes[%d] still set after Close", i)
		}
		if err := viewAtRest(&b.views[i]); err != nil {
			t.Fatalf("pooled netBuffers.views[%d] after Close: %v", i, err)
		}
	}
	for ai, arr := range backing {
		for pi := range arr {
			if arr[pi].data != nil {
				t.Fatalf("outbox array %d entry %d still references payload after Close", ai, pi)
			}
		}
	}
	for s, sh := range b.shards {
		if sh.nw != nil || sh.panicked != nil {
			t.Fatalf("pooled shard %d still references its Network or a panic value", s)
		}
	}
}

// TestWatchdogNoGoroutineLeak is the goleak-style assertion: deadline-enabled
// runs (including a watchdog fire) must leave no goroutines behind once the
// Network is closed.
func TestWatchdogNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	nw, err := New(6, WithRoundDeadline(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]int64, 6)
	for i := 0; i < 3; i++ {
		if err := nw.Run(chaosProgram(3, sums)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultStall, Node: 0, Round: 0, Stall: 10 * time.Second}}})
	if err := nw.Run(chaosProgram(3, sums)); !errors.Is(err, ErrRoundDeadline) {
		t.Fatalf("expected deadline failure, got %v", err)
	}
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}

	if err := leakcheck.Settle(before, 2*time.Second); err != nil {
		t.Fatalf("after close: %v", err)
	}
}

// TestWatchdogManyCleanRuns exercises the kick/halt handshake across many
// consecutive runs on one deadline-enabled engine, mixing fault-free runs
// with injected failures; no run may hang and the engine must stay usable.
func TestWatchdogManyCleanRuns(t *testing.T) {
	const n, rounds = 5, 3
	nw, err := New(n, WithRoundDeadline(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	sums := make([]int64, n)
	for i := 0; i < 50; i++ {
		if i%7 == 3 {
			nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultPanic, Node: i % n, Round: i % rounds}}})
			if err := nw.Run(chaosProgram(rounds, sums)); !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("run %d: expected injected fault, got %v", i, err)
			}
			continue
		}
		if err := nw.Run(chaosProgram(rounds, sums)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

func TestFaultKindString(t *testing.T) {
	for kind, want := range map[FaultKind]string{
		FaultPanic:    "panic",
		FaultStall:    "stall",
		FaultCancel:   "cancel",
		FaultKind(42): "FaultKind(42)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", kind, got, want)
		}
	}
}

func TestWatchdogDiagnosticListTruncation(t *testing.T) {
	if got := fmtNodeList(nil); got != "none" {
		t.Errorf("empty list rendered as %q", got)
	}
	ids := make([]int, 12)
	for i := range ids {
		ids[i] = i
	}
	got := fmtNodeList(ids)
	if !strings.Contains(got, "… 4 more") {
		t.Errorf("long list not truncated: %q", got)
	}
	if got2 := fmtNodeList([]int{3, 9}); got2 != "nodes 3, 9" {
		t.Errorf("short list rendered as %q", got2)
	}
}

// TestConcurrentFaultEngines runs several fault-injected engines at once to
// give the race detector surface area over the watchdog, the stall wake-up
// and the idempotent barrier release.
func TestConcurrentFaultEngines(t *testing.T) {
	const n, rounds = 5, 4
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			done <- func() error {
				nw, err := New(n, WithRoundDeadline(30*time.Millisecond))
				if err != nil {
					return err
				}
				defer nw.Close()
				sums := make([]int64, n)
				for i := 0; i < 10; i++ {
					switch (g + i) % 3 {
					case 0:
						nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultStall, Node: i % n, Round: i % rounds, Stall: 10 * time.Second}}})
						if err := nw.Run(chaosProgram(rounds, sums)); !errors.Is(err, ErrRoundDeadline) {
							return fmt.Errorf("iter %d: expected deadline failure, got %v", i, err)
						}
					case 1:
						nw.SetFaultPlan(&FaultPlan{Faults: []Fault{{Kind: FaultCancel, Round: i % rounds}}})
						if err := nw.Run(chaosProgram(rounds, sums)); !errors.Is(err, ErrFaultInjected) {
							return fmt.Errorf("iter %d: expected injected fault, got %v", i, err)
						}
					default:
						if err := nw.Run(chaosProgram(rounds, sums)); err != nil {
							return fmt.Errorf("iter %d: clean run failed: %v", i, err)
						}
					}
				}
				return nil
			}()
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

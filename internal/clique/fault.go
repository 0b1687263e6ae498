package clique

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// ErrFaultInjected is wrapped by every error produced by a FaultPlan: injected
// node panics, and injected cancellations at a barrier turn-over. Stalls do
// not wrap it by themselves (a stall only delays a node); a stall long enough
// to trip the round watchdog surfaces as ErrRoundDeadline instead.
var ErrFaultInjected = errors.New("injected fault")

// ErrRoundDeadline is wrapped by the error the round watchdog
// (WithRoundDeadline) records when a round fails to turn over within the
// configured deadline. The error names the nodes whose compute phase was
// being executed when the watchdog fired.
var ErrRoundDeadline = errors.New("round deadline exceeded")

// FaultKind selects the behaviour a Fault injects.
type FaultKind uint8

const (
	// FaultPanic makes the chosen node panic in the chosen round — a blocking
	// program inside that round's Exchange, a step program instead of running
	// that round's step — exactly as a real node crash would.
	FaultPanic FaultKind = iota + 1
	// FaultStall delays the chosen node for Stall at the same coordinate. The
	// sleep is interruptible: if the run fails in the meantime (for example
	// because the round watchdog fired), the stalled node wakes immediately
	// and observes the failure.
	FaultStall
	// FaultCancel fails the run at the exact turn-over of the chosen round:
	// once every node has published, the run loop records an injected
	// cancellation instead of delivering, the deterministic analogue of a
	// context cancellation landing between the last publication and delivery.
	FaultCancel
)

// String returns the kind's scenario-table name.
func (k FaultKind) String() string {
	switch k {
	case FaultPanic:
		return "panic"
	case FaultStall:
		return "stall"
	case FaultCancel:
		return "cancel"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// Fault is one scheduled fault of a FaultPlan. Node is the targeted node id
// (ignored by FaultCancel, which acts on the run loop), Round is the round the
// fault triggers in (the node's Round() value at that moment), and Stall is
// the injected delay of a FaultStall.
type Fault struct {
	Kind  FaultKind
	Node  int
	Round int
	Stall time.Duration
}

// FaultPlan is a per-run schedule of deterministic faults. A plan is armed on
// a Network with SetFaultPlan and consumed by the next run — of blocking
// (Run/RunContext) or step (RunRounds/RunRoundsContext) programs; it never
// carries over to later runs, which is what lets a session-level retry re-run
// the same operation fault-free on the same engine. Because every fault fires
// at an exact (node, round) coordinate of a deterministic execution, chaos
// runs replay bit-identically: the same plan on the same instance produces
// the same error, and a plan whose faults are all absorbed (stalls shorter
// than the round deadline) produces results bit-identical to a fault-free
// run.
//
// Under RunRounds the coordinates keep their meaning: a panic fault departs
// the node before its step of the chosen round runs, a stall delays the
// node's step, and a cancellation lands at the round's turn-over before
// delivery.
type FaultPlan struct {
	Faults []Fault
}

// Validate checks the plan against a clique of n nodes: kinds must be known,
// rounds non-negative, panic/stall targets in [0, n), and stall durations
// positive.
func (p *FaultPlan) Validate(n int) error {
	if p == nil {
		return nil
	}
	for i, f := range p.Faults {
		if f.Round < 0 {
			return fmt.Errorf("clique: fault %d: negative round %d", i, f.Round)
		}
		switch f.Kind {
		case FaultPanic:
			if f.Node < 0 || f.Node >= n {
				return fmt.Errorf("clique: fault %d: panic target node %d out of range (n=%d)", i, f.Node, n)
			}
		case FaultStall:
			if f.Node < 0 || f.Node >= n {
				return fmt.Errorf("clique: fault %d: stall target node %d out of range (n=%d)", i, f.Node, n)
			}
			if f.Stall <= 0 {
				return fmt.Errorf("clique: fault %d: stall duration must be positive, got %v", i, f.Stall)
			}
		case FaultCancel:
		default:
			return fmt.Errorf("clique: fault %d: unknown kind %d", i, f.Kind)
		}
	}
	return nil
}

// at returns the first panic or stall fault scheduled for node at round, or
// nil.
func (p *FaultPlan) at(node, round int) *Fault {
	if p == nil {
		return nil
	}
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Kind != FaultCancel && f.Node == node && f.Round == round {
			return f
		}
	}
	return nil
}

// cancelAt reports whether the plan cancels the run at round's turn-over.
func (p *FaultPlan) cancelAt(round int) bool {
	if p == nil {
		return false
	}
	for i := range p.Faults {
		if p.Faults[i].Kind == FaultCancel && p.Faults[i].Round == round {
			return true
		}
	}
	return false
}

// hasStall reports whether the plan contains any stall fault, which is what
// decides whether the run allocates the failure-broadcast channel that makes
// stalls interruptible.
func (p *FaultPlan) hasStall() bool {
	if p == nil {
		return false
	}
	for i := range p.Faults {
		if p.Faults[i].Kind == FaultStall {
			return true
		}
	}
	return false
}

// SetFaultPlan arms plan for this Network's next run (Run or RunRounds). The
// plan is consumed by that run and cleared: later runs on
// the same Network execute fault-free unless a new plan is armed. Passing nil
// (or an empty plan) disarms. SetFaultPlan must be called by the same
// goroutine that starts the run, between runs.
func (nw *Network) SetFaultPlan(p *FaultPlan) {
	if p != nil && len(p.Faults) == 0 {
		p = nil
	}
	nw.pendingFaults = p
}

// injectedPanic is the value an injected FaultPanic panics with, so the crash
// barrier's recovery can tell an injected crash from a genuine one and wrap
// ErrFaultInjected with the exact (node, round) coordinate.
type injectedPanic struct {
	node, round int
}

// nodePanicError converts a recovered panic value into the node's error,
// preserving the ErrFaultInjected identity of injected crashes.
func nodePanicError(id int, r interface{}) error {
	if ip, ok := r.(*injectedPanic); ok {
		return fmt.Errorf("clique: node %d panicked in round %d: %w", ip.node, ip.round, ErrFaultInjected)
	}
	return fmt.Errorf("clique: node %d panicked: %v", id, r)
}

// setFailure records err as the run's engine failure if none is recorded yet
// and, on the recording call only, closes the run's failure-broadcast channel
// (when one exists) so interruptible waits — injected stalls — wake
// immediately instead of sleeping out their full duration.
func (nw *Network) setFailure(err error) {
	if nw.fail.CompareAndSwap(nil, &failure{err: err}) {
		if ch := nw.failCh; ch != nil {
			close(ch)
		}
	}
}

// stallNode sleeps for d or until the run fails, whichever comes first. It
// runs inside the stalled node's compute phase, holding up its worker's
// sweep, so a stall shorter than any configured round deadline only delays
// the round; a longer one is cut short the moment the watchdog records the
// deadline failure.
func (nw *Network) stallNode(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	if ch := nw.failCh; ch != nil {
		select {
		case <-t.C:
		case <-ch:
		}
		return
	}
	<-t.C
}

// startWatchdogRun prepares the round watchdog for one run, after
// prepareSweep has fixed the run's worker count: it sizes the workers'
// "executing" slots (which sweep fills from then on, one atomic store per
// compute phase) and kicks the persistent watchdog goroutine (started lazily
// on the first deadline-enabled run, reused for every later one). No-op
// unless WithRoundDeadline is configured.
func (nw *Network) startWatchdogRun() bool {
	if nw.cfg.roundDeadline <= 0 {
		return false
	}
	if len(nw.executing) < nw.sweepers {
		nw.executing = make([]atomic.Int32, nw.sweepers)
	}
	if !nw.wdStarted {
		nw.wdKick = make(chan struct{})
		nw.wdHalt = make(chan struct{})
		nw.wdAck = make(chan struct{})
		nw.wdStarted = true
		go nw.watchdogLoop()
	}
	nw.wdKick <- struct{}{}
	return true
}

// stopWatchdogRun halts the watchdog for the current run and waits until it
// acknowledges, so a fire can never land in a later run's failure slot.
func (nw *Network) stopWatchdogRun() {
	nw.wdHalt <- struct{}{}
	<-nw.wdAck
}

// closeWatchdog terminates the persistent watchdog goroutine; called by
// Close, which holds the run latch, so no run is in flight.
func (nw *Network) closeWatchdog() {
	if nw.wdStarted {
		close(nw.wdKick)
		nw.wdStarted = false
	}
}

// watchdogLoop is the persistent round watchdog. Between a kick and its halt
// it polls the round counter on a reusable timer; when the counter stops
// advancing for the configured deadline it records an ErrRoundDeadline
// failure naming the nodes being executed, which interrupts injected stalls
// and ends the run at the end of the sweep in progress. Polling granularity
// is deadline/8, clamped below at 50µs, so a fire lands within ~1.125× the
// deadline.
func (nw *Network) watchdogLoop() {
	d := nw.cfg.roundDeadline
	tick := d / 8
	if tick < 50*time.Microsecond {
		tick = 50 * time.Microsecond
	}
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for range nw.wdKick {
		lastRound := nw.round.Load()
		deadline := time.Now().Add(d)
		running := true
		for running {
			timer.Reset(tick)
			select {
			case <-nw.wdHalt:
				if !timer.Stop() {
					<-timer.C
				}
				running = false
			case <-timer.C:
				if r := nw.round.Load(); r != lastRound {
					lastRound = r
					deadline = time.Now().Add(d)
					continue
				}
				if time.Now().Before(deadline) {
					continue
				}
				nw.watchdogFire(int(lastRound), d)
				<-nw.wdHalt
				running = false
			}
		}
		nw.wdAck <- struct{}{}
	}
}

// watchdogFire converts a missed round deadline into a run failure (unless
// the run is failing already: the first failure stays). The diagnostic names
// what holds the round up: the node each worker is executing at this moment —
// a worker that has finished its sweep, or the loop while it delivers, none.
func (nw *Network) watchdogFire(round int, d time.Duration) {
	var waiting []int
	for w := range nw.executing[:nw.sweepers] {
		if id := nw.executing[w].Load(); id > 0 {
			waiting = append(waiting, int(id)-1)
		}
	}
	nw.setFailure(fmt.Errorf("clique: round %d did not turn over within %v: waiting on %d of %d nodes (%s): %w",
		round, d, len(waiting), nw.n, fmtNodeList(waiting), ErrRoundDeadline))
}

// fmtNodeList renders a node-id list for watchdog diagnostics, truncated
// after eight entries so a mass stall stays readable.
func fmtNodeList(ids []int) string {
	if len(ids) == 0 {
		return "none"
	}
	var b strings.Builder
	b.WriteString("nodes ")
	for i, id := range ids {
		if i == 8 {
			fmt.Fprintf(&b, ", … %d more", len(ids)-i)
			break
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", id)
	}
	return b.String()
}

package clique

import (
	"errors"
	"fmt"
	"math"
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
// configured deadline. The error names the nodes that had not arrived at the
// barrier when the watchdog fired.
var ErrRoundDeadline = errors.New("round deadline exceeded")

// FaultKind selects the behaviour a Fault injects.
type FaultKind uint8

const (
	// FaultPanic makes the chosen node panic when it reaches the barrier of
	// the chosen round, exercising the engine's panic-recovery and
	// complete-on-behalf paths exactly as a real node crash would.
	FaultPanic FaultKind = iota + 1
	// FaultStall delays the chosen node for Stall before it arrives at the
	// barrier of the chosen round. The sleep is interruptible: if the run
	// fails in the meantime (for example because the round watchdog fired),
	// the stalled node wakes immediately and observes the failure.
	FaultStall
	// FaultCancel fails the run at the exact turn-over of the chosen round:
	// the last arrival releases the barrier with an injected-cancellation
	// failure instead of delivering, the deterministic analogue of a context
	// cancellation landing between arrival and delivery.
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
// (ignored by FaultCancel, which acts on the round's deliverer whoever that
// is), Round is the barrier the fault triggers at (the node's Round() value
// when it arrives), and Stall is the injected delay of a FaultStall.
type Fault struct {
	Kind  FaultKind
	Node  int
	Round int
	Stall time.Duration
}

// FaultPlan is a per-run schedule of deterministic faults. A plan is armed on
// a Network with SetFaultPlan and consumed by the next run — blocking
// (Run/RunContext) or engine-driven (RunRounds/RunRoundsContext); it never
// carries over to later runs, which is what lets a session-level retry re-run
// the same operation fault-free on the same engine. Because every fault fires
// at an exact (node, round) coordinate of a deterministic execution, chaos
// runs replay bit-identically: the same plan on the same instance produces
// the same error, and a plan whose faults are all absorbed (stalls shorter
// than the round deadline) produces results bit-identical to a fault-free
// run.
//
// On the engine-driven scheduler the coordinates keep their meaning: a panic
// fault departs the node before its step of the chosen round runs, a stall
// delays the node's step, and a cancellation lands at the round's turn-over
// before delivery.
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

// SetFaultPlan arms plan for this Network's next run (blocking or
// engine-driven). The plan is consumed by that run and cleared: later runs on
// the same Network execute fault-free unless a new plan is armed. Passing nil
// (or an empty plan) disarms. SetFaultPlan must be called by the same
// goroutine that starts the run, between runs.
func (nw *Network) SetFaultPlan(p *FaultPlan) {
	if p != nil && len(p.Faults) == 0 {
		p = nil
	}
	nw.pendingFaults = p
}

// injectedPanic is the value an injected FaultPanic panics with, so the run
// scheduler's recovery can tell an injected crash from a genuine one and wrap
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
// runs on the stalled node's goroutine before the node arrives at the
// barrier, so a stall shorter than any configured round deadline only delays
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

// departedArrival marks a node that has left the run in the arrival tracker,
// so the watchdog never names a finished node as holding up a round.
const departedArrival = int32(math.MaxInt32)

// noteArrival records that node id reached the barrier of round r (or, with
// departed, left the run) for the watchdog's diagnostics. It is a single
// atomic store on the arrival path and only runs when a round deadline is
// configured.
func (nw *Network) noteArrival(id, r int, departed bool) {
	if nw.arrivals == nil {
		return
	}
	if departed {
		nw.arrivals[id].Store(departedArrival)
		return
	}
	nw.arrivals[id].Store(int32(r) + 1)
}

// startWatchdogRun prepares the round watchdog for one run: it
// resets the arrival tracker and kicks the persistent watchdog goroutine
// (started lazily on the first deadline-enabled run, reused for every later
// one — a fault-free warm run allocates nothing for the watchdog). No-op
// unless WithRoundDeadline is configured.
func (nw *Network) startWatchdogRun() bool {
	if nw.cfg.roundDeadline <= 0 {
		return false
	}
	if nw.arrivals == nil {
		nw.arrivals = make([]atomic.Int32, nw.n)
	}
	for i := range nw.arrivals {
		nw.arrivals[i].Store(0)
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
// failure naming the unarrived nodes and releases the current barrier
// generation, so parked nodes (and interruptible stalls) observe the failure
// instead of hanging. Polling granularity is deadline/8, clamped below at
// 50µs, so a fire lands within ~1.125× the deadline.
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

// watchdogFire converts a missed round deadline into a run failure. If the
// run is already failing it only re-releases the barrier (idempotent);
// otherwise it records a diagnostic naming the unarrived nodes and releases
// the current generation so every parked node wakes and observes the error.
func (nw *Network) watchdogFire(round int, d time.Duration) {
	if nw.fail.Load() == nil {
		var waiting []int
		for i := range nw.arrivals {
			if a := nw.arrivals[i].Load(); a != int32(round)+1 && a != departedArrival {
				waiting = append(waiting, i)
			}
		}
		nw.setFailure(fmt.Errorf("clique: round %d did not turn over within %v: waiting on %d of %d nodes (%s): %w",
			round, d, len(waiting), nw.n, fmtNodeList(waiting), ErrRoundDeadline))
	}
	nw.gen.Load().release()
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

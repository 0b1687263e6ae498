package core

import (
	"fmt"
	"slices"

	"congestedclique/internal/clique"
)

// This file implements Route's fast arms — empty, direct and broadcast — as
// the per-node step program routeProgram, and SparseRouteRun, its adapter to
// RunRounds (AutoRoute in planner.go is the blocking one; see sparse.go for
// the two drivers). Every node's state is proportional to
// its own traffic: no length-n per-node slice exists anywhere in a run.
//
// Round mapping of the strategies (with the census armed, SparseRouteRun
// prepends its RouteCensusRounds rounds; the verdict is verified in the step
// that is also the strategy's round 0; a cache hit's row check adds nothing,
// except to the empty arm, which it gives one round — see hitRound):
//
//	direct     round 0: frames out          round 1: decode, done
//	broadcast  round 0: scatter             round 1: build held, relay 0
//	           round 1+r: accumulate, relay r (r < RelayRounds)
//	           round 1+RelayRounds: accumulate, done
//	empty      round 0: done
type routeProgram struct {
	held      []Message // broadcast: held messages, grouped by ascending dst
	heldStart []int32   // group boundaries into held
	received  []Message
	relayBuf  []clique.Word

	out []Message // the node's deliveries, sorted by (Src, Dst, Seq)
}

// step executes strategy round `round` of plan for the node holding row.
func (p *routeProgram) step(ex clique.Exchanger, plan *RoutePlan, row []Message, round int, inbox clique.Inbox) (bool, error) {
	switch plan.Strategy {
	case StrategyEmpty:
		if len(row) != 0 {
			return true, fmt.Errorf("core: empty plan but node %d holds %d messages", ex.ID(), len(row))
		}
		return true, nil
	case StrategyDirect:
		return p.directStep(ex, row, round, inbox)
	case StrategyBroadcast:
		return p.broadcastStep(ex, row, plan.RelayRounds, round, inbox)
	default:
		return true, fmt.Errorf("core: unknown route strategy %v", plan.Strategy)
	}
}

// directStep delivers every message straight over its source-destination
// edge in a single round: all messages sharing one pair are packed into one
// frame of [seq, payload] pairs sent with SendFramed, so the engine accounts
// them as individual model messages while the frame stays within
// DirectFrameWords (the plan guarantees the multiplicity bound; a violation
// means the plan does not match the instance and is reported as an error).
func (p *routeProgram) directStep(ex clique.Exchanger, row []Message, round int, inbox clique.Inbox) (bool, error) {
	id := ex.ID()
	if round == 0 {
		if len(row) == 0 {
			return false, nil
		}
		// One allocation serves the round: the frames fill the first two
		// thirds (sized exactly, so the views handed to the engine stay valid
		// until delivery) and the last third holds one (dst, position) key
		// per message, sorted to group the row by destination with the
		// submission order kept inside each group.
		l := len(row)
		buf := make([]clique.Word, (directWordsPerMessage+1)*l)
		keys := buf[directWordsPerMessage*l:]
		for k, m := range row {
			if m.Src != id {
				return true, fmt.Errorf("core: message (%d->%d) submitted by node %d", m.Src, m.Dst, id)
			}
			keys[k] = clique.Word(m.Dst)<<32 | clique.Word(k)
		}
		slices.Sort(keys)
		pos := 0
		for i := 0; i < l; {
			dst, start, j := keys[i]>>32, pos, i
			for ; j < l && keys[j]>>32 == dst; j++ {
				m := row[keys[j]&(1<<32-1)]
				buf[pos], buf[pos+1] = clique.Word(m.Seq), m.Payload
				pos += directWordsPerMessage
			}
			if j-i > DirectMaxMultiplicity {
				return true, fmt.Errorf("core: node %d holds %d messages for node %d, the direct plan allows %d",
					id, j-i, int(dst), DirectMaxMultiplicity)
			}
			ex.SendFramed(int(dst), clique.Packet(buf[start:pos:pos]), j-i, pos-start)
			i = j
		}
		return false, nil
	}
	// Only the senders that sent are visited (a node of a sparse instance
	// hears from a handful of the n), once to size the output exactly and
	// once to fill it.
	senders, count := ex.InboxSenders(), 0
	for _, from := range senders {
		for _, pk := range inbox[from] {
			if len(pk)%directWordsPerMessage != 0 {
				return true, fmt.Errorf("core: malformed direct frame with %d words", len(pk))
			}
			count += len(pk) / directWordsPerMessage
		}
	}
	if count == 0 {
		return true, nil
	}
	received := make([]Message, 0, count)
	for _, from := range senders {
		for _, pk := range inbox[from] {
			for i := 0; i < len(pk); i += directWordsPerMessage {
				received = append(received, Message{Src: int(from), Dst: id, Seq: int(pk[i]), Payload: pk[i+1]})
			}
		}
	}
	sortMessages(received)
	p.out = received
	return true, nil
}

// broadcastStep is the one-to-many fast path: message k of this node is
// scattered to relay (id+k) mod n in round 0, then every relay forwards its
// held messages to their destinations, one message per (relay, destination)
// edge per round, for exactly relayRounds rounds. Decoded packets are
// converted to Message values immediately, so nothing aliases engine receive
// memory past the step call.
func (p *routeProgram) broadcastStep(ex clique.Exchanger, row []Message, relayRounds, round int, inbox clique.Inbox) (bool, error) {
	n, id := ex.N(), ex.ID()
	switch round {
	case 0:
		if len(row) == 0 {
			return false, nil
		}
		buf := make([]clique.Word, 0, len(row)*relayWordsPerMessage)
		for k, m := range row {
			if m.Src != id {
				return true, fmt.Errorf("core: message (%d->%d) submitted by node %d", m.Src, m.Dst, id)
			}
			pos := len(buf)
			buf = append(buf, clique.Word(m.Dst), clique.Word(m.Seq), m.Payload)
			ex.Send((id+k)%n, clique.Packet(buf[pos:len(buf):len(buf)]))
		}
		return false, nil
	case 1:
		// Assemble the held groups from the scatter round: stably sorted by
		// destination, so each group keeps ascending sender order and the
		// packet order within a sender.
		for _, from := range ex.InboxSenders() {
			for _, pk := range inbox[from] {
				if len(pk) < relayWordsPerMessage {
					return true, fmt.Errorf("core: malformed scattered message with %d words", len(pk))
				}
				dst := int(pk[0])
				if dst < 0 || dst >= n {
					return true, fmt.Errorf("core: scattered destination %d out of range", dst)
				}
				p.held = append(p.held, Message{Src: int(from), Dst: dst, Seq: int(pk[1]), Payload: pk[2]})
			}
		}
		slices.SortStableFunc(p.held, func(a, b Message) int { return a.Dst - b.Dst })
		p.heldStart = append(p.heldStart, 0)
		for i := 0; i < len(p.held); {
			j := i
			for j < len(p.held) && p.held[j].Dst == p.held[i].Dst {
				j++
			}
			if j-i > relayRounds {
				return true, fmt.Errorf("core: relay %d holds %d messages for node %d, broadcast plan allows %d",
					id, j-i, p.held[i].Dst, relayRounds)
			}
			p.heldStart = append(p.heldStart, int32(j))
			i = j
		}
		if relayRounds == 0 {
			return true, nil
		}
		p.relayBuf = make([]clique.Word, 0, relayWordsPerMessage*(len(p.heldStart)-1))
		p.relaySends(ex, 0)
		return false, nil
	default:
		r := round - 2 // the relay round whose traffic this inbox carries
		for _, from := range ex.InboxSenders() {
			for _, pk := range inbox[from] {
				if len(pk) < relayWordsPerMessage {
					return true, fmt.Errorf("core: malformed relayed message with %d words", len(pk))
				}
				p.received = append(p.received, Message{Src: int(pk[0]), Dst: id, Seq: int(pk[1]), Payload: pk[2]})
			}
		}
		if r+1 < relayRounds {
			p.relaySends(ex, r+1)
			return false, nil
		}
		sortMessages(p.received)
		p.out = p.received
		return true, nil
	}
}

// relaySends emits relay round r: for every held destination group (ascending
// dst) with more than r messages, the r-th one travels over the relay's own
// edge to the destination. The packet buffer is reused across relay rounds —
// the engine has copied the previous round's payloads at its delivery.
func (p *routeProgram) relaySends(ex clique.Exchanger, r int) {
	buf := p.relayBuf[:0]
	for g := 0; g+1 < len(p.heldStart); g++ {
		lo, hi := int(p.heldStart[g]), int(p.heldStart[g+1])
		if r < hi-lo {
			m := p.held[lo+r]
			pos := len(buf)
			buf = append(buf, clique.Word(m.Src), clique.Word(m.Seq), m.Payload)
			ex.Send(m.Dst, clique.Packet(buf[pos:len(buf):len(buf)]))
		}
	}
	p.relayBuf = buf
}

// SparseRouteRun drives one routeProgram per node as a step program
// (RunRounds): with the census armed, step rounds 0..1 carry its
// two exchanges and the strategy starts in the round that verifies it. A
// cache hit's plan runs the row check of hit.go instead; when it aborts, the
// run ends with ErrHitAborted after one round, and the caller completes the
// operation with AutoRoute on the same plan, which pays that round and
// LowComputeRoute in one run.
type SparseRouteRun struct {
	plan  RoutePlan
	sd    *SparseDemand
	progs []routeProgram
}

// NewSparseRouteRun prepares a step-mode execution of plan over sd. The plan
// must be PlanRoute of the same instance and its strategy must be
// SparseStepCapable.
func NewSparseRouteRun(sd *SparseDemand, plan RoutePlan) (*SparseRouteRun, error) {
	if !SparseStepCapable(plan.Strategy) {
		return nil, fmt.Errorf("core: sparse route: strategy %v requires the blocking scheduler", plan.Strategy)
	}
	if plan.N != sd.N() {
		return nil, fmt.Errorf("core: plan computed for n=%d executed on n=%d", plan.N, sd.N())
	}
	return &SparseRouteRun{plan: plan, sd: sd, progs: make([]routeProgram, sd.N())}, nil
}

// Output returns the messages delivered to node (sorted by Src, Dst, Seq),
// valid after the run completes successfully.
func (run *SparseRouteRun) Output(node int) []Message { return run.progs[node].out }

// Step is the clique.StepFunc of the run: every node executes it once per
// round under RunRounds.
func (run *SparseRouteRun) Step(nd *clique.Node, round int, inbox clique.Inbox) (bool, error) {
	p, row := &run.progs[nd.ID()], run.sd.Row(nd.ID())
	switch plan := &run.plan; {
	case plan.Census && plan.hitRows != nil:
		// Only round 0 reads the row check.
		matches := round > 0 || plan.hitRows[nd.ID()] == rowSig{len(row), routeRowHash(row)}
		var err error
		if round, err = hitRound(nd, matches, plan.Strategy == StrategyEmpty, round, inbox); round < 0 {
			return err != nil, err
		}
	case plan.Census:
		if round <= RouteCensusRounds {
			if err := routeCensusStep(nd, &run.plan, row, round, inbox); err != nil || round < RouteCensusRounds {
				return err != nil, err
			}
		}
		round -= RouteCensusRounds
	}
	return p.step(nd, &run.plan, row, round, inbox)
}

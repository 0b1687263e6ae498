package core

import (
	"errors"

	"congestedclique/internal/clique"
)

// This file implements what a validated plan-cache hit runs instead of the
// charged census: a local row check with abort-by-silence. The cache entry
// carries every node's (row length, row hash) pair — exactly the pair node i
// sends node 0 in the census's first round — and the hit's plan hands it to
// the nodes. Node i compares its own row with its entry, which costs no round
// and no word:
//
//   - every row matches: nobody objects and the arm runs from its first
//     round, with nothing added to the wire. Silence is the agreement.
//   - a node's row differs: that node skips the arm and, in the arm's first
//     round, sends the one-word abort packet to every node. Every node checks
//     that round's receipt for an abort, so all of them see it in the same
//     round, discard what the round delivered and run the arm that needs no
//     plan — Theorem 5.4 (LowComputeRoute) or Algorithm 4 on it
//     (LowComputeSort). The wasted round is charged: 1 + 10 or 1 + 31
//     rounds, and the output is correct.
//
// The host still picks the candidate entry (fingerprint lookup plus its own
// word-for-word compare); what the nodes verify is that each of them holds
// the row the entry was learned on. As with the census's fingerprint, a row
// hash collision would go unnoticed by the check, and the arm's own backstops
// (checkScheduleRow, the relay demand checks) then turn it into an error,
// never a misrouted message.
//
// No arm's first round sends a one-word packet — comm frames carry at least a
// count and a length, direct frames whole [seq, payload] pairs, scattered
// broadcast messages three words — so the abort is told apart by its length.
// The empty arms have no round to carry it; on a hit they spend exactly one,
// the check round, before finishing.

// rowSig is one node's row as the hit check sees it: the row length and the
// order-sensitive row hash (routeRowHash or sortRowHash).
type rowSig struct {
	count int
	hash  uint64
}

// ErrHitAborted reports that a node's row did not match the cached plan's
// entry, so every node abandoned the hit in the arm's first round. AutoRoute
// and AutoSort recover from it themselves; a step-mode run
// (SparseRouteRun, SparseSortRun) ends with it, and its caller completes the
// operation with the blocking AutoRoute or AutoSort on the same plan.
var ErrHitAborted = errors.New("core: a node's row does not match the cached plan: hit aborted")

// hitAbortWord is the payload of the one-word abort packet.
const hitAbortWord clique.Word = -1

var hitAbortPacket = clique.Packet{hitAbortWord}

// sendAbort queues the abort packet for every node.
func sendAbort(ex clique.Exchanger) {
	for to := 0; to < ex.N(); to++ {
		ex.Send(to, hitAbortPacket)
	}
}

// isAbort reports whether a received packet is the abort packet.
func isAbort(pk []clique.Word) bool { return len(pk) == 1 && pk[0] == hitAbortWord }

// hitRound is the step-program side of a validated hit (both drivers): it
// maps run round `round` to the arm's round, or to -1 when the arm does not
// run this round — the mismatched node's round 0, in which it sends the
// abort, and the check round of an empty arm (lead). In round 1 every node
// looks for an abort in its inbox and returns ErrHitAborted when it finds
// one; a mismatched node always does, since it sent one to itself.
func hitRound(ex clique.Exchanger, matches, lead bool, round int, inbox clique.Inbox) (int, error) {
	switch {
	case round == 0 && !matches:
		sendAbort(ex)
		return -1, nil
	case round == 1:
		for _, from := range ex.InboxSenders() {
			for _, pk := range inbox[from] {
				if isAbort(pk) {
					return -1, ErrHitAborted
				}
			}
		}
	}
	if lead {
		round--
	}
	return round, nil
}

// hitArm is the blocking side of a validated hit for the arms written on
// comms (the pipelines and the small-domain sort). A mismatched node skips
// the arm, spends the round sending the abort and returns ErrHitAborted; a
// matching node runs the arm behind a hitGate, which turns an abort in the
// arm's first round into ErrHitAborted as well. The caller then runs the plan-free
// arm.
func hitArm[T any](ex clique.Exchanger, matches bool, arm func(clique.Exchanger) (T, error)) (T, error) {
	var zero T
	if !matches {
		sendAbort(ex)
		if _, err := ex.ExchangeFlat(); err != nil {
			return zero, err
		}
		return zero, ErrHitAborted
	}
	g := &stackOf(ex).gate
	*g = hitGate{Exchanger: ex, pending: true}
	out, err := arm(g)
	aborted := g.aborted
	*g = hitGate{} // the stack must not pin the run's exchanger
	if aborted {
		return zero, ErrHitAborted
	}
	return out, err
}

// hitGate is the exchanger a matching node's comm arm runs on: its first
// ExchangeFlat fails with ErrHitAborted when the round delivered an abort, so
// the arm unwinds without reading the round; every later exchange passes
// through. Comms receive only through ExchangeFlat, and a Mux built on the
// gate exchanges through it too (Unwrap).
type hitGate struct {
	clique.Exchanger
	pending bool // the arm's first exchange is still ahead
	aborted bool
}

// Unwrap returns the exchanger the gate filters: a Mux built on the gate
// exchanges through it, and the arm's comms run on the executor beneath (see
// clique.NewMux and stackOf).
func (g *hitGate) Unwrap() clique.Exchanger { return g.Exchanger }

// ExchangeFlat exchanges and, the first time, checks the round for an abort.
func (g *hitGate) ExchangeFlat() (clique.FlatInbox, error) {
	flat, err := g.Exchanger.ExchangeFlat()
	if err != nil || !g.pending {
		return flat, err
	}
	g.pending = false
	for i := 0; i+2 < len(flat); i += 2 + int(flat[i+1]) {
		if isAbort(flat[i+2 : i+2+int(flat[i+1])]) {
			g.aborted = true
			return nil, ErrHitAborted
		}
	}
	return flat, nil
}

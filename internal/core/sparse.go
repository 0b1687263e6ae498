package core

import (
	"fmt"

	"congestedclique/internal/clique"
)

// This file holds what the fast-path step programs share. Each fast arm the
// planners can select — Route's empty, direct and broadcast strategies
// (sparse_route.go), Sort's empty and presorted strategies (sparse_sort.go)
// and both charged censuses (census.go) — is written once, as a per-node step
// program: a function of the node's own row, a clique.Exchanger, the round
// number and the inbox of the previous round, returning done once the node
// has its output. A program reads that inbox through the exchanger's
// InboxSenders list — the senders that sent — never by ranging over its n
// entries, so a receive costs O(traffic) at any n. A program never calls
// Exchange, so the engine's one run loop can execute it in either of its two
// program shapes:
//
//   - as a step program (Network.RunRounds): SparseRouteRun.Step and
//     SparseSortRun.Step adapt the programs to clique.StepFunc, one program
//     value per node in a single flat array. No stack or length-n buffer
//     exists per node — every program's state is proportional to its own
//     traffic — which is what carries Route and Sort to n=16384.
//   - inside a blocking program (Network.Run): driveBlocking below alternates
//     step and Exchange. AutoRoute and AutoSort use it, so a caller holding
//     one row and one Exchanger (a Mux virtual node, a test, the pipeline
//     arms' census prelude) runs the identical program.
//
// Wire behaviour — packets, frames, SendFramed accounting, rounds — is a
// property of the program, not of the driver, so results and Stats are the
// same under both by construction.

// driveBlocking runs one node's step program as blocking code: step,
// Exchange, step, ... until the program reports done or fails. The sends of
// the final step are never published, exactly as under RunRounds.
func driveBlocking(ex clique.Exchanger, step func(round int, inbox clique.Inbox) (bool, error)) error {
	var inbox clique.Inbox
	for round := 0; ; round++ {
		done, err := step(round, inbox)
		if err != nil || done {
			return err
		}
		if inbox, err = ex.Exchange(); err != nil {
			return err
		}
	}
}

// SparseDemand is a validated routing instance as the step-mode run consumes
// it: the caller's rows, checked once for the Problem 3.1 shape, addressed by
// node. It borrows the rows (which therefore must not change until the run
// completes) and adds no per-node structure of its own.
type SparseDemand struct {
	n    int
	rows [][]Message
}

// NewSparseDemand validates a dense-row instance and wraps it. msgs is
// indexed by source (rows beyond len(msgs) are empty); every message must
// carry the row's source and an in-range destination — the same Problem 3.1
// shape the session validator enforces.
func NewSparseDemand(n int, msgs [][]Message) (*SparseDemand, error) {
	if len(msgs) > n {
		msgs = msgs[:n]
	}
	for src, row := range msgs {
		for _, m := range row {
			if m.Src != src {
				return nil, fmt.Errorf("core: sparse demand: message (%d->%d) in row %d", m.Src, m.Dst, src)
			}
			if m.Dst < 0 || m.Dst >= n {
				return nil, fmt.Errorf("core: sparse demand: destination %d out of range (n=%d)", m.Dst, n)
			}
		}
	}
	return &SparseDemand{n: n, rows: msgs}, nil
}

// N returns the clique size the demand was built for.
func (sd *SparseDemand) N() int { return sd.n }

// Row returns node's messages in submission order (nil for inactive nodes).
func (sd *SparseDemand) Row(node int) []Message {
	if node < len(sd.rows) {
		return sd.rows[node]
	}
	return nil
}

// Fingerprint is RouteFingerprint of the instance.
func (sd *SparseDemand) Fingerprint() Fingerprint { return RouteFingerprint(sd.n, sd.rows) }

// PlanRouteSparse is PlanRoute of the instance.
func PlanRouteSparse(sd *SparseDemand) RoutePlan { return PlanRoute(sd.n, sd.rows) }

// SparseStepCapable reports whether a route strategy is written as a step
// program. The pipeline is excluded: its balancing machinery is the full-load
// design point, already measured as a blocking program, and full load is
// inherently O(n²) data.
func SparseStepCapable(s RouteStrategy) bool {
	switch s {
	case StrategyEmpty, StrategyDirect, StrategyBroadcast:
		return true
	default:
		return false
	}
}

// SparseSortStepCapable is SparseStepCapable for sorting strategies: the
// empty and presorted arms run as step programs; the small-domain and
// pipeline arms stay blocking programs.
func SparseSortStepCapable(s SortStrategy) bool {
	switch s {
	case SortStrategyEmpty, SortStrategyPresorted:
		return true
	default:
		return false
	}
}

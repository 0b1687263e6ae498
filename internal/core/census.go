package core

import (
	"fmt"
	"slices"

	"congestedclique/internal/clique"
)

// This file implements the planner census as a real charged protocol: the
// O(1)-round aggregation that, in a genuine congested clique, every
// AlgorithmAuto operation would spend before dispatching on a plan it had to
// derive. By default the simulator computes the plan centrally and charges
// nothing (the goldens stay bit-identical); on a handle with WithPlanCache,
// whose hit-rate claims must be net of planning cost, every plan-cache miss
// runs the census on the wire, its words and rounds land in the operation's
// Stats, and every node verifies the distributed verdict against the plan it
// was handed. A cache hit does not run it: the host picks the candidate entry
// (fingerprint lookup and its own word-for-word compare), and each node
// checks its own row against the entry's (row length, row hash) pair — the
// pair it would have sent in R1 — in no round and no word, aborting the hit
// in the arm's first round when they differ (hit.go).
//
// Route census (2 rounds):
//
//	R1  aggregate      node i -> node 0: [sendTotal, rowPairMax, rowHash]
//	                   (3 words), all three local to node i: its send total,
//	                   per-pair row maximum and order-sensitive row hash.
//	R2  decide+spread  node 0 -> all: [strategy, relayRounds, fingerprint]
//	                   (3 words). Node 0 recomputes the dispatch from the
//	                   aggregates via routeStrategyFromCensus — the very
//	                   function PlanRoute dispatches with — and folds the row
//	                   hashes in node order into the instance fingerprint
//	                   (the identical fold RouteFingerprint performs
//	                   host-side). Every node checks the broadcast strategy
//	                   against its plan and, when the plan carries a cache
//	                   fingerprint, the broadcast fingerprint against it.
//
// One quantity travels on faith rather than being re-derived: the broadcast
// path's relay-round count is a function of the full (relay, destination)
// distribution, not of any O(1) per-node aggregate, so node 0 echoes the
// plan's value into the decision instead of recomputing it. Everything else
// of the verdict is derived from the wire.
//
// Sort census (2 rounds): the sorting verdict depends on value distribution
// properties (distinct count, duplicity, partition boundaries) that have no
// O(1)-word per-node summary, so the charged sort census is a fingerprint
// agreement: nodes send (count, row hash) to node 0, which folds the cache
// fingerprint and broadcasts it with the strategy echoed from the plan;
// every node verifies both. The costs of a full distributed verdict would be
// the §6.3 machinery itself — the honesty note in planner_sort.go spells
// this out. What licenses a sort plan-cache hit to skip rounds is the hit's
// row check, not this census: each node reuses only what it learned itself
// when the miss ran (the Step 4 delimiters, its Step 5 bucket counts, the
// Step 6 bucket sizes and count matrix, its group's Step 7 announcements —
// see SortSchedule), and its row check tells it that it holds the row it
// learned them on.

// Census round and word costs, referenced by tests and docs.
const (
	// RouteCensusRounds is the round cost the charged route census adds to
	// every AlgorithmAuto Route call that misses the plan cache.
	RouteCensusRounds = 2
	// SortCensusRounds is the round cost of the charged sort census.
	SortCensusRounds = 2
)

// routeCensusStep is one node's part of the charged route census as a step
// program: rounds 0 and 1 send R1 and R2, round RouteCensusRounds verifies
// the distributed verdict against the plan. Any disagreement — strategy,
// relay rounds, or cache fingerprint — is an error: the plan does not match
// the instance the nodes are actually holding. Every aggregate is local to
// the node, so it carries no state between rounds.
func routeCensusStep(ex clique.Exchanger, plan *RoutePlan, row []Message, round int, inbox clique.Inbox) error {
	n := ex.N()
	switch round {
	case 0:
		// R1: every node reports its aggregates to node 0. The per-pair row
		// maximum comes from the sorted destinations — the node's only
		// allocation, sized by its own row rather than by n. The row hash is
		// the order-sensitive FNV fold over this node's destination sequence
		// — the same function the host-side fingerprint uses per row.
		dsts := make([]int, len(row))
		for i, m := range row {
			if m.Dst < 0 || m.Dst >= n {
				return fmt.Errorf("core: census: destination %d out of range", m.Dst)
			}
			dsts[i] = m.Dst
		}
		slices.Sort(dsts)
		rowPairMax := 0
		for i := 0; i < len(dsts); {
			j := i
			for j < len(dsts) && dsts[j] == dsts[i] {
				j++
			}
			rowPairMax = max(rowPairMax, j-i)
			i = j
		}
		ex.Send(0, clique.Packet{
			clique.Word(len(row)),
			clique.Word(rowPairMax),
			clique.Word(routeRowHash(row)),
		})
	case 1:
		// R2: node 0 folds the fingerprint, recomputes the dispatch and
		// broadcasts the verdict.
		if ex.ID() != 0 {
			return nil
		}
		total, maxPair, activeSources := 0, 0, 0
		h := uint64(fnvOffset64)
		for from := 0; from < n; from++ {
			ps := inbox.From(from)
			if len(ps) != 1 || len(ps[0]) != 3 {
				return fmt.Errorf("core: census: node 0 missing aggregate from node %d", from)
			}
			p := ps[0]
			sendTotal := int(p[0])
			total += sendTotal
			if sendTotal > 0 {
				activeSources++
			}
			maxPair = max(maxPair, int(p[1]))
			h = foldRows(h, sendTotal, uint64(p[2]))
		}
		strategy, _ := routeStrategyFromCensus(n, total, activeSources,
			func() int { return maxPair }, func() int { return plan.relayRoundsCensus })
		verdict := clique.Packet{clique.Word(strategy), clique.Word(plan.relayRoundsCensus), clique.Word(h)}
		for to := 0; to < n; to++ {
			ex.Send(to, verdict)
		}
	case RouteCensusRounds:
		ps := inbox.From(0)
		if len(ps) != 1 || len(ps[0]) != 3 {
			return fmt.Errorf("core: census: node %d missing verdict broadcast", ex.ID())
		}
		verdict := ps[0]
		if RouteStrategy(verdict[0]) != plan.Strategy {
			return fmt.Errorf("core: census: distributed verdict %v disagrees with plan %v at node %d",
				RouteStrategy(verdict[0]), plan.Strategy, ex.ID())
		}
		if int(verdict[1]) != plan.relayRoundsCensus {
			return fmt.Errorf("core: census: relay rounds %d disagree with plan %d", int(verdict[1]), plan.relayRoundsCensus)
		}
		if plan.CensusHasFP && uint64(verdict[2]) != plan.CensusFP {
			return fmt.Errorf("core: census: instance fingerprint %x disagrees with plan fingerprint %x at node %d",
				uint64(verdict[2]), plan.CensusFP, ex.ID())
		}
	}
	return nil
}

// sortCensusStep is one node's part of the charged sort census as a step
// program: a two-round fingerprint agreement plus verdict broadcast, verified
// in round SortCensusRounds (see the file comment for why the sort verdict
// itself is echoed, not re-derived). It carries no state between rounds.
func sortCensusStep(ex clique.Exchanger, plan *SortPlan, row []Key, round int, inbox clique.Inbox) error {
	n := ex.N()
	switch round {
	case 0:
		// R1: every node reports (count, row hash) to node 0.
		ex.Send(0, clique.Packet{clique.Word(len(row)), clique.Word(sortRowHash(row))})
	case 1:
		// R2: node 0 folds and broadcasts [strategy, fingerprint].
		if ex.ID() != 0 {
			return nil
		}
		h := uint64(fnvOffset64)
		for from := 0; from < n; from++ {
			ps := inbox.From(from)
			if len(ps) != 1 || len(ps[0]) != 2 {
				return fmt.Errorf("core: sort census: node 0 missing aggregate from node %d", from)
			}
			p := ps[0]
			h = foldRows(h, int(p[0]), uint64(p[1]))
		}
		verdict := clique.Packet{clique.Word(plan.Strategy), clique.Word(h)}
		for to := 0; to < n; to++ {
			ex.Send(to, verdict)
		}
	case SortCensusRounds:
		ps := inbox.From(0)
		if len(ps) != 1 || len(ps[0]) != 2 {
			return fmt.Errorf("core: sort census: node %d missing verdict broadcast", ex.ID())
		}
		verdict := ps[0]
		if SortStrategy(verdict[0]) != plan.Strategy {
			return fmt.Errorf("core: sort census: broadcast verdict %v disagrees with plan %v at node %d",
				SortStrategy(verdict[0]), plan.Strategy, ex.ID())
		}
		if plan.CensusHasFP && uint64(verdict[1]) != plan.CensusFP {
			return fmt.Errorf("core: sort census: instance fingerprint %x disagrees with plan fingerprint %x at node %d",
				uint64(verdict[1]), plan.CensusFP, ex.ID())
		}
	}
	return nil
}

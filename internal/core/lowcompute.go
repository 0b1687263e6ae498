package core

import (
	"fmt"
	"slices"

	"congestedclique/internal/clique"
)

// LowComputeRoute is the per-node entry point for the Section 5 variant of
// the Information Distribution Task (Theorem 5.4): 10 communication rounds
// (the theorem bounds 12) with O(n log n) local computation and memory per
// node. The savings over Algorithm 1 come from
//
//   - Lemma 5.1: the within-set balancing steps are replaced by an oblivious
//     two-round round-robin redistribution whose forwarding pattern is fixed
//     in advance, so no edge coloring (and no count announcement) is needed;
//     the price is that members hold up to 2√n instead of exactly √n
//     messages per set, which doubles the message size of the following
//     round,
//   - Lemma 5.3 / footnote 3: the remaining schedule colorings use the
//     greedy 2Δ-1 coloring instead of the exact König coloring,
//   - the set-level exchange pattern assigns intermediate sets by a local
//     proportional rule instead of the exact global coloring (the Theorem 5.4
//     row of ARCHITECTURE.md's paper-to-code table discusses this
//     substitution), which removes the need for the Step 3 announcement of
//     Algorithm 2 and, since the rule reads no global quantity, for the
//     set-total aggregation of Algorithm 2 Step 1 as well.
//
// Non-square n uses Theorem 3.7's V1/V2/corner decomposition with this
// router on V1 and V2 (routeGeneral), so every n ≥ routeTrivialThreshold
// takes 10 rounds (V1 and V2 run beside the 6-round corner procedure);
// smaller cliques are a single Corollary 3.4 group (4 rounds), as under
// Route.
//
// Local computation is self-reported through Exchanger.CountSteps so that
// the O(n log n) claim can be checked experimentally (experiment E3).
func LowComputeRoute(ex clique.Exchanger, msgs []Message) ([]Message, error) {
	return lowComputeRoute(ex, msgs, ex.Round(), nil, nil)
}

// lowComputeRoute is LowComputeRoute with the round its comm is labelled by
// (shared computations are keyed by the label, so a cache hit names the
// round its miss ran at) and an optional cached schedule to replay or an
// empty one to capture (see RouteSchedule). Schedules exist
// only for perfect-square n ≥ routeTrivialThreshold
// (NewRouteScheduleCapture), where routeHeld runs the square router once,
// on the whole clique.
func lowComputeRoute(ex clique.Exchanger, msgs []Message, at int, sched, capture *RouteSchedule) ([]Message, error) {
	square := squareRouter{lowCompute: true, sched: sched, capture: capture}
	return routeMessages(ex, msgs, "lowroute@r", at, rootStep("thm5.4"), square)
}

// RouteSchedule is the announcement state of one Theorem 5.4 execution at
// a perfect-square n (lowComputeSquare): per group, the Corollary 3.4 count
// matrix its Step 5 announces. Everything else the schedule does — the
// proportional intermediate-set rule, both Lemma 5.1 redistributions, the
// greedy colorings — is a deterministic local function of these matrices
// and the submission-order parcel sequence.
//
// A schedule captured from one execution can therefore drive a later
// execution of the *same* instance (same ordered per-source destination
// sequence — the plan cache's validate-on-hit guarantees this) with the
// announcement skipped: 8 of the 10 rounds. Order matters, not just the
// demand matrix: the proportional rule numbers a node's parcels in
// submission order, so a reordered instance executes a different schedule —
// which is why the cache key hashes the ordered sequence.
//
// A seeded run still cross-checks the schedule against the instance: before
// Step 5 sends a word each node compares its locally computed count row
// with the cached matrix row, and relayRoute independently verifies units
// against demand, so a schedule that does not match the instance yields an
// error, never a misrouted parcel.
type RouteSchedule struct {
	// S5Counts[g][a][b] is group g's Step 5 announcement: parcels group
	// member a holds for group member b.
	S5Counts [][][]int
}

// NewRouteScheduleCapture returns an empty schedule ready to be filled by a
// Theorem 5.4 execution on a clique of n nodes, or nil when n does not run
// the perfect-square schedule (too small, or not a square — those paths
// have no capturable announcement schedule).
func NewRouteScheduleCapture(n int) *RouteSchedule {
	if n < routeTrivialThreshold || !isPerfectSquare(n) {
		return nil
	}
	return &RouteSchedule{S5Counts: make([][][]int, isqrt(n))}
}

// complete reports whether every slot of the capture was filled (an errored
// or fast-pathed run leaves gaps; such captures are discarded, not stored).
func (rs *RouteSchedule) complete() bool {
	if rs == nil {
		return false
	}
	for _, counts := range rs.S5Counts {
		if counts == nil {
			return false
		}
	}
	return true
}

// checkScheduleRow verifies that this node's locally computed count vector
// matches its row of the cached announcement matrix — the validate-on-use
// backstop of a seeded run.
func checkScheduleRow(all [][]int, myIdx int, local []int) error {
	if myIdx >= len(all) || len(all[myIdx]) != len(local) {
		return fmt.Errorf("core: cached schedule shape mismatch")
	}
	for b, v := range local {
		if all[myIdx][b] != v {
			return fmt.Errorf("core: cached schedule does not match the instance (position %d: have %d, schedule says %d)",
				b, v, all[myIdx][b])
		}
	}
	return nil
}

// lowComputeSquare is the 10-round schedule of Theorem 5.4 on a
// perfect-square comm:
//
//	Lemma 5.1 by inter. set     2 rounds
//	inter-set exchange          1 round
//	Lemma 5.1 by dest. set      2 rounds
//	move to destination sets    1 round
//	Step 5, Corollary 3.4       4 rounds  (greedy coloring, Lemma 5.3)
//	                           -- total 10 rounds
//
// The theorem's schedule opens with Algorithm 2 Step 1's 2-round set-total
// aggregation; the proportional rule never reads those totals, so they are
// not aggregated (see ARCHITECTURE.md). With a capture target member 0 of
// every group records (a clone of) that group's Step 5 count matrix; a
// cached schedule replaces the announcement — 8 rounds.
func lowComputeSquare(c *comm, load []held, st step, sched, capture *RouteSchedule) ([]held, error) {
	m := c.size()
	s := isqrt(m)
	grp, err := newGrouping(m, s)
	if err != nil {
		return nil, err
	}
	myGroup := grp.groupOf(c.me)
	myIdxInGroup := grp.indexInGroup(c.me)
	groupMembers := identityMembers(m)[myGroup*s : (myGroup+1)*s : (myGroup+1)*s]

	c.ex.CountSteps(len(load) + s*s)
	c.ex.ReportMemory(len(load)*6 + s*s)

	// --- Step 2 variant (Lemma 5.3), 3 rounds -------------------------------

	// (local) Assign every message an intermediate set with the proportional
	// rotation rule: the j-th message a node holds for destination set B goes
	// to intermediate set (j + a + B) mod s, so every node splits its per-set
	// traffic evenly over the intermediate sets.
	perSetCursor := c.intVec(s)
	for i := range load {
		b := grp.groupOf(load[i].dstLocal)
		j := perSetCursor[b]
		perSetCursor[b]++
		load[i].interSet = (j + myIdxInGroup + b) % s
	}
	c.ex.CountSteps(len(load))

	// (2 rounds) Oblivious round-robin redistribution within the set, keyed by
	// intermediate set (Corollary 5.2).
	load, err = roundRobinRedistribute(c, grp, load, func(h held) int { return h.interSet }, st.name)
	if err != nil {
		return nil, fmt.Errorf("%s inter-set balancing: %w", st.name, err)
	}
	// The input load's payloads have been copied into frames and delivered;
	// their arena storage is dead.
	c.arenaReset()
	c.ex.CountSteps(len(load))

	// (1 round) Inter-set exchange: for each intermediate set, send one held
	// message to each of its members (at most a constant number per edge
	// because of the previous balancing).
	dealInter := c.intVec(s)
	for _, h := range load {
		k := dealInter[h.interSet]
		dealInter[h.interSet]++
		c.sendHeld(grp.member(h.interSet, k%s), h)
	}
	load, err = collectHeld(c, st.name, "exchange")
	if err != nil {
		return nil, err
	}
	c.ex.CountSteps(len(load))
	c.ex.ReportMemory(len(load) * 6)

	// --- Steps 3 and 4 via Lemma 5.1, 3 rounds -------------------------------

	// (2 rounds) Oblivious round-robin redistribution keyed by the final
	// destination set.
	load, err = roundRobinRedistribute(c, grp, load, func(h held) int { return grp.groupOf(h.dstLocal) }, st.name)
	if err != nil {
		return nil, fmt.Errorf("%s destination balancing: %w", st.name, err)
	}
	c.ex.CountSteps(len(load))

	// (1 round) Move every message to a member of its destination set, at most
	// two per edge (Lemma 5.1).
	dealDst := c.intVec(s)
	for _, h := range load {
		t := grp.groupOf(h.dstLocal)
		k := dealDst[t]
		dealDst[t]++
		c.sendHeld(grp.member(t, k%s), h)
	}
	load, err = collectHeld(c, st.name, "step4")
	if err != nil {
		return nil, err
	}
	c.ex.CountSteps(len(load))

	// --- Step 5 (Corollary 3.4 with the greedy coloring), 4 rounds -----------
	// Open-coded groupRouteUnknown, with the greedy coloring, so the count
	// announcement can be served from (or recorded into) the schedule; the
	// step keys are groupRouteUnknown's, so captured and seeded runs share
	// colorings.
	counts := c.intVec(s)
	for _, h := range load {
		if grp.groupOf(h.dstLocal) != myGroup {
			return nil, fmt.Errorf("%s step5: node %d holds a parcel for foreign set %d", st.name, c.ex.ID(), grp.groupOf(h.dstLocal))
		}
		counts[grp.indexInGroup(h.dstLocal)]++
	}
	st5 := st.sub("s5", kcLowS5)
	var demand [][]int
	if sched != nil {
		demand = sched.S5Counts[myGroup]
		if err = checkScheduleRow(demand, myIdxInGroup, counts); err != nil {
			return nil, fmt.Errorf("%s step5: %w", st.name, err)
		}
	} else {
		demand, err = announceIntVector(c, groupMembers, counts, st5.sub("announce", kcAnnounce))
		if err != nil {
			return nil, fmt.Errorf("%s step5: %w", st.name, err)
		}
		if capture != nil && myIdxInGroup == 0 {
			capture.S5Counts[myGroup] = cloneIntMatrix(demand)
		}
	}
	received, err := relayRoute(c, groupMembers, demand, len(load),
		func(i int) int { return load[i].dstLocal },
		func(i int) { c.stageHeld(load[i]) }, st5.sub("deliver", kcDeliver), true)
	if err != nil {
		return nil, fmt.Errorf("%s step5: %w", st.name, err)
	}
	c.ex.CountSteps(len(received))
	return deliveredHeld(c, received, "low-compute step5")
}

// roundRobinRedistribute is Lemma 5.1: every member of a set orders its held
// parcels by class, deals them round-robin over all nodes of the clique, and
// every relay forwards everything it received from the a-th member of a set
// to that set's ((a + relay) mod s)-th member. The pattern is oblivious (it
// does not depend on the message distribution), costs two rounds and O(load)
// computation, and guarantees that afterwards every member holds at most
// 2·load/s + s parcels of any class.
func roundRobinRedistribute(c *comm, grp grouping, load []held, classOf func(held) int, context string) ([]held, error) {
	m := c.size()
	s := grp.groupSize

	// Bucket-sort by class (O(load + s)).
	slices.SortStableFunc(load, func(a, b held) int { return classOf(a) - classOf(b) })

	// Round 1: deal the j-th parcel to node j mod m.
	for j, h := range load {
		c.sendHeld(j%m, h)
	}
	rx, err := c.exchange()
	if err != nil {
		return nil, fmt.Errorf("%s deal: %w", context, err)
	}

	// Round 2: forward everything received from the a-th member of set A to
	// member (a + myID) mod s of set A.
	for senderLocal := 0; senderLocal < c.size(); senderLocal++ {
		msgs := rx.fromSender(senderLocal)
		if len(msgs) == 0 {
			continue
		}
		a := grp.indexInGroup(senderLocal)
		target := grp.member(grp.groupOf(senderLocal), (a+c.me)%s)
		for _, p := range msgs {
			c.send(target, p...)
		}
	}
	return collectHeld(c, context, "forward")
}

package core

import (
	"fmt"
	"slices"
	"strconv"

	"congestedclique/internal/bipartite"
	"congestedclique/internal/clique"
)

// Route is the per-node entry point for the Information Distribution Task
// (Problem 3.1): every node calls Route with the messages it wants delivered
// and receives back the messages addressed to it. It implements Theorem 3.7:
// a deterministic solution in at most 16 communication rounds.
//
//   - If n is a perfect square, Algorithm 1 runs directly (16 rounds).
//   - If n is small (below routeTrivialThreshold), the whole clique is
//     treated as a single group of Corollary 3.4 (4 rounds).
//   - Otherwise the paper's V1/V2/V3 decomposition runs the two square
//     sub-instances and the 6-round boundary procedure concurrently through
//     the virtual multiplexer, so the total stays 16 rounds at the cost of a
//     constant-factor increase in message size.
func Route(ex clique.Exchanger, msgs []Message) ([]Message, error) {
	return routeMessages(ex, msgs, "route@r", ex.Round(), rootStep("thm3.7"), squareRouter{})
}

// routeMessages is the Message-level shell shared by Route and
// LowComputeRoute: it encodes msgs as held parcels (payload [Seq, Payload])
// on a comm spanning the clique (labelled label + at, the round the caller
// names the run by), routes them with routeHeld and square, and decodes the
// last hop straight into the result, sorted by (Src, Dst, Seq).
func routeMessages(ex clique.Exchanger, msgs []Message, label string, at int, st step, square squareRouter) ([]Message, error) {
	c := fullComm(ex, label+strconv.Itoa(at))
	defer c.release()
	slot := c.heldSlot()
	load := slices.Grow(*slot, len(msgs))
	for _, m := range msgs {
		if m.Src != ex.ID() {
			return nil, fmt.Errorf("core: parcel (%d->%d) submitted by node %d", m.Src, m.Dst, ex.ID())
		}
		dstLocal, ok := c.localOf(m.Dst)
		if !ok {
			return nil, fmt.Errorf("core: parcel destination %d is not a member of instance %q", m.Dst, c.label)
		}
		load = append(load, held{dstLocal: dstLocal, src: m.Src, payload: c.arenaAppend(clique.Word(m.Seq), m.Payload)})
	}
	*slot = load
	received, err := routeHeld(c, load, st, square)
	if err != nil {
		return nil, err
	}
	out := make([]Message, 0, len(received))
	for _, h := range received {
		if len(h.payload) < 2 {
			return nil, fmt.Errorf("core: malformed routed message with %d payload words", len(h.payload))
		}
		out = append(out, Message{Src: h.src, Dst: c.global(h.dstLocal), Seq: int(h.payload[0]), Payload: h.payload[1]})
	}
	sortMessages(out)
	return out, nil
}

// routeTrivialThreshold is the clique size below which the V1/V2/V3
// decomposition degenerates; such instances are routed as a single
// Corollary 3.4 group instead.
const routeTrivialThreshold = 9

// squareRouter names the router for a comm whose member count is a
// perfect square: routeSquare (Algorithm 1, Theorem 3.7; the zero value) or
// lowComputeSquare (Theorem 5.4) with its optional schedule to replay or
// capture. It is a value, not a closure, so choosing one allocates nothing.
type squareRouter struct {
	lowCompute     bool
	sched, capture *RouteSchedule
}

// route routes held parcels on c with the named router.
func (r squareRouter) route(c *comm, load []held, st step) ([]held, error) {
	if r.lowCompute {
		return lowComputeSquare(c, load, st, r.sched, r.capture)
	}
	return routeSquare(c, load, st)
}

// routeHeld dispatches between the perfect-square algorithm, the
// tiny-clique fallback and the general decomposition, which runs square on
// V1 and V2. Every member of the comm must call it in the same round.
//
// load is this node's parcels, each with its source (this node) and its
// destination as a local index of c; the router may reorder and modify it.
// The result lists the parcels delivered to this node in a rotating held
// slot of c (see deliveredHeld); the caller decodes it before its comm's
// next exchange or release.
func routeHeld(c *comm, load []held, st step, square squareRouter) ([]held, error) {
	m := c.size()
	switch {
	case m == 1:
		return load, nil
	case m < routeTrivialThreshold:
		return routeTiny(c, load, st.sub("tiny", kcTiny))
	case isPerfectSquare(m):
		return square.route(c, load, st.sub("square", kcSquare))
	default:
		return routeGeneral(c, load, st.sub("general", kcGeneral), square)
	}
}

// held is a parcel — the unit of the Information Distribution Task in its
// general form: a constant number of payload words that must travel from a
// source to a destination node — together with the bookkeeping Algorithm 2
// attaches to it: the destination as a local index of the enclosing comm and
// the intermediate set assigned by the set-level coloring. The paper's
// messages of O(log n) bits are parcels with a bounded number of words; the
// sorting pipeline reuses the same machinery to move bundles of keys.
//
// Wire layout: [dstLocal, interSet, src, payload...]. The payload borrows
// whatever buffer the parcel was decoded from (engine receive arena or
// instance arena); every pipeline hop re-stages it into fresh frames within
// the engine's grace window.
type held struct {
	dstLocal int
	interSet int
	src      int
	payload  []clique.Word
}

func decodeHeldParcel(w []clique.Word, c *comm) (held, error) {
	if len(w) < 3 {
		return held{}, fmt.Errorf("core: held parcel too short: %d words", len(w))
	}
	h := held{dstLocal: int(w[0]), interSet: int(w[1]), src: int(w[2]), payload: w[3:]}
	if h.dstLocal < 0 || h.dstLocal >= c.size() {
		return held{}, fmt.Errorf("core: held parcel destination %d out of range", h.dstLocal)
	}
	return h, nil
}

// routeTiny routes within a very small clique by treating all members as a
// single group of Corollary 3.4 (4 rounds). The announcement volume is |W|^2
// values, which is a constant because the clique size is bounded by
// routeTrivialThreshold.
func routeTiny(c *comm, load []held, st step) ([]held, error) {
	group := identityMembers(c.size()) // every local index
	received, err := groupRouteUnknown(c, group, len(load),
		func(i int) int { return load[i].dstLocal },
		func(i int) { c.stageHeld(load[i]) }, st)
	if err != nil {
		return nil, err
	}
	return deliveredHeld(c, received, st.name)
}

// deliveredHeld decodes the units of a router's last hop, every one of which
// must be a parcel addressed to this node, into a rotating held slot of c.
// Their payloads borrow the engine's receive arena (see relayRoute).
func deliveredHeld(c *comm, received [][]clique.Word, context string) ([]held, error) {
	out, err := decodeHeld(c, received)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", context, err)
	}
	for _, h := range out {
		if h.dstLocal != c.me {
			return nil, fmt.Errorf("%s: node %d received parcel for node %d", context, c.ex.ID(), c.global(h.dstLocal))
		}
	}
	return out, nil
}

// routeSquare is Algorithm 1 for a member count that is a perfect square.
// The step structure and round budget follow the paper exactly:
//
//	Step 2 (Algorithm 2)  7 rounds   balance load between the √m node sets
//	Step 3                4 rounds   balance by destination set inside each set
//	Step 4                1 round    move parcels to their destination sets
//	Step 5                4 rounds   deliver inside each destination set (Cor. 3.4)
//	                     -- total 16 rounds (Theorem 3.7)
func routeSquare(c *comm, load []held, st step) ([]held, error) {
	m := c.size()
	s := isqrt(m)
	if s*s != m {
		return nil, fmt.Errorf("core: routeSquare called with non-square member count %d", m)
	}
	grp, err := newGrouping(m, s)
	if err != nil {
		return nil, err
	}
	myGroup := grp.groupOf(c.me)
	groupMembers := identityMembers(m)[myGroup*s : (myGroup+1)*s : (myGroup+1)*s]
	myIdxInGroup := grp.indexInGroup(c.me)

	// ------------------------------------------------------------------
	// Step 2 of Algorithm 1, implemented by Algorithm 2 (7 rounds).
	// ------------------------------------------------------------------

	// Algorithm 2, Step 1 (2 rounds): every set learns, for every pair of
	// sets (A,B), how many parcels A holds with destination in B.
	cntSet := c.intVec(s)
	for _, h := range load {
		cntSet[grp.groupOf(h.dstLocal)]++
	}
	tFlat, err := aggregateAndBroadcast(c, myGroup*s, cntSet, s*s)
	if err != nil {
		return nil, fmt.Errorf("%s step2.1: %w", st.name, err)
	}
	setDemand := c.matrixOver(tFlat, s, s)

	// Algorithm 2, Step 2 (local): color the set-level multigraph; the parcel
	// of color col is (eventually) moved to set col mod s. This is the
	// exchange pattern all nodes agree on.
	dT := bipartite.MaxRowColSum(setDemand)
	var setColoring *bipartite.DemandColoring
	if dT > 0 {
		shared := c.shared(st.key.sub(kcSetColoring), -1, func() interface{} {
			dc, colErr := bipartite.ColorDemandMatrix(setDemand, dT)
			if colErr != nil {
				return colErr
			}
			return dc
		})
		var ok bool
		setColoring, ok = shared.(*bipartite.DemandColoring)
		if !ok {
			return nil, fmt.Errorf("%s step2.2: set coloring failed: %v", st.name, shared)
		}
	}

	// Algorithm 2, Step 3 (2 rounds): inside every set, members announce how
	// many parcels they hold per destination set, which pins down every
	// parcel's position in the set-level order and hence its color.
	perMemberCnt, err := announceIntVector(c, groupMembers, cntSet, st.sub("a2.announce", kcA2Announce))
	if err != nil {
		return nil, fmt.Errorf("%s step2.3: %w", st.name, err)
	}

	// Algorithm 2, Step 4 (local): derive each parcel's intermediate set and
	// compute the within-set balancing pattern so that afterwards every
	// member holds (almost) the same number of parcels per intermediate set.
	offsets := c.intMatrix(s, s) // offsets[a][b]: first unit index of member a in cell (myGroup,b)
	for b := 0; b < s; b++ {
		run := 0
		for a := 0; a < s; a++ {
			offsets[a][b] = run
			run += perMemberCnt[a][b]
		}
	}
	// interCounts[a][t]: number of parcels of member a assigned to
	// intermediate set t; computable by every group member from the shared
	// coloring and the announced counts.
	interCounts := c.intMatrix(s, s)
	byRes := c.intVec(s)
	for a := 0; a < s; a++ {
		for b := 0; b < s; b++ {
			if perMemberCnt[a][b] == 0 || setColoring == nil {
				continue
			}
			if resErr := countUnitsByResidue(setColoring, myGroup, b, offsets[a][b], offsets[a][b]+perMemberCnt[a][b], s, byRes); resErr != nil {
				return nil, fmt.Errorf("%s step2.4: %w", st.name, resErr)
			}
			for t := 0; t < s; t++ {
				interCounts[a][t] += byRes[t]
			}
		}
	}
	// Assign my own parcels their intermediate sets.
	bucketCursor := c.intVec(s)
	for i := range load {
		b := grp.groupOf(load[i].dstLocal)
		unit := offsets[myIdxInGroup][b] + bucketCursor[b]
		bucketCursor[b]++
		if setColoring == nil {
			load[i].interSet = 0
			continue
		}
		color, colErr := setColoring.ColorOfUnit(myGroup, b, unit)
		if colErr != nil {
			return nil, fmt.Errorf("%s step2.4: %w", st.name, colErr)
		}
		load[i].interSet = color % s
	}
	plan2, err := newBalancePlan(c, interCounts, s, st.sub("a2.plan", kcA2Plan), int32(myGroup))
	if err != nil {
		return nil, fmt.Errorf("%s step2.4: %w", st.name, err)
	}
	demand2, err := plan2.moveDemand(c, interCounts)
	if err != nil {
		return nil, fmt.Errorf("%s step2.4: %w", st.name, err)
	}

	// Algorithm 2, Step 5 (2 rounds): execute the within-set redistribution.
	classCursor := c.intVec(s)
	targets := c.intVec(len(load))
	for i, h := range load {
		k := classCursor[h.interSet]
		classCursor[h.interSet]++
		target, tErr := plan2.target(myIdxInGroup, h.interSet, k)
		if tErr != nil {
			return nil, fmt.Errorf("%s step2.5: %w", st.name, tErr)
		}
		targets[i] = grp.member(myGroup, target)
	}
	received2, err := relayRoute(c, groupMembers, demand2, len(load),
		func(i int) int { return targets[i] },
		func(i int) { c.stageHeld(load[i]) }, st.sub("a2.move", kcA2Move), false)
	if err != nil {
		return nil, fmt.Errorf("%s step2.5: %w", st.name, err)
	}
	load, err = decodeHeld(c, received2)
	if err != nil {
		return nil, fmt.Errorf("%s step2.5: %w", st.name, err)
	}
	// The input load, the only payloads this router encoded, has been
	// copied into frames and delivered; its arena storage is dead.
	c.arenaReset()

	// Algorithm 2, Step 6 (1 round): every member now holds (almost) the same
	// number of parcels for each intermediate set and sends one of them to
	// each of that set's members. Parcels of one intermediate set are dealt
	// round-robin in held order, which matches the bucketed order.
	dealCursor := c.intVec(s)
	for _, h := range load {
		k := dealCursor[h.interSet]
		dealCursor[h.interSet]++
		c.sendHeld(grp.member(h.interSet, k%s), h)
	}
	load, err = collectHeld(c, st.name, "step2.6")
	if err != nil {
		return nil, err
	}

	// ------------------------------------------------------------------
	// Step 3 of Algorithm 1 (4 rounds, Corollary 3.5): inside every set,
	// balance the held parcels by (final) destination set.
	// ------------------------------------------------------------------
	cnt3 := c.intVec(s)
	for _, h := range load {
		cnt3[grp.groupOf(h.dstLocal)]++
	}
	all3, err := announceIntVector(c, groupMembers, cnt3, st.sub("s3.announce", kcS3Announce))
	if err != nil {
		return nil, fmt.Errorf("%s step3: %w", st.name, err)
	}
	plan3, err := newBalancePlan(c, all3, s, st.sub("s3.plan", kcS3Plan), int32(myGroup))
	if err != nil {
		return nil, fmt.Errorf("%s step3: %w", st.name, err)
	}
	demand3, err := plan3.moveDemand(c, all3)
	if err != nil {
		return nil, fmt.Errorf("%s step3: %w", st.name, err)
	}
	cursor3 := c.intVec(s)
	targets = c.intVec(len(load))
	for i, h := range load {
		cls := grp.groupOf(h.dstLocal)
		k := cursor3[cls]
		cursor3[cls]++
		target, tErr := plan3.target(myIdxInGroup, cls, k)
		if tErr != nil {
			return nil, fmt.Errorf("%s step3: %w", st.name, tErr)
		}
		targets[i] = grp.member(myGroup, target)
	}
	received3, err := relayRoute(c, groupMembers, demand3, len(load),
		func(i int) int { return targets[i] },
		func(i int) { c.stageHeld(load[i]) }, st.sub("s3.move", kcS3Move), false)
	if err != nil {
		return nil, fmt.Errorf("%s step3: %w", st.name, err)
	}
	load, err = decodeHeld(c, received3)
	if err != nil {
		return nil, fmt.Errorf("%s step3: %w", st.name, err)
	}

	// ------------------------------------------------------------------
	// Step 4 of Algorithm 1 (1 round): every member sends, for each
	// destination set, one of its parcels to each member of that set.
	// ------------------------------------------------------------------
	deal4 := c.intVec(s)
	for _, h := range load {
		t := grp.groupOf(h.dstLocal)
		k := deal4[t]
		deal4[t]++
		c.sendHeld(grp.member(t, k%s), h)
	}
	load, err = collectHeld(c, st.name, "step4")
	if err != nil {
		return nil, err
	}

	// ------------------------------------------------------------------
	// Step 5 of Algorithm 1 (4 rounds, Corollary 3.4): deliver inside every
	// destination set.
	// ------------------------------------------------------------------
	for _, h := range load {
		if grp.groupOf(h.dstLocal) != myGroup {
			return nil, fmt.Errorf("%s step5: node %d holds a parcel for foreign set %d", st.name, c.ex.ID(), grp.groupOf(h.dstLocal))
		}
	}
	received5, err := groupRouteUnknown(c, groupMembers, len(load),
		func(i int) int { return load[i].dstLocal },
		func(i int) { c.stageHeld(load[i]) }, st.sub("s5", kcS5))
	if err != nil {
		return nil, fmt.Errorf("%s step5: %w", st.name, err)
	}
	return deliveredHeld(c, received5, "step5")
}

// decodeHeld decodes received messages as held parcels (into a rotating
// scratch buffer of the comm).
func decodeHeld(c *comm, msgs [][]clique.Word) ([]held, error) {
	slot := c.heldSlot()
	out := *slot
	for _, p := range msgs {
		h, err := decodeHeldParcel(p, c)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	*slot = out
	return out, nil
}

// collectHeld performs one exchange and decodes every received message as a
// held parcel (into a rotating scratch buffer of the comm).
func collectHeld(c *comm, context, phase string) ([]held, error) {
	rx, err := c.exchange()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", context, phase, err)
	}
	out, err := decodeHeld(c, rx.all())
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", context, phase, err)
	}
	return out, nil
}

// countUnitsByResidue fills out[t] with how many of the units [lo,hi) of
// cell (row, col) receive a color congruent to t modulo s. out must have
// length s; it is a caller-owned scratch buffer so the s-by-s sweep of
// Algorithm 2 Step 4 does not allocate per cell.
func countUnitsByResidue(dc *bipartite.DemandColoring, row, col, lo, hi, s int, out []int) error {
	clear(out)
	if lo >= hi {
		return nil
	}
	unit := 0
	for _, run := range dc.Runs[row][col] {
		runLo, runHi := unit, unit+run.Len
		unit = runHi
		ovLo, ovHi := lo, hi
		if runLo > ovLo {
			ovLo = runLo
		}
		if runHi < ovHi {
			ovHi = runHi
		}
		if ovLo >= ovHi {
			continue
		}
		c0 := run.Start + (ovLo - runLo)
		c1 := run.Start + (ovHi - runLo)
		span := c1 - c0
		if full := span / s; full > 0 {
			for t := 0; t < s; t++ {
				out[t] += full
			}
		}
		for k := 0; k < span%s; k++ {
			out[(c0+k)%s]++
		}
	}
	if unit < hi {
		return fmt.Errorf("core: cell (%d,%d) has only %d units, need %d", row, col, unit, hi)
	}
	return nil
}

package core

import (
	"fmt"
	"strconv"

	"congestedclique/internal/bipartite"
	"congestedclique/internal/clique"
)

// parcel is the unit of the Information Distribution Task in its general
// form: a constant number of payload words that must travel from Src to Dst
// (both global node identifiers). The paper's messages of O(log n) bits are
// parcels with a bounded number of words; the sorting pipeline reuses the
// same machinery to move bundles of keys.
//
// Parcel payloads returned by routeParcels borrow instance-owned or
// engine-owned memory (valid for the engine's payload grace window); callers
// consume or copy them immediately.
type parcel struct {
	Src   int
	Dst   int
	Words []clique.Word
}

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
	return routeMessages(ex, msgs, "route@r", rootStep("thm3.7"), routeSquare)
}

// routeMessages is the Message-level shell shared by Route and
// LowComputeRoute: it encodes msgs as parcels on a comm spanning the clique
// (labelled label + round), routes them with routeParcels and square, and
// decodes what arrived, sorted by (Src, Dst, Seq).
func routeMessages(ex clique.Exchanger, msgs []Message, label string, st step, square squareRouter) ([]Message, error) {
	c := fullComm(ex, label+strconv.Itoa(ex.Round()))
	defer c.release()
	parcels := make([]parcel, 0, len(msgs))
	for _, m := range msgs {
		parcels = append(parcels, parcel{Src: m.Src, Dst: m.Dst, Words: c.arenaAppend(clique.Word(m.Seq), m.Payload)})
	}
	received, err := routeParcels(c, parcels, st, square)
	if err != nil {
		return nil, err
	}
	out := make([]Message, 0, len(received))
	for _, p := range received {
		if len(p.Words) < 2 {
			return nil, fmt.Errorf("core: malformed routed message with %d payload words", len(p.Words))
		}
		out = append(out, Message{Src: p.Src, Dst: p.Dst, Seq: int(p.Words[0]), Payload: p.Words[1]})
	}
	sortMessages(out)
	return out, nil
}

// routeTrivialThreshold is the clique size below which the V1/V2/V3
// decomposition degenerates; such instances are routed as a single
// Corollary 3.4 group instead.
const routeTrivialThreshold = 9

// squareRouter routes parcels on a comm whose member count is a perfect
// square: routeSquare (Algorithm 1, Theorem 3.7) or lowComputeSquare
// (Theorem 5.4).
type squareRouter func(c *comm, parcels []parcel, st step) ([]parcel, error)

// routeParcels dispatches between the perfect-square algorithm, the
// tiny-clique fallback and the general decomposition, which runs square on
// V1 and V2. Every member of the comm must call it in the same round.
func routeParcels(c *comm, parcels []parcel, st step, square squareRouter) ([]parcel, error) {
	if err := validateParcels(c, parcels); err != nil {
		return nil, err
	}
	m := c.size()
	switch {
	case m == 1:
		return parcels, nil
	case m < routeTrivialThreshold:
		return routeTiny(c, parcels, st.sub("tiny", kcTiny))
	case isPerfectSquare(m):
		return square(c, parcels, st.sub("square", kcSquare))
	default:
		return routeGeneral(c, parcels, st.sub("general", kcGeneral), square)
	}
}

// validateParcels checks that every parcel source is this node and every
// destination is a member of the instance.
func validateParcels(c *comm, parcels []parcel) error {
	for _, p := range parcels {
		if p.Src != c.ex.ID() {
			return fmt.Errorf("core: parcel (%d->%d) submitted by node %d", p.Src, p.Dst, c.ex.ID())
		}
		if _, ok := c.localOf(p.Dst); !ok {
			return fmt.Errorf("core: parcel destination %d is not a member of instance %q", p.Dst, c.label)
		}
	}
	return nil
}

// held is a parcel in transit together with the bookkeeping Algorithm 2
// attaches to it: the destination as a local index of the enclosing comm and
// the intermediate set assigned by the set-level coloring.
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

// toParcel converts a delivered held parcel to the caller-facing form. The
// payload is copied into the instance arena: delivered parcels must outlive
// the engine's payload grace window (concurrently multiplexed instances may
// keep completing rounds after this instance has finished, recycling the
// engine's receive buffers), and the arena is stable for the lifetime of the
// comm without per-parcel allocation.
func (h held) toParcel(c *comm) parcel {
	return parcel{Src: h.src, Dst: c.global(h.dstLocal), Words: c.arenaAppend(h.payload...)}
}

// routeTiny routes within a very small clique by treating all members as a
// single group of Corollary 3.4 (4 rounds). The announcement volume is |W|^2
// values, which is a constant because the clique size is bounded by
// routeTrivialThreshold.
func routeTiny(c *comm, parcels []parcel, st step) ([]parcel, error) {
	group := make([]int, c.size())
	for i := range group {
		group[i] = i
	}
	slot := c.itemSlot()
	items := *slot
	for _, p := range parcels {
		dstLocal, _ := c.localOf(p.Dst)
		items = append(items, item{dst: dstLocal, words: c.arenaHeld(held{dstLocal: dstLocal, src: p.Src, payload: p.Words})})
	}
	*slot = items
	received, err := groupRouteUnknown(c, group, items, st)
	if err != nil {
		return nil, err
	}
	return heldItemsToParcels(c, received, st.name)
}

func heldItemsToParcels(c *comm, items []item, context string) ([]parcel, error) {
	out := make([]parcel, 0, len(items))
	for _, it := range items {
		h, err := decodeHeldParcel(it.words, c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", context, err)
		}
		if h.dstLocal != c.me {
			return nil, fmt.Errorf("%s: node %d received parcel for node %d", context, c.ex.ID(), c.global(h.dstLocal))
		}
		out = append(out, h.toParcel(c))
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
func routeSquare(c *comm, parcels []parcel, st step) ([]parcel, error) {
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
	groupMembers := make([]int, s)
	for i := range groupMembers {
		groupMembers[i] = grp.member(myGroup, i)
	}
	myIdxInGroup := grp.indexInGroup(c.me)

	loadSlot := c.heldSlot()
	load := *loadSlot
	for _, p := range parcels {
		dstLocal, _ := c.localOf(p.Dst)
		load = append(load, held{dstLocal: dstLocal, src: p.Src, payload: p.Words})
	}
	*loadSlot = load

	// ------------------------------------------------------------------
	// Step 2 of Algorithm 1, implemented by Algorithm 2 (7 rounds).
	// ------------------------------------------------------------------

	// Algorithm 2, Step 1 (2 rounds): every set learns, for every pair of
	// sets (A,B), how many parcels A holds with destination in B.
	cntSet := make([]int, s)
	for _, h := range load {
		cntSet[grp.groupOf(h.dstLocal)]++
	}
	contributions := make([]int64, s)
	for b, v := range cntSet {
		contributions[b] = int64(v)
	}
	tFlat, err := aggregateAndBroadcast(c, myGroup*s, contributions, s*s)
	if err != nil {
		return nil, fmt.Errorf("%s step2.1: %w", st.name, err)
	}
	setDemand := makeIntMatrix(s, s)
	for a := 0; a < s; a++ {
		for b := 0; b < s; b++ {
			setDemand[a][b] = int(tFlat[a*s+b])
		}
	}

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
	offsets := makeIntMatrix(s, s) // offsets[a][b]: first unit index of member a in cell (myGroup,b)
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
	interCounts := makeIntMatrix(s, s)
	byRes := make([]int, s)
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
	bucketCursor := make([]int, s)
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
	demand2, err := plan2.moveDemand(interCounts)
	if err != nil {
		return nil, fmt.Errorf("%s step2.4: %w", st.name, err)
	}

	// Algorithm 2, Step 5 (2 rounds): execute the within-set redistribution.
	classCursor := make([]int, s)
	items2Slot := c.itemSlot()
	items2 := *items2Slot
	for _, h := range load {
		k := classCursor[h.interSet]
		classCursor[h.interSet]++
		target, tErr := plan2.target(myIdxInGroup, h.interSet, k)
		if tErr != nil {
			return nil, fmt.Errorf("%s step2.5: %w", st.name, tErr)
		}
		items2 = append(items2, item{dst: grp.member(myGroup, target), words: c.arenaHeld(h)})
	}
	*items2Slot = items2
	received2, err := relayRoute(c, groupMembers, demand2, items2, st.sub("a2.move", kcA2Move))
	if err != nil {
		return nil, fmt.Errorf("%s step2.5: %w", st.name, err)
	}
	load, err = decodeHeldItems(c, received2)
	if err != nil {
		return nil, fmt.Errorf("%s step2.5: %w", st.name, err)
	}
	// All payloads encoded so far (the input parcels and the step-2.5 items)
	// have been copied into frames and delivered; their arena storage is dead.
	c.arenaReset()

	// Algorithm 2, Step 6 (1 round): every member now holds (almost) the same
	// number of parcels for each intermediate set and sends one of them to
	// each of that set's members. Parcels of one intermediate set are dealt
	// round-robin in held order, which matches the bucketed order.
	dealCursor := make([]int, s)
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
	cnt3 := make([]int, s)
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
	demand3, err := plan3.moveDemand(all3)
	if err != nil {
		return nil, fmt.Errorf("%s step3: %w", st.name, err)
	}
	cursor3 := make([]int, s)
	items3Slot := c.itemSlot()
	items3 := *items3Slot
	for _, h := range load {
		cls := grp.groupOf(h.dstLocal)
		k := cursor3[cls]
		cursor3[cls]++
		target, tErr := plan3.target(myIdxInGroup, cls, k)
		if tErr != nil {
			return nil, fmt.Errorf("%s step3: %w", st.name, tErr)
		}
		items3 = append(items3, item{dst: grp.member(myGroup, target), words: c.arenaHeld(h)})
	}
	*items3Slot = items3
	received3, err := relayRoute(c, groupMembers, demand3, items3, st.sub("s3.move", kcS3Move))
	if err != nil {
		return nil, fmt.Errorf("%s step3: %w", st.name, err)
	}
	load, err = decodeHeldItems(c, received3)
	if err != nil {
		return nil, fmt.Errorf("%s step3: %w", st.name, err)
	}
	c.arenaReset()

	// ------------------------------------------------------------------
	// Step 4 of Algorithm 1 (1 round): every member sends, for each
	// destination set, one of its parcels to each member of that set.
	// ------------------------------------------------------------------
	deal4 := make([]int, s)
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
	items5Slot := c.itemSlot()
	items5 := *items5Slot
	for _, h := range load {
		if grp.groupOf(h.dstLocal) != myGroup {
			return nil, fmt.Errorf("%s step5: node %d holds a parcel for foreign set %d", st.name, c.ex.ID(), grp.groupOf(h.dstLocal))
		}
		items5 = append(items5, item{dst: h.dstLocal, words: c.arenaHeld(h)})
	}
	*items5Slot = items5
	received5, err := groupRouteUnknown(c, groupMembers, items5, st.sub("s5", kcS5))
	if err != nil {
		return nil, fmt.Errorf("%s step5: %w", st.name, err)
	}
	return heldItemsToParcels(c, received5, "step5")
}

// decodeHeldItems converts relay-routed items back to held parcels (into a
// rotating scratch buffer of the comm).
func decodeHeldItems(c *comm, items []item) ([]held, error) {
	slot := c.heldSlot()
	out := *slot
	for _, it := range items {
		h, err := decodeHeldParcel(it.words, c)
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
	slot := c.heldSlot()
	out := *slot
	for _, p := range rx.all() {
		h, decErr := decodeHeldParcel(p, c)
		if decErr != nil {
			return nil, fmt.Errorf("%s %s: %w", context, phase, decErr)
		}
		out = append(out, h)
	}
	*slot = out
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

package core

import (
	"fmt"

	"congestedclique/internal/bipartite"
	"congestedclique/internal/clique"
)

// relayRoute implements Corollary 3.3: two-round routing of units whose
// demand matrix is known to every member of the sending group. A unit is a
// constant number of words bound for one member of the group: a held parcel
// on a routing hop, an announced payload, a bundle of keys.
//
// Every member of the comm must call relayRoute in the same round, because
// any member can serve as a relay. Nodes that do not belong to a sending
// group in this step pass a nil group and no units; they participate purely
// as relays.
//
//   - group lists the local indices of this node's group (sorted ascending);
//     groups of different callers must be identical or disjoint.
//   - demand[a][b] is the number of units the a-th group member sends to the
//     b-th group member; it must be identical at every member of the group
//     and consistent with the units this node sends.
//   - units is the number of units this node sends. Unit i is bound for the
//     local member index dstOf(i), which must lie inside group, and stage(i)
//     appends its words to the message relayRoute has opened for it. Their
//     order defines the canonical unit order of each demand cell at the
//     sender. Both are called before the first exchange, so a unit may be
//     staged straight from a payload received within the engine's grace
//     window (clique.PayloadGraceRounds).
//   - greedy selects the greedy 2Δ-1 coloring of footnote 3, which Section 5
//     uses to keep local computation near-linear at the price of relays
//     carrying up to two messages per edge, instead of the exact König
//     coloring (Theorem 3.2).
//
// Following the proof of Corollary 3.3, the demand multigraph is edge-colored
// with d = max degree colors; the unit of color c is relayed through the comm
// member c mod size in the first round, as [dstOf(i), words...], and
// forwarded to its destination in the second. When d exceeds the comm size
// (overloaded instances), relays carry ceil(d/size) units per edge, which
// only increases the constant number of words per edge.
//
// The result lists the words of every unit delivered to this node. It reuses
// the comm's receive buffer, so it is valid until the comm's next exchange;
// the words borrow the engine's receive arena for the grace window.
func relayRoute(c *comm, group []int, demand [][]int, units int, dstOf func(int) int, stage func(int), st step, greedy bool) ([][]clique.Word, error) {
	size := c.size()

	if len(group) > 0 {
		if units > 0 && c.me < 0 {
			return nil, fmt.Errorf("core: relayRoute(%s): non-member holds units", st.name)
		}
		pos := c.groupPositions(group)
		defer c.releasePositions(group)
		myIdx := -1
		if c.me >= 0 {
			myIdx = int(pos[c.me])
		}
		if myIdx < 0 {
			return nil, fmt.Errorf("core: relayRoute(%s): node %d not in its own group", st.name, c.ex.ID())
		}
		if len(demand) != len(group) {
			return nil, fmt.Errorf("core: relayRoute(%s): demand has %d rows for group of %d", st.name, len(demand), len(group))
		}

		// Count my units per destination position within the group.
		counts := c.cursors(len(group))
		for i := 0; i < units; i++ {
			dst := dstOf(i)
			b := int32(-1)
			if dst >= 0 && dst < size {
				b = pos[dst]
			}
			if b < 0 {
				return nil, fmt.Errorf("core: relayRoute(%s): unit destination %d outside group", st.name, dst)
			}
			counts[b]++
		}
		for b := range counts {
			if counts[b] != demand[myIdx][b] {
				return nil, fmt.Errorf("core: relayRoute(%s): node %d holds %d units for group position %d, demand says %d",
					st.name, c.ex.ID(), counts[b], b, demand[myIdx][b])
			}
		}

		// Uniform demand (every announcement pattern): the König coloring
		// degenerates to the Latin-square layout of
		// bipartite.uniformDemandColoring — cell (i,j) owns the color block
		// ((i+j) mod w)*u — so the relay of unit k is computed arithmetically,
		// with no coloring object and no cache access. The colors are
		// identical to the ones ColorDemandMatrix and ColorDemandGreedy would
		// assign.
		u := uniformDemand(demand)
		var dc *bipartite.DemandColoring
		if d := bipartite.MaxRowColSum(demand); u == 0 && d > 0 {
			shared := c.shared(st.key.sub(kcColor), int32(group[0]), func() interface{} {
				var col *bipartite.DemandColoring
				var err error
				if greedy {
					col, err = bipartite.ColorDemandGreedy(demand)
				} else {
					col, err = bipartite.ColorDemandMatrix(demand, d)
				}
				if err != nil {
					return err
				}
				return col
			})
			var ok bool
			if dc, ok = shared.(*bipartite.DemandColoring); !ok {
				return nil, fmt.Errorf("core: relayRoute(%s): coloring failed: %v", st.name, shared)
			}
		}
		// The counts slice doubles as the per-cell unit cursor now that the
		// demand check is done.
		clear(counts)
		w := len(group)
		for i := 0; i < units; i++ {
			dst := dstOf(i)
			b := int(pos[dst])
			k := counts[b]
			counts[b]++
			color := ((myIdx+b)%w)*u + k
			if dc != nil {
				var err error
				if color, err = dc.ColorOfUnit(myIdx, b, k); err != nil {
					return nil, fmt.Errorf("core: relayRoute(%s): %w", st.name, err)
				}
			}
			c.stageOpen(color % size)
			c.stageWords(clique.Word(dst))
			stage(i)
			c.stageClose()
		}
	} else if units > 0 {
		return nil, fmt.Errorf("core: relayRoute(%s): units passed without a group", st.name)
	}

	// Round 1: units travel to their relays.
	rx, err := c.exchange()
	if err != nil {
		return nil, err
	}

	// Round 2: relays forward each unit to its destination.
	for _, p := range rx.all() {
		if len(p) == 0 {
			continue
		}
		dst := int(p[0])
		if dst < 0 || dst >= size {
			return nil, fmt.Errorf("core: relayRoute(%s): relayed destination %d out of range", st.name, dst)
		}
		c.send(dst, p...)
	}
	rx, err = c.exchange()
	if err != nil {
		return nil, err
	}

	// Strip the relay header in place: entry i of the result is written
	// after entry i of the receive buffer has been read.
	received := rx.msgs[:0]
	for _, p := range rx.all() {
		if len(p) > 0 {
			received = append(received, p[1:])
		}
	}
	return received, nil
}

// uniformDemand returns u > 0 if every cell of the square demand matrix
// holds exactly u, and 0 otherwise.
func uniformDemand(demand [][]int) int {
	u := demand[0][0]
	if u <= 0 {
		return 0
	}
	for _, row := range demand {
		for _, v := range row {
			if v != u {
				return 0
			}
		}
	}
	return u
}

// announceFixed implements the announcement pattern used throughout the
// paper ("each node in W announces ... to all nodes in W"): every group
// member sends the same number of payloads to every other group member, so
// the demand is uniform and known a priori, and Corollary 3.3 applies
// directly (2 rounds).
//
// perMember is the fixed number of payloads each member announces; callers
// pad with sentinel payloads when members have fewer real values.
// stagePayload(k) stages the words of payload k, once per group member; the
// relay sends each as [myIdx, payload...]. The return value lists, for each
// group position a, the payloads announced by that member (in unspecified
// order; payloads should carry their own indices when order matters). The
// returned word slices borrow the engine's receive arena (see relayRoute).
//
// Non-members pass a nil group and act as relays.
func announceFixed(c *comm, group []int, perMember int, stagePayload func(k int), st step) ([][][]clique.Word, error) {
	var demand [][]int
	units, myIdx := 0, -1
	if len(group) > 0 {
		if myIdx = indexIn(group, c.me); myIdx < 0 {
			return nil, fmt.Errorf("core: announceFixed(%s): node %d not in its group", st.name, c.ex.ID())
		}
		demand = c.uniformDemandMatrix(len(group), perMember)
		units = len(group) * perMember
	}
	received, err := relayRoute(c, group, demand, units,
		func(i int) int { return group[i/perMember] },
		func(i int) {
			c.stageWords(clique.Word(myIdx))
			stagePayload(i % perMember)
		}, st, false)
	if err != nil {
		return nil, err
	}
	if len(group) == 0 {
		return nil, nil
	}
	// The result structure is carved from the comm's announcement scratch:
	// out's w buckets are fixed-capacity windows of the flat annRows arena
	// (every member announces exactly perMember payloads), so no per-bucket
	// growth allocation happens. The structure is only valid until the comm's
	// next announcement; both callers consume it immediately.
	w := len(group)
	rows := c.annRows
	if need := w * perMember; cap(rows) < need {
		rows = make([][]clique.Word, need)
		c.annRows = rows
	} else {
		rows = rows[:need]
	}
	out := c.annOut
	if cap(out) < w {
		out = make([][][]clique.Word, w)
		c.annOut = out
	} else {
		out = out[:w]
	}
	for a := 0; a < w; a++ {
		out[a] = rows[a*perMember : a*perMember : (a+1)*perMember]
	}
	for _, p := range received {
		if len(p) < 1 {
			return nil, fmt.Errorf("core: announceFixed(%s): malformed announcement", st.name)
		}
		a := int(p[0])
		if a < 0 || a >= len(group) {
			return nil, fmt.Errorf("core: announceFixed(%s): announcement from invalid group position %d", st.name, a)
		}
		if len(out[a]) == cap(out[a]) {
			return nil, fmt.Errorf("core: announceFixed(%s): member %d announced more than %d payloads", st.name, a, perMember)
		}
		out[a] = append(out[a], p[1:])
	}
	return out, nil
}

// announceIntVector announces one integer vector per group member to the
// whole group (Algorithm 2 Step 3, Corollary 3.5, Corollary 3.4 phase 1, ...).
// It returns all[a][t] = element t of the vector announced by group member a,
// carved from the comm's int arena. The vector length must be identical at
// all members.
func announceIntVector(c *comm, group []int, vec []int, st step) ([][]int, error) {
	raw, err := announceFixed(c, group, len(vec), func(t int) {
		c.stageWords(clique.Word(t), clique.Word(vec[t]))
	}, st)
	if err != nil || len(group) == 0 {
		return nil, err
	}
	all := c.intMatrix(len(group), len(vec))
	for a := range all {
		if len(raw[a]) != len(vec) {
			return nil, fmt.Errorf("core: announceIntVector(%s): member %d announced %d values, want %d", st.name, a, len(raw[a]), len(vec))
		}
		for _, p := range raw[a] {
			if len(p) < 2 {
				return nil, fmt.Errorf("core: announceIntVector(%s): malformed payload", st.name)
			}
			t := int(p[0])
			if t < 0 || t >= len(vec) {
				return nil, fmt.Errorf("core: announceIntVector(%s): index %d out of range", st.name, t)
			}
			all[a][t] = int(p[1])
		}
	}
	return all, nil
}

// groupRouteUnknown implements Corollary 3.4: four-round routing of units
// within a group when the demands are not known in advance. The first two
// rounds announce the per-destination counts (uniform demand, Corollary 3.3),
// which establishes the preconditions for delivering the units with another
// invocation of Corollary 3.3 under the König coloring. The units, their
// destinations and the result are relayRoute's; the units are staged after
// the announcement, two barriers after the call.
func groupRouteUnknown(c *comm, group []int, units int, dstOf func(int) int, stage func(int), st step) ([][]clique.Word, error) {
	w := len(group)
	var vec []int
	if w > 0 {
		pos := c.groupPositions(group)
		vec = c.intVec(w)
		for i := 0; i < units; i++ {
			dst := dstOf(i)
			b := int32(-1)
			if dst >= 0 && dst < c.size() {
				b = pos[dst]
			}
			if b < 0 {
				c.releasePositions(group)
				return nil, fmt.Errorf("core: groupRouteUnknown(%s): destination %d outside group", st.name, dst)
			}
			vec[b]++
		}
		c.releasePositions(group)
	}
	counts, err := announceIntVector(c, group, vec, st.sub("announce", kcAnnounce))
	if err != nil {
		return nil, err
	}
	var demand [][]int
	if w > 0 {
		demand = counts
	}
	return relayRoute(c, group, demand, units, dstOf, stage, st.sub("deliver", kcDeliver), false)
}

// aggregateAndBroadcast makes slot sums globally known in two rounds: every
// member sends its contribution for slot k to the slot's aggregator (the
// member with local index k), the aggregator sums the contributions and
// broadcasts the result to all members. This is the pattern of Algorithm 2
// Step 1 and of the bucket-size aggregation used by the sorting pipeline.
//
// vals[b] is this node's contribution to slot base+b; every caller
// contributes a contiguous slot range (zero contributions included), which
// keeps the interface dense and allocation-free. numSlots must not exceed the
// comm size, so each member aggregates at most its own slot. The sums are
// carved from the comm's int arena.
func aggregateAndBroadcast(c *comm, base int, vals []int, numSlots int) ([]int, error) {
	if !c.isMember() {
		return nil, fmt.Errorf("core: aggregateAndBroadcast: node %d is not a member", c.ex.ID())
	}
	for b, v := range vals {
		slot := base + b
		if slot < 0 || slot >= numSlots {
			return nil, fmt.Errorf("core: aggregateAndBroadcast: slot %d out of range", slot)
		}
		c.send(slot, clique.Word(slot), clique.Word(v))
	}
	rx, err := c.exchange()
	if err != nil {
		return nil, err
	}

	// Sum the contributions of the slot this node aggregates (its own index).
	var mySum int
	for _, p := range rx.all() {
		if len(p) < 2 {
			continue
		}
		if slot := int(p[0]); slot != c.me || slot >= numSlots {
			return nil, fmt.Errorf("core: aggregateAndBroadcast: node %d received contribution for foreign slot %d", c.ex.ID(), int(p[0]))
		}
		mySum += int(p[1])
	}
	if c.me < numSlots {
		for to := 0; to < c.size(); to++ {
			c.send(to, clique.Word(c.me), clique.Word(mySum))
		}
	}
	rx, err = c.exchange()
	if err != nil {
		return nil, err
	}
	out := c.intVec(numSlots)
	seen := c.cursors(numSlots)
	for _, p := range rx.all() {
		if len(p) < 2 {
			continue
		}
		slot := int(p[0])
		if slot < 0 || slot >= numSlots {
			return nil, fmt.Errorf("core: aggregateAndBroadcast: broadcast slot %d out of range", slot)
		}
		out[slot] = int(p[1])
		seen[slot] = 1
	}
	for slot, ok := range seen {
		if ok == 0 {
			return nil, fmt.Errorf("core: aggregateAndBroadcast: slot %d never broadcast", slot)
		}
	}
	return out, nil
}

// spreadBroadcast makes a set of slot payloads globally known in two rounds:
// the holder of slot k sends it to member k mod size, which broadcasts it to
// everyone. held[k] is the payload of slot k at its (unique) holder, nil
// everywhere else. This is the delimiter announcement of Algorithm 4 Step 4.
// The returned payloads borrow the engine's receive arena (valid for the
// grace window); absent slots come back nil.
func spreadBroadcast(c *comm, held []clique.Packet, numSlots int) ([]clique.Packet, error) {
	if !c.isMember() {
		return nil, fmt.Errorf("core: spreadBroadcast: node %d is not a member", c.ex.ID())
	}
	size := c.size()
	for slot, payload := range held {
		if payload == nil {
			continue
		}
		if slot >= numSlots {
			return nil, fmt.Errorf("core: spreadBroadcast: slot %d out of range", slot)
		}
		c.stageOpen(slot % size)
		c.stageWords(clique.Word(slot))
		c.stageWords(payload...)
		c.stageClose()
	}
	rx, err := c.exchange()
	if err != nil {
		return nil, err
	}
	for _, p := range rx.all() {
		if len(p) < 1 {
			continue
		}
		slot := int(p[0])
		if slot%size != c.me {
			return nil, fmt.Errorf("core: spreadBroadcast: node %d relayed foreign slot %d", c.ex.ID(), slot)
		}
		for to := 0; to < size; to++ {
			c.send(to, p...)
		}
	}
	rx, err = c.exchange()
	if err != nil {
		return nil, err
	}
	out := make([]clique.Packet, numSlots)
	for _, p := range rx.all() {
		if len(p) < 1 {
			continue
		}
		slot := int(p[0])
		if slot < 0 || slot >= numSlots {
			return nil, fmt.Errorf("core: spreadBroadcast: broadcast slot %d out of range", slot)
		}
		out[slot] = clique.Packet(p[1:])
	}
	// Slots nobody held simply stay absent; callers decide whether that is an
	// error (the delimiter announcement of Algorithm 4 tolerates it when there
	// are fewer samples than groups).
	return out, nil
}

// balancePlan is the local redistribution pattern of Algorithm 1 Step 3 and
// Algorithm 2 Step 4: given how many items of each class every group member
// holds, it assigns each item a target member such that afterwards every
// member holds an (almost) equal number of items of every class. The
// assignment is derived from a König coloring of the member-by-class demand
// matrix: the item of color c moves to member c mod w (the paper's rule).
//
// A uniform square matrix (every cell u, Theorem 3.7 on a full load) has no
// coloring object: ColorDemandMatrix would color it as the Latin square
// bipartite.uniformDemandColoring builds, cell (a,t) owning the color block
// ((a+t) mod dim)*u, and the plan computes those colors arithmetically, as
// relayRoute does for uniform demand.
type balancePlan struct {
	coloring *bipartite.DemandColoring // nil for a uniform plan
	w        int
	dim, u   int // a uniform plan's matrix: dim x dim, every cell u
}

// newBalancePlan builds the plan from counts[a][t] = number of class-t items
// held by group member a. The matrix is squared up with zero rows/columns
// (in a copy from the comm's int arena) if it is not square. group
// discriminates concurrent groups sharing the step key. A uniform plan
// needs no shared computation, on a replay neither.
func newBalancePlan(c *comm, counts [][]int, w int, st step, group int32) (balancePlan, error) {
	dim := len(counts)
	ragged := false
	for _, row := range counts {
		dim = max(dim, len(row))
		ragged = ragged || len(row) != len(counts)
	}
	if !ragged && dim > 0 {
		if u := uniformDemand(counts); u > 0 {
			return balancePlan{w: w, dim: dim, u: u}, nil
		}
	}
	square := counts
	if ragged {
		square = c.intMatrix(dim, dim)
		for i, row := range counts {
			copy(square[i], row)
		}
	}
	d := bipartite.MaxRowColSum(square)
	if d == 0 {
		d = 1
	}
	shared := c.shared(st.key, group, func() interface{} {
		dc, err := bipartite.ColorDemandMatrix(square, d)
		if err != nil {
			return err
		}
		return dc
	})
	dc, ok := shared.(*bipartite.DemandColoring)
	if !ok {
		return balancePlan{}, fmt.Errorf("core: balance plan (%s): %v", st.name, shared)
	}
	return balancePlan{coloring: dc, w: w}, nil
}

// target returns the group position that the k-th class-t item of member a
// must move to.
func (p balancePlan) target(a, t, k int) (int, error) {
	if p.coloring == nil {
		if k < 0 || k >= p.u {
			return 0, fmt.Errorf("core: balance plan cell (%d,%d) has no unit %d", a, t, k)
		}
		return (((a+t)%p.dim)*p.u + k) % p.w, nil
	}
	color, err := p.coloring.ColorOfUnit(a, t, k)
	if err != nil {
		return 0, err
	}
	return color % p.w, nil
}

// moveDemand returns the member-to-member demand matrix induced by the plan
// (carved from c's int arena), which is what Corollary 3.3 needs to execute
// the redistribution. Instead of resolving every unit's color individually
// (O(units) coloring lookups), it walks each cell's color runs once (a
// uniform plan's cell is one run) with spreadRun.
func (p balancePlan) moveDemand(c *comm, counts [][]int) ([][]int, error) {
	w := p.w
	demand := c.intMatrix(w, w)
	for a := range counts {
		for t, n := range counts[a] {
			if n == 0 {
				continue
			}
			unit := 0
			if p.coloring == nil {
				unit = spreadRun(demand[a], ((a+t)%p.dim)*p.u, min(p.u, n), w)
			} else {
				for _, run := range p.coloring.Runs[a][t] {
					if unit >= n {
						break
					}
					unit += spreadRun(demand[a], run.Start, min(run.Len, n-unit), w)
				}
			}
			if unit < n {
				return nil, fmt.Errorf("core: balance plan cell (%d,%d) has only %d units, need %d", a, t, unit, n)
			}
		}
	}
	return demand, nil
}

// spreadRun adds the span consecutive colors from start to row, the count
// of target members by color residue modulo w, and returns span: a run
// spreads over the residues in full cycles plus one extra for the first
// span%w residues — the same arithmetic as countUnitsByResidue.
func spreadRun(row []int, start, span, w int) int {
	if full := span / w; full > 0 {
		for b := 0; b < w; b++ {
			row[b] += full
		}
	}
	for k := 0; k < span%w; k++ {
		row[(start+k)%w]++
	}
	return span
}

package core

import (
	"fmt"

	"congestedclique/internal/clique"
)

// routeGeneral implements the non-perfect-square case of Theorem 3.7 for
// either square router (Theorem 3.7's routeSquare or Theorem 5.4's
// lowComputeSquare). With
// s = floor(sqrt(m)) it considers
//
//	V1 = the first s^2 members,
//	V2 = the last  s^2 members,
//
// which overlap in the middle. Parcels with both endpoints in V1 are routed
// by Algorithm 1 on V1; parcels with both endpoints in V2 (and not already
// handled) are routed by Algorithm 1 on V2; the remaining "corner" parcels
// (one endpoint among the first m-s^2 members, the other among the last
// m-s^2) are routed by the paper's 6-round boundary procedure. The three
// instances run concurrently on the virtual multiplexer, so the total round
// count stays the square router's (16, respectively 12) while the per-edge
// load grows by a constant factor only — exactly the trade-off stated in the
// proof of Theorem 3.7.
func routeGeneral(c *comm, parcels []parcel, st step, router squareRouter) ([]parcel, error) {
	m := c.size()
	s := isqrt(m)
	square := s * s
	r := m - square // size of V1\V2 and of V2\V1
	if r <= 0 || 2*square < m {
		return nil, fmt.Errorf("core: routeGeneral invariants violated for m=%d", m)
	}

	v1 := make([]int, square) // global ids of the first s^2 members
	v2 := make([]int, square) // global ids of the last  s^2 members
	for i := 0; i < square; i++ {
		v1[i] = c.global(i)
		v2[i] = c.global(r + i)
	}

	// Partition my parcels by sub-instance.
	var parcels1, parcels2, corner []parcel
	for _, p := range parcels {
		srcLocal := c.me
		dstLocal, _ := c.localOf(p.Dst)
		switch {
		case srcLocal < square && dstLocal < square:
			parcels1 = append(parcels1, p)
		case srcLocal >= r && dstLocal >= r:
			parcels2 = append(parcels2, p)
		default:
			corner = append(corner, p)
		}
	}

	const (
		instV1 = iota + 1
		instV2
		instCorner
	)

	var out1, out2, outCorner []parcel
	programs := make([]func(clique.Exchanger) error, instCorner+1)
	programs[instCorner] = func(ex clique.Exchanger) error {
		res, err := routeCorner(ex, c, r, square, corner, st.sub("corner", kcCorner))
		if err != nil {
			return err
		}
		outCorner = res
		return nil
	}
	if c.me < square {
		programs[instV1] = func(ex clique.Exchanger) error {
			sub, err := newComm(ex, c.label+"/v1", v1)
			if err != nil {
				return err
			}
			res, err := router(sub, parcels1, st.sub("v1", kcV1))
			if err != nil {
				return err
			}
			out1 = res
			return nil
		}
	}
	if c.me >= r {
		programs[instV2] = func(ex clique.Exchanger) error {
			sub, err := newComm(ex, c.label+"/v2", v2)
			if err != nil {
				return err
			}
			res, err := router(sub, parcels2, st.sub("v2", kcV2))
			if err != nil {
				return err
			}
			out2 = res
			return nil
		}
	}
	if err := clique.NewMux(c.ex).Run(programs); err != nil {
		return nil, fmt.Errorf("%s: %w", st.name, err)
	}

	out := make([]parcel, 0, len(out1)+len(out2)+len(outCorner))
	out = append(out, out1...)
	out = append(out, out2...)
	out = append(out, outCorner...)
	return out, nil
}

// routeCorner is the 6-round boundary procedure from the proof of
// Theorem 3.7. It delivers the parcels whose source lies in V1\V2 and whose
// destination lies in V2\V1, or vice versa. parent is the enclosing comm
// (used to translate node identifiers); the procedure itself runs on all m
// members through the multiplexed Exchanger ex.
//
//	Round 1: every corner source spreads its corner parcels, one per node.
//	Round 2: every node forwards the parcels it relays, one per member of the
//	         corner set the parcel is destined to.
//	Rounds 3-6: Corollary 3.4 delivers inside V1\V2 and V2\V1 concurrently.
func routeCorner(ex clique.Exchanger, parent *comm, r, square int, corner []parcel, st step) ([]parcel, error) {
	sub := fullCommOn(ex, parent, parent.label+"/corner")
	m := sub.size()

	// Round 1: spread my corner parcels across all nodes.
	for j, p := range corner {
		dstLocal, ok := sub.localOf(p.Dst)
		if !ok {
			return nil, fmt.Errorf("%s: destination %d not a member", st.name, p.Dst)
		}
		sub.sendHeld(j%m, held{dstLocal: dstLocal, src: p.Src, payload: p.Words})
	}
	relayLoad, err := collectHeld(sub, st.name, "round1")
	if err != nil {
		return nil, err
	}

	// Round 2: deal the relayed parcels round-robin over the members of the
	// corner set they are destined to (V1\V2 occupies local indices [0,r),
	// V2\V1 occupies [square, m)).
	left, right := 0, 0
	for _, h := range relayLoad {
		switch {
		case h.dstLocal < r:
			sub.sendHeld(left%r, h)
			left++
		case h.dstLocal >= square:
			sub.sendHeld(square+right%r, h)
			right++
		default:
			return nil, fmt.Errorf("%s round2: corner parcel destined to overlap node %d", st.name, h.dstLocal)
		}
	}
	dealt, err := collectHeld(sub, st.name, "round2")
	if err != nil {
		return nil, err
	}

	// Rounds 3-6: Corollary 3.4 inside each corner set.
	var group []int
	switch {
	case sub.me < r:
		group = make([]int, r)
		for i := range group {
			group[i] = i
		}
	case sub.me >= square:
		group = make([]int, r)
		for i := range group {
			group[i] = square + i
		}
	}
	itemsSlot := sub.itemSlot()
	items := *itemsSlot
	for _, h := range dealt {
		items = append(items, item{dst: h.dstLocal, words: sub.arenaHeld(h)})
	}
	*itemsSlot = items
	if len(items) > 0 && group == nil {
		return nil, fmt.Errorf("%s round3: overlap node %d holds corner parcels", st.name, sub.ex.ID())
	}
	received, err := groupRouteUnknown(sub, group, items, st.sub("deliver", kcCornerDeliver))
	if err != nil {
		return nil, fmt.Errorf("%s rounds3-6: %w", st.name, err)
	}
	return heldItemsToParcels(sub, received, "corner deliver")
}

// fullCommOn rebuilds the parent's member universe on top of a (possibly
// virtual) Exchanger. The member lists are identical, only the communication
// surface differs.
func fullCommOn(ex clique.Exchanger, parent *comm, label string) *comm {
	c, err := newComm(ex, label, parent.members)
	if err != nil {
		// Cannot happen: the parent's member list is already validated.
		panic(err)
	}
	return c
}

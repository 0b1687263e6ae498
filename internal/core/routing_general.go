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
//
// Each sub-instance takes its share of load into its own comm (V2's local
// indices are the parent's minus r), and appends what it delivers to the
// parent's result as soon as it finishes, payloads copied into the parent's
// arena — it must not hand engine-backed payloads upward while its
// siblings keep running (see doc.go) — before releasing its comm.
func routeGeneral(c *comm, load []held, st step, router squareRouter) ([]held, error) {
	m := c.size()
	s := isqrt(m)
	square := s * s
	r := m - square // size of V1\V2 and of V2\V1
	if r <= 0 || 2*square < m {
		return nil, fmt.Errorf("core: routeGeneral invariants violated for m=%d", m)
	}

	// Every parcel belongs to exactly one sub-instance.
	const (
		instV1 = iota + 1
		instV2
		instCorner
	)
	instOf := func(h held) int {
		switch {
		case c.me < square && h.dstLocal < square:
			return instV1
		case c.me >= r && h.dstLocal >= r:
			return instV2
		default:
			return instCorner
		}
	}

	out := c.heldSlot()
	// run routes this node's parcels of sub-instance inst on sub (local
	// index = parent's - base) and appends the delivery to out.
	run := func(sub *comm, inst, base int, route func(*comm, []held) ([]held, error)) error {
		defer sub.release()
		mine := sub.heldSlot()
		for _, h := range load {
			if instOf(h) == inst {
				h.dstLocal -= base
				*mine = append(*mine, h)
			}
		}
		res, err := route(sub, *mine)
		if err != nil {
			return err
		}
		for _, h := range res {
			h.dstLocal += base
			h.payload = c.arenaAppend(h.payload...)
			*out = append(*out, h)
		}
		return nil
	}
	programs := make([]func(clique.Exchanger) error, instCorner+1)
	programs[instCorner] = func(ex clique.Exchanger) error {
		return run(fullCommOn(ex, c, c.label+"/corner"), instCorner, 0, func(sub *comm, mine []held) ([]held, error) {
			return routeCorner(sub, r, square, mine, st.sub("corner", kcCorner))
		})
	}
	// onSquare runs router on V1 (base 0) or V2 (base r), the s² members
	// from local index base on.
	onSquare := func(inst, base int, label string, sst step) func(clique.Exchanger) error {
		return func(ex clique.Exchanger) error {
			sub, err := newComm(ex, c.label+label, c.members[base:base+square:base+square])
			if err != nil {
				return err
			}
			return run(sub, inst, base, func(sub *comm, mine []held) ([]held, error) {
				return router.route(sub, mine, sst)
			})
		}
	}
	if c.me < square {
		programs[instV1] = onSquare(instV1, 0, "/v1", st.sub("v1", kcV1))
	}
	if c.me >= r {
		programs[instV2] = onSquare(instV2, r, "/v2", st.sub("v2", kcV2))
	}
	if err := clique.NewMux(c.ex).Run(programs); err != nil {
		return nil, fmt.Errorf("%s: %w", st.name, err)
	}
	return *out, nil
}

// routeCorner is the 6-round boundary procedure from the proof of
// Theorem 3.7. It delivers the parcels whose source lies in V1\V2 and whose
// destination lies in V2\V1, or vice versa. sub spans all m members of the
// enclosing comm (same local indices) on a multiplexed Exchanger.
//
//	Round 1: every corner source spreads its corner parcels, one per node.
//	Round 2: every node forwards the parcels it relays, one per member of the
//	         corner set the parcel is destined to.
//	Rounds 3-6: Corollary 3.4 delivers inside V1\V2 and V2\V1 concurrently.
func routeCorner(sub *comm, r, square int, corner []held, st step) ([]held, error) {
	m := sub.size()

	// Round 1: spread my corner parcels across all nodes.
	for j, h := range corner {
		sub.sendHeld(j%m, h)
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
		group = identityMembers(m)[:r:r]
	case sub.me >= square:
		group = identityMembers(m)[square:]
	}
	if len(dealt) > 0 && group == nil {
		return nil, fmt.Errorf("%s round3: overlap node %d holds corner parcels", st.name, sub.ex.ID())
	}
	received, err := groupRouteUnknown(sub, group, len(dealt),
		func(i int) int { return dealt[i].dstLocal },
		func(i int) { sub.stageHeld(dealt[i]) }, st.sub("deliver", kcCornerDeliver))
	if err != nil {
		return nil, fmt.Errorf("%s rounds3-6: %w", st.name, err)
	}
	return deliveredHeld(sub, received, "corner deliver")
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

// Package baseline provides the comparison algorithms used by experiment E5:
//
//   - NaiveDirectRoute sends every message straight to its destination,
//     respecting the one-message-per-edge-per-round limit; on skewed
//     instances this needs up to n rounds, which is the motivation for the
//     paper's routing algorithm.
//   - RandomizedRoute is a two-phase Valiant-style router in the spirit of
//     the randomized algorithm of Lenzen & Wattenhofer (STOC 2011) that the
//     paper cites as prior work: messages travel through balanced random
//     intermediates and are then delivered, finishing in a small constant
//     number of rounds with high probability.
//   - RandomizedSampleSort is a splitter-sampling sorter in the spirit of
//     Patt-Shamir & Teplitsky (PODC 2011).
//
// These are stand-ins that reproduce the *shape* of the prior randomized
// results (constant rounds, roughly half the deterministic constants), not
// line-by-line reimplementations of those papers; see README.md ("Choosing
// an algorithm") for where they are run.
package baseline

import (
	"fmt"
	"math/rand"
	"sort"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
)

// NaiveDirectRoute delivers messages directly over the source-destination
// edges. One round establishes the number of delivery rounds (the maximum
// multiplicity of any source-destination pair); the messages then flow one
// per edge per round. On uniform instances this is fast, on skewed instances
// it degenerates to Θ(n) rounds.
func NaiveDirectRoute(ex clique.Exchanger, msgs []core.Message) ([]core.Message, error) {
	n := ex.N()
	byDst := make([][]core.Message, n)
	myMax := 0
	for _, m := range msgs {
		if m.Dst < 0 || m.Dst >= n {
			return nil, fmt.Errorf("baseline: message destination %d out of range", m.Dst)
		}
		byDst[m.Dst] = append(byDst[m.Dst], m)
		if len(byDst[m.Dst]) > myMax {
			myMax = len(byDst[m.Dst])
		}
	}

	rounds, err := agreeOnMax(ex, myMax)
	if err != nil {
		return nil, err
	}

	var received []core.Message
	for r := 0; r < rounds; r++ {
		for dst := 0; dst < n; dst++ {
			if r < len(byDst[dst]) {
				m := byDst[dst][r]
				ex.Send(dst, clique.Packet{clique.Word(m.Src), clique.Word(m.Seq), m.Payload})
			}
		}
		inbox, exErr := ex.Exchange()
		if exErr != nil {
			return nil, exErr
		}
		for from, packets := range inbox {
			for _, p := range packets {
				if len(p) < 3 {
					return nil, fmt.Errorf("baseline: malformed direct message")
				}
				received = append(received, core.Message{Src: from, Dst: ex.ID(), Seq: int(p[1]), Payload: p[2]})
			}
		}
	}
	core.SortMessageSlice(received)
	return received, nil
}

// RandomizedRoute is the two-phase randomized router. Phase one spreads each
// node's messages over the clique through a random permutation of
// intermediates (one round, one message per edge). Phase two delivers the
// messages from the intermediates; the number of delivery rounds is the
// maximum number of messages any intermediate holds for a single destination,
// which is a small constant with high probability (the property the
// randomized prior work exploits). One extra round lets all nodes agree on
// that maximum.
func RandomizedRoute(ex clique.Exchanger, msgs []core.Message, seed int64) ([]core.Message, error) {
	n := ex.N()
	if len(msgs) > n {
		return nil, fmt.Errorf("baseline: randomized router handles at most n=%d messages per node, got %d", n, len(msgs))
	}
	rng := rand.New(rand.NewSource(seed ^ int64(ex.ID())*0x5851F42D4C957F2D))

	// Phase 1: send the j-th message (in random order) to intermediate j.
	perm := rng.Perm(len(msgs))
	for j, idx := range perm {
		m := msgs[idx]
		ex.Send(j, clique.Packet{clique.Word(m.Dst), clique.Word(m.Src), clique.Word(m.Seq), m.Payload})
	}
	inbox, err := ex.Exchange()
	if err != nil {
		return nil, err
	}
	byDst := make([][]clique.Packet, n)
	myMax := 0
	for _, packets := range inbox {
		for _, p := range packets {
			if len(p) < 4 {
				return nil, fmt.Errorf("baseline: malformed relayed message")
			}
			dst := int(p[0])
			if dst < 0 || dst >= n {
				return nil, fmt.Errorf("baseline: relayed destination %d out of range", dst)
			}
			// Cloned: these packets are re-sent up to `rounds` barriers later,
			// beyond the engine's payload grace window (clique.PayloadGraceRounds).
			byDst[dst] = append(byDst[dst], p.Clone())
			if len(byDst[dst]) > myMax {
				myMax = len(byDst[dst])
			}
		}
	}

	// Agree on the number of delivery rounds.
	rounds, err := agreeOnMax(ex, myMax)
	if err != nil {
		return nil, err
	}

	var received []core.Message
	for r := 0; r < rounds; r++ {
		for dst := 0; dst < n; dst++ {
			if r < len(byDst[dst]) {
				ex.Send(dst, byDst[dst][r])
			}
		}
		inbox, err = ex.Exchange()
		if err != nil {
			return nil, err
		}
		for _, packets := range inbox {
			for _, p := range packets {
				if len(p) < 4 {
					return nil, fmt.Errorf("baseline: malformed delivered message")
				}
				received = append(received, core.Message{Dst: int(p[0]), Src: int(p[1]), Seq: int(p[2]), Payload: p[3]})
			}
		}
	}
	core.SortMessageSlice(received)
	return received, nil
}

// agreeOnMax broadcasts a local value and returns the maximum over all nodes
// (one round).
func agreeOnMax(ex clique.Exchanger, mine int) (int, error) {
	n := ex.N()
	for to := 0; to < n; to++ {
		ex.Send(to, clique.Packet{clique.Word(mine)})
	}
	inbox, err := ex.Exchange()
	if err != nil {
		return 0, err
	}
	max := 0
	for _, packets := range inbox {
		for _, p := range packets {
			if len(p) > 0 && int(p[0]) > max {
				max = int(p[0])
			}
		}
	}
	return max, nil
}

// RandomizedSampleSort sorts with randomly sampled splitters: a constant
// number of random samples per node is made globally known, the quantiles of
// the samples become splitters, every key is routed to the node owning its
// splitter interval with the randomized router's two-phase scheme, and a
// final rank-based redistribution balances the batches exactly. With high
// probability every phase uses a constant number of rounds.
func RandomizedSampleSort(ex clique.Exchanger, keys []core.Key, seed int64) (*core.SortResult, error) {
	n := ex.N()
	if len(keys) > n {
		return nil, fmt.Errorf("baseline: sample sort handles at most n keys per node, got %d", len(keys))
	}
	rng := rand.New(rand.NewSource(seed ^ int64(ex.ID())*0x517CC1B727220A95))
	const samplesPerNode = 4

	// Round 1-2: make every node's samples globally known (send them to a
	// designated relay, the relay broadcasts a bundle).
	local := append([]core.Key(nil), keys...)
	core.SortKeySlice(local)
	var samples []core.Key
	for i := 0; i < samplesPerNode && len(local) > 0; i++ {
		samples = append(samples, local[rng.Intn(len(local))])
	}
	for i, s := range samples {
		ex.Send((ex.ID()*samplesPerNode+i)%n, clique.Packet{s.Value, clique.Word(s.Origin), clique.Word(s.Seq)})
	}
	inbox, err := ex.Exchange()
	if err != nil {
		return nil, err
	}
	var toRebroadcast []clique.Packet
	for _, packets := range inbox {
		toRebroadcast = append(toRebroadcast, packets...)
	}
	for to := 0; to < n; to++ {
		for _, p := range toRebroadcast {
			ex.Send(to, p)
		}
	}
	inbox, err = ex.Exchange()
	if err != nil {
		return nil, err
	}
	var allSamples []core.Key
	for _, packets := range inbox {
		for _, p := range packets {
			if len(p) >= 3 {
				allSamples = append(allSamples, core.Key{Value: p[0], Origin: int(p[1]), Seq: int(p[2])})
			}
		}
	}
	core.SortKeySlice(allSamples)
	splitters := make([]core.Key, 0, n-1)
	for j := 1; j < n; j++ {
		if len(allSamples) == 0 {
			break
		}
		idx := j * len(allSamples) / n
		if idx >= len(allSamples) {
			idx = len(allSamples) - 1
		}
		splitters = append(splitters, allSamples[idx])
	}

	// Route every key to the node owning its splitter interval, through a
	// random intermediate (two-phase, like RandomizedRoute, with bundling).
	target := func(k core.Key) int {
		j := sort.Search(len(splitters), func(i int) bool { return k.Less(splitters[i]) || k == splitters[i] })
		return j
	}
	perm := rng.Perm(len(local))
	for j, idx := range perm {
		k := local[idx]
		ex.Send(j%n, clique.Packet{clique.Word(target(k)), k.Value, clique.Word(k.Origin), clique.Word(k.Seq)})
	}
	inbox, err = ex.Exchange()
	if err != nil {
		return nil, err
	}
	byDst := make([][]clique.Packet, n)
	myMax := 0
	for _, packets := range inbox {
		for _, p := range packets {
			if len(p) < 4 {
				continue
			}
			dst := int(p[0])
			// Cloned: these packets are re-sent up to `rounds` barriers later,
			// beyond the engine's payload grace window (clique.PayloadGraceRounds).
			byDst[dst] = append(byDst[dst], p.Clone())
			if len(byDst[dst]) > myMax {
				myMax = len(byDst[dst])
			}
		}
	}
	rounds, err := agreeOnMax(ex, myMax)
	if err != nil {
		return nil, err
	}
	var bucket []core.Key
	for r := 0; r < rounds; r++ {
		for dst := 0; dst < n; dst++ {
			if r < len(byDst[dst]) {
				ex.Send(dst, byDst[dst][r])
			}
		}
		inbox, err = ex.Exchange()
		if err != nil {
			return nil, err
		}
		for _, packets := range inbox {
			for _, p := range packets {
				if len(p) >= 4 {
					bucket = append(bucket, core.Key{Value: p[1], Origin: int(p[2]), Seq: int(p[3])})
				}
			}
		}
	}
	core.SortKeySlice(bucket)

	// Make the bucket sizes globally known, then redistribute by global rank
	// (deal round-robin, forward to the rank's owner).
	sizes, err := agreeOnSizes(ex, len(bucket))
	if err != nil {
		return nil, err
	}
	start := 0
	total := 0
	for i, sz := range sizes {
		if i < ex.ID() {
			start += sz
		}
		total += sz
	}
	perNode := (total + n - 1) / n
	if perNode == 0 {
		perNode = 1
	}
	for t, k := range bucket {
		ex.Send((ex.ID()+t)%n, clique.Packet{clique.Word(start + t), k.Value, clique.Word(k.Origin), clique.Word(k.Seq)})
	}
	inbox, err = ex.Exchange()
	if err != nil {
		return nil, err
	}
	type ranked struct {
		rank int
		key  core.Key
	}
	var relayed []ranked
	for _, packets := range inbox {
		for _, p := range packets {
			if len(p) >= 4 {
				relayed = append(relayed, ranked{rank: int(p[0]), key: core.Key{Value: p[1], Origin: int(p[2]), Seq: int(p[3])}})
			}
		}
	}
	for _, rk := range relayed {
		dst := rk.rank / perNode
		if dst >= n {
			dst = n - 1
		}
		ex.Send(dst, clique.Packet{clique.Word(rk.rank), rk.key.Value, clique.Word(rk.key.Origin), clique.Word(rk.key.Seq)})
	}
	inbox, err = ex.Exchange()
	if err != nil {
		return nil, err
	}
	var mine []ranked
	for _, packets := range inbox {
		for _, p := range packets {
			if len(p) >= 4 {
				mine = append(mine, ranked{rank: int(p[0]), key: core.Key{Value: p[1], Origin: int(p[2]), Seq: int(p[3])}})
			}
		}
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].rank < mine[j].rank })
	res := &core.SortResult{Total: total}
	if len(mine) > 0 {
		res.Start = mine[0].rank
	} else {
		res.Start = min(ex.ID()*perNode, total)
	}
	for _, rk := range mine {
		res.Batch = append(res.Batch, rk.key)
	}
	return res, nil
}

// agreeOnSizes broadcasts a local size and returns every node's value.
func agreeOnSizes(ex clique.Exchanger, mine int) ([]int, error) {
	n := ex.N()
	for to := 0; to < n; to++ {
		ex.Send(to, clique.Packet{clique.Word(mine)})
	}
	inbox, err := ex.Exchange()
	if err != nil {
		return nil, err
	}
	sizes := make([]int, n)
	for from, packets := range inbox {
		for _, p := range packets {
			if len(p) > 0 {
				sizes[from] = int(p[0])
			}
		}
	}
	return sizes, nil
}

package core

import (
	"fmt"
	"slices"
	"sort"

	"congestedclique/internal/clique"
)

// SortResult is what each node learns from the sorting algorithm: its batch
// of the globally sorted key sequence and the global rank of the batch's
// first key. Node i receives the i-th batch (Problem 4.1).
type SortResult struct {
	// Batch holds this node's portion of the globally sorted sequence, in
	// ascending order.
	Batch []Key
	// Start is the global rank (0-based) of Batch[0]; consecutive nodes hold
	// consecutive rank ranges.
	Start int
	// Total is the total number of keys in the system.
	Total int
}

// keysPerBundle is the number of keys packed into one routed parcel, the
// paper's "bundling a constant number of keys in each message".
const keysPerBundle = 2

// Sort is the per-node entry point of the deterministic sorting algorithm
// (Algorithm 4 / Theorem 4.5). Every node calls Sort with at most n keys; the
// result gives each node its batch of the global order. The schedule uses 37
// communication rounds:
//
//	Step 2   1 round    send selected keys to the first group
//	Step 3   8 rounds   Algorithm 3 on the selected keys (group 0)
//	Step 4   2 rounds   announce the global delimiters
//	Step 6  16 rounds   route every key to its bucket's group (Theorem 3.7),
//	                    with the bucket-size aggregation multiplexed on top
//	Step 7   8 rounds   Algorithm 3 inside every group concurrently
//	Step 8   2 rounds   redistribute by global rank
func Sort(ex clique.Exchanger, myKeys []Key) (*SortResult, error) {
	label := fmt.Sprintf("sort@r%d", ex.Round())
	c := fullComm(ex, label)
	defer c.release()
	n := c.size()
	if len(myKeys) > n {
		return nil, fmt.Errorf("core: node %d submitted %d keys, Problem 4.1 allows at most n=%d", ex.ID(), len(myKeys), n)
	}
	for _, k := range myKeys {
		if k.Origin != ex.ID() {
			return nil, fmt.Errorf("core: node %d submitted a key with origin %d", ex.ID(), k.Origin)
		}
	}
	if n == 1 {
		return sortAlone(myKeys), nil
	}
	if n < routeTrivialThreshold {
		// Tiny cliques: a single application of Algorithm 3 over the whole
		// clique already sorts (the two-level structure of Algorithm 4 only
		// matters asymptotically).
		return sortTiny(c, myKeys)
	}
	return sortLarge(c, myKeys, label)
}

// sortAlone is the single-node clique's sort: no communication at all.
func sortAlone(myKeys []Key) *SortResult {
	batch := append([]Key(nil), myKeys...)
	sortKeys(batch)
	return &SortResult{Batch: batch, Start: 0, Total: len(batch)}
}

// sortTiny sorts a small clique with one invocation of Algorithm 3 over the
// whole member set, followed by the rank-balanced redistribution.
func sortTiny(c *comm, myKeys []Key) (*SortResult, error) {
	group := make([]int, c.size())
	for i := range group {
		group[i] = i
	}
	res, err := groupSort(c, group, myKeys, c.size(), rootStep("alg3.tiny").sub("tiny", kcSortTiny))
	if err != nil {
		return nil, err
	}
	myOffset := 0
	total := 0
	for i, sz := range res.bucketSizes {
		if i < c.me {
			myOffset += sz
		}
		total += sz
	}
	return dealByRank(c, res.myBucket, myOffset, total, "tiny.rank")
}

// sortLarge is Algorithm 4 proper.
func sortLarge(c *comm, myKeys []Key, label string) (*SortResult, error) {
	st := rootStep("alg4")
	n := c.size()
	s := isqrt(n) // group size (floor of sqrt(n))
	numGroups := ceilDiv(n, s)
	myGroup := c.me / s
	lo := myGroup * s
	myGroupMembers := make([]int, min(lo+s, n)-lo)
	for i := range myGroupMembers {
		myGroupMembers[i] = lo + i
	}

	// Step 1 (local): sort the input and select every sigma1-th key.
	input := append([]Key(nil), myKeys...)
	sortKeys(input)
	sigma1 := ceilDiv(n, s)
	selected := make([]Key, 0, len(input)/sigma1+1)
	for i := sigma1 - 1; i < len(input); i += sigma1 {
		selected = append(selected, input[i])
	}

	// Step 2 (1 round): the i-th selected key goes to node i (all of which
	// belong to the first group because at most s keys are selected).
	for i, k := range selected {
		c.send(i, k.Value, clique.Word(k.Origin), clique.Word(k.Seq))
	}
	rx, err := c.exchange()
	if err != nil {
		return nil, fmt.Errorf("alg4 step2: %w", err)
	}
	var samples []Key
	for _, p := range rx.all() {
		k, decErr := decodeKey(p)
		if decErr != nil {
			return nil, fmt.Errorf("alg4 step2: %w", decErr)
		}
		samples = append(samples, k)
	}

	// Step 3 (8 rounds): Algorithm 3 sorts the samples within group 0; all
	// other nodes participate as relays.
	var sampleGroup []int
	if myGroup == 0 {
		sampleGroup = myGroupMembers
	}
	sampleSort, err := groupSort(c, sampleGroup, samples, n, st.sub("s3", kcSortS3))
	if err != nil {
		return nil, fmt.Errorf("alg4 step3: %w", err)
	}

	// Step 4 (2 rounds): pick numGroups-1 delimiters (the g-quantiles of the
	// sorted samples) and make them globally known.
	heldDelims := make([]clique.Packet, numGroups-1)
	if myGroup == 0 {
		totalSamples := 0
		myOffset := 0
		for i, sz := range sampleSort.bucketSizes {
			if i < indexIn(sampleGroup, c.me) {
				myOffset += sz
			}
			totalSamples += sz
		}
		for k := 1; k < numGroups; k++ {
			rank := ceilDiv(k*totalSamples, numGroups) - 1 // 0-based rank of the k-th delimiter
			if rank < 0 {
				continue
			}
			if rank >= myOffset && rank < myOffset+len(sampleSort.myBucket) {
				heldDelims[k-1] = clique.Packet(encodeKey(sampleSort.myBucket[rank-myOffset]))
			}
		}
	}
	delimPackets, err := spreadBroadcast(c, heldDelims, numGroups-1)
	if err != nil {
		return nil, fmt.Errorf("alg4 step4: %w", err)
	}
	delims := make([]Key, 0, numGroups-1)
	for k := 0; k < numGroups-1; k++ {
		p := delimPackets[k]
		if p == nil {
			// Fewer samples than groups: missing delimiters collapse to the
			// previous one, which simply leaves some buckets empty.
			if len(delims) > 0 {
				delims = append(delims, delims[len(delims)-1])
				continue
			}
			delims = append(delims, Key{Value: -1 << 62})
			continue
		}
		k, decErr := decodeKey(p)
		if decErr != nil {
			return nil, fmt.Errorf("alg4 step4: %w", decErr)
		}
		delims = append(delims, k)
	}

	// Step 5 (local): split my input into buckets by the delimiters. Bucket j
	// receives the keys in (delims[j-1], delims[j]]; the last bucket is
	// unbounded above. The input is sorted and the delimiters are
	// non-decreasing (quantiles of a sorted sample, with missing slots
	// collapsing onto their predecessor), so bucket j is the contiguous range
	// input[bstart[j]:bstart[j+1]] found by binary search.
	bstart := make([]int, numGroups+1)
	for j := 1; j < numGroups; j++ {
		d := delims[j-1]
		bstart[j] = sort.Search(len(input), func(i int) bool { return d.Less(input[i]) })
	}
	bstart[numGroups] = len(input)

	// Step 6 (16 rounds): route every key to its bucket's group, spreading
	// each bucket evenly over the group members; concurrently aggregate the
	// global bucket sizes (2 rounds) on the multiplexer.
	var routedKeys []Key
	bucketSizes := make([]int64, numGroups)
	err = clique.NewMux(c.ex).Run([]func(clique.Exchanger) error{
		1: func(ex clique.Exchanger) error {
			sub := fullCommOn(ex, c, label+"/s6")
			// routedKeys are value copies, so the sub-instance's buffers can
			// go back to the pool as soon as the program ends.
			defer sub.release()
			parcels := buildBucketParcels(sub, input, bstart, s, numGroups)
			received, rErr := routeParcels(sub, parcels, st.sub("s6.route", kcSortS6), routeSquare)
			if rErr != nil {
				return rErr
			}
			routedKeys, rErr = unbundleKeys(received)
			return rErr
		},
		2: func(ex clique.Exchanger) error {
			sub := fullCommOn(ex, c, label+"/s6agg")
			defer sub.release()
			contributions := make([]int64, numGroups)
			for j := 0; j < numGroups; j++ {
				contributions[j] = int64(bstart[j+1] - bstart[j])
			}
			sums, aErr := aggregateAndBroadcast(sub, 0, contributions, numGroups)
			if aErr != nil {
				return aErr
			}
			copy(bucketSizes, sums)
			return nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("alg4 step6: %w", err)
	}

	// Step 7 (8 rounds): Algorithm 3 inside every group concurrently sorts
	// the keys of that group's bucket.
	bucketSort, err := groupSort(c, myGroupMembers, routedKeys, 4*n, st.sub("s7", kcSortS7))
	if err != nil {
		return nil, fmt.Errorf("alg4 step7: %w", err)
	}

	// Step 8 (2 rounds): every node knows the global rank of each key it
	// holds (bucket offset + within-group offset + local position), so the
	// keys can be dealt to relays and forwarded to their final nodes.
	total := 0
	myStartRank := 0
	for j := 0; j < numGroups; j++ {
		if j < myGroup {
			myStartRank += int(bucketSizes[j])
		}
		total += int(bucketSizes[j])
	}
	for i, sz := range bucketSort.bucketSizes {
		if i < indexIn(myGroupMembers, c.me) {
			myStartRank += sz
		}
	}
	return dealByRank(c, bucketSort.myBucket, myStartRank, total, "alg4.s8")
}

// indexIn returns the position of x in the sorted slice members, or -1.
func indexIn(members []int, x int) int {
	for i, m := range members {
		if m == x {
			return i
		}
	}
	return -1
}

// buildBucketParcels bundles the keys of every bucket into parcels addressed
// to the members of the bucket's group, spreading each bucket evenly over the
// group and rotating the start member by the sender's identifier so the
// rounding excess does not pile up on the same member. Bucket j is the
// contiguous input range [bstart[j], bstart[j+1]) and its group occupies the
// nodes [j*s, min((j+1)*s, n)): key t of the bucket goes to member slot
// (t+me) mod w, so a slot's keys are the stride-w subsequence starting at
// (slot-me) mod w — no per-member staging is needed. The parcel payloads live
// in the comm's arena.
func buildBucketParcels(c *comm, input []Key, bstart []int, s, numGroups int) []parcel {
	n := c.size()
	me := c.me

	// Count the parcels so the slice is allocated exactly once.
	total := 0
	for j := 0; j < numGroups; j++ {
		cnt := bstart[j+1] - bstart[j]
		if cnt == 0 {
			continue
		}
		lo := j * s
		w := min(lo+s, n) - lo
		for slot := 0; slot < w; slot++ {
			t0 := ((slot-me)%w + w) % w
			if t0 < cnt {
				total += ceilDiv(ceilDiv(cnt-t0, w), keysPerBundle)
			}
		}
	}

	parcels := make([]parcel, 0, total)
	src := c.ex.ID()
	for j := 0; j < numGroups; j++ {
		b0 := bstart[j]
		cnt := bstart[j+1] - b0
		if cnt == 0 {
			continue
		}
		lo := j * s
		w := min(lo+s, n) - lo
		for slot := 0; slot < w; slot++ {
			t0 := ((slot-me)%w + w) % w
			for t := t0; t < cnt; t += w * keysPerBundle {
				bundled := ceilDiv(cnt-t, w)
				if bundled > keysPerBundle {
					bundled = keysPerBundle
				}
				mark := c.arenaMark()
				c.arena = append(c.arena, clique.Word(bundled))
				for u := 0; u < bundled; u++ {
					k := input[b0+t+u*w]
					c.arena = append(c.arena, k.Value, clique.Word(k.Origin), clique.Word(k.Seq))
				}
				parcels = append(parcels, parcel{Src: src, Dst: lo + slot, Words: c.arenaView(mark)})
			}
		}
	}
	return parcels
}

// unbundleKeys decodes the key bundles produced by buildBucketParcels. It
// validates and counts in a first sweep so the key slice is allocated exactly
// once.
func unbundleKeys(parcels []parcel) ([]Key, error) {
	total := 0
	for _, p := range parcels {
		if len(p.Words) < 1 {
			return nil, fmt.Errorf("core: empty key bundle")
		}
		count := int(p.Words[0])
		if count < 0 || len(p.Words) < 1+count*keyWords {
			return nil, fmt.Errorf("core: malformed key bundle (%d keys, %d words)", count, len(p.Words))
		}
		total += count
	}
	keys := make([]Key, 0, total)
	for _, p := range parcels {
		count := int(p.Words[0])
		for i := 0; i < count; i++ {
			k, err := decodeKey(p.Words[1+i*keyWords:])
			if err != nil {
				return nil, err
			}
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// rankedKey pairs a key with its global rank during the final redistribution.
type rankedKey struct {
	rank int
	key  Key
}

// dealByRank implements the final redistribution (Algorithm 3/4, Step 8):
// this node holds a contiguous run of the globally sorted sequence starting
// at global rank start; afterwards node i holds ranks [i*perNode,
// (i+1)*perNode). Because every holder knows its keys' global ranks, two
// rounds suffice: keys are dealt round-robin over all nodes (with their rank
// attached) and every relay forwards each key to its final node.
func dealByRank(c *comm, run []Key, start, total int, context string) (*SortResult, error) {
	c.rankScratch = rankRun(c.rankScratch[:0], run, start)
	return dealRanked(c, c.rankScratch, total, context)
}

// dealRanked is dealByRank for keys whose global ranks need not be contiguous
// (the small-domain sorting arm, where a node's keys interleave with every
// other node's in the global order): the caller supplies each key's exact
// rank. It drives the redistribution's three pieces — stageRankedBundles,
// forwardByRank, assembleBatch, which the presorted step program
// (sparse_sort.go) drives from its step inbox — around the comm's exchanges.
func dealRanked(c *comm, ranked []rankedKey, total int, context string) (*SortResult, error) {
	n := c.size()
	perNode := ranksPerNode(total, n)
	stageRankedBundles(c.stager, c.me, n, ranked)
	rx, err := c.exchange()
	if err != nil {
		return nil, fmt.Errorf("%s deal: %w", context, err)
	}
	if err := forwardByRank(c.stager, rx.all(), perNode, n, context); err != nil {
		return nil, err
	}
	rx, err = c.exchange()
	if err != nil {
		return nil, fmt.Errorf("%s deliver: %w", context, err)
	}
	c.rankScratch = slices.Grow(c.rankScratch[:0], len(rx.all()))
	return assembleBatch(rx.all(), c.rankScratch, c.ex.ID(), perNode, total, context)
}

// ranksPerNode is the width of every node's rank range in the balanced
// output: node i ends up with ranks [i*perNode, (i+1)*perNode).
func ranksPerNode(total, n int) int {
	return max(ceilDiv(total, n), 1)
}

// rankRun appends run to buf with the consecutive global ranks start,
// start+1, ... attached.
func rankRun(buf []rankedKey, run []Key, start int) []rankedKey {
	for t, k := range run {
		buf = append(buf, rankedKey{rank: start + t, key: k})
	}
	return buf
}

// stageRankedBundles stages round 1 of the redistribution for node me: its
// (rank,key) pairs, bundled, dealt round-robin over all n nodes.
func stageRankedBundles(s *stager, me, n int, ranked []rankedKey) {
	for lo, packetIdx := 0, 0; lo < len(ranked); lo, packetIdx = lo+keysPerBundle, packetIdx+1 {
		hi := min(lo+keysPerBundle, len(ranked))
		s.stageOpen((me + packetIdx) % n)
		s.stageWords(clique.Word(hi - lo))
		for _, rk := range ranked[lo:hi] {
			s.stageWords(clique.Word(rk.rank), rk.key.Value, clique.Word(rk.key.Origin), clique.Word(rk.key.Seq))
		}
		s.stageClose()
	}
}

// forwardByRank stages round 2: every key of the received ranked bundles
// travels on, as a [rank, key] record, to the node owning its rank range.
func forwardByRank(s *stager, bundles [][]clique.Word, perNode, n int, context string) error {
	const recWords = 1 + keyWords
	for _, p := range bundles {
		if len(p) < 1 {
			continue
		}
		count := int(p[0])
		if count < 0 || len(p) < 1+count*recWords {
			return fmt.Errorf("%s deal: malformed ranked bundle", context)
		}
		for i := 0; i < count; i++ {
			rec := p[1+i*recWords : 1+(i+1)*recWords]
			s.send(min(int(rec[0])/perNode, n-1), rec...)
		}
	}
	return nil
}

// assembleBatch finishes the redistribution at node id: the received [rank,
// key] records, ordered by rank, must form one contiguous run — the node's
// batch. mine is scratch with room for one entry per record.
func assembleBatch(records [][]clique.Word, mine []rankedKey, id, perNode, total int, context string) (*SortResult, error) {
	for _, p := range records {
		if len(p) < 1+keyWords {
			continue
		}
		k, decErr := decodeKey(p[1:])
		if decErr != nil {
			return nil, fmt.Errorf("%s deliver: %w", context, decErr)
		}
		mine = append(mine, rankedKey{rank: int(p[0]), key: k})
	}
	slices.SortFunc(mine, func(a, b rankedKey) int { return a.rank - b.rank })

	res := &SortResult{Total: total}
	if len(mine) > 0 {
		res.Start = mine[0].rank
		res.Batch = make([]Key, 0, len(mine))
	} else {
		res.Start = min(id*perNode, total)
	}
	for i, rk := range mine {
		if i > 0 && mine[i-1].rank+1 != rk.rank {
			return nil, fmt.Errorf("%s deliver: node %d received non-contiguous ranks %d and %d", context, id, mine[i-1].rank, rk.rank)
		}
		res.Batch = append(res.Batch, rk.key)
	}
	return res, nil
}

package core

import (
	"fmt"
	"sort"

	"congestedclique/internal/clique"
)

// groupSortResult is what a group member learns from Algorithm 3: its bucket
// of the group's sorted key sequence, the sizes of all buckets (so global
// offsets inside the group are known to every member), and the two
// announcements that fixed the buckets — the delimiters and the
// bucket-count matrix (counts[a][j]: keys member a sent to bucket j).
type groupSortResult struct {
	myBucket    []Key
	bucketSizes []int
	delimiters  []Key
	counts      [][]int
}

// groupSort implements Algorithm 3: the members of one group sort the union
// of their keys (myKeys, which it sorts in place: callers hand it a slice
// they own) using only edges with at least one endpoint in the group
// (plus the shared relays of Corollary 3.3, which is what allows disjoint
// groups to run concurrently). Every member of the comm must call groupSort
// in the same round; nodes with a nil group participate as relays only.
//
// capacity is an upper bound on the number of keys any group member holds
// (the paper's "2n"); it determines the sampling stride. The round budget is
// 8: 2 (announce samples) + 2 (announce bucket counts) + 4 (Corollary 3.4
// key exchange). The paper's Step 8 (rebalancing to exactly equal batches) is
// provided separately by dealByRank, matching how Algorithm 4 skips it.
//
// A replay passes the delimiters and count matrix an earlier execution on
// the same keys announced (knownCounts non-nil, at every member of the comm
// alike): both announcements are skipped — 4 rounds — and each member
// checks its own count row against the known matrix before sending a key.
// The known matrix also fixes the key exchange's bundle demand, so its
// Corollary 3.4 count announcement is skipped as well — 2 more rounds — and
// the exchange is Corollary 3.3 alone (2 rounds instead of 8 in all).
func groupSort(c *comm, group []int, myKeys []Key, capacity int, st step, knownDelims []Key, knownCounts [][]int) (*groupSortResult, error) {
	w := len(group)

	var (
		input []Key
		myIdx = -1
	)
	if w > 0 {
		if len(myKeys) > capacity {
			return nil, fmt.Errorf("core: groupSort(%s): node %d holds %d keys, capacity %d", st.name, c.ex.ID(), len(myKeys), capacity)
		}
		myIdx = indexIn(group, c.me)
		if myIdx < 0 {
			return nil, fmt.Errorf("core: groupSort(%s): node %d not in its group", st.name, c.ex.ID())
		}
		input = myKeys
		sortKeys(input)
	}
	delims := knownDelims
	if knownCounts == nil {
		var err error
		if delims, err = groupDelimiters(c, group, input, capacity, st); err != nil {
			return nil, err
		}
	}

	var bstart []int
	if w > 0 {
		// Step 4 (local): split my input into buckets by the delimiters; the
		// last bucket is unbounded above. The input is sorted and the
		// delimiters are non-decreasing, so bucket j is the contiguous range
		// input[bstart[j]:bstart[j+1]] found by binary search (keys above the
		// last delimiter fall into bucket len(delims)).
		bstart = c.intVec(w + 1)
		for j := 1; j < w; j++ {
			if j-1 < len(delims) {
				d := delims[j-1]
				bstart[j] = sort.Search(len(input), func(i int) bool { return d.Less(input[i]) })
			} else {
				bstart[j] = len(input)
			}
		}
		bstart[w] = len(input)
	}

	// Step 5 (2 rounds): announce the bucket counts.
	var counts []int
	if w > 0 {
		counts = c.intVec(w)
		for j := 0; j < w; j++ {
			counts[j] = bstart[j+1] - bstart[j]
		}
	}
	allCounts := knownCounts
	var err error
	switch {
	case allCounts == nil:
		if allCounts, err = announceIntVector(c, group, counts, st.sub("counts", kcCounts)); err != nil {
			return nil, fmt.Errorf("core: groupSort(%s) step5: %w", st.name, err)
		}
	case w > 0:
		if err = checkScheduleRow(allCounts, myIdx, counts); err != nil {
			return nil, c.abandon(fmt.Errorf("core: groupSort(%s) step5: %w", st.name, err))
		}
	}

	// Step 6 (4 rounds): send bucket j to the j-th group member, bundling a
	// constant number of keys per message (Corollary 3.4). Bucket j's
	// bundles are the units firstBundle[j] to firstBundle[j+1]-1, each staged
	// straight from the sorted input as [count, keys...].
	units := 0
	var firstBundle []int
	if w > 0 {
		firstBundle = c.intVec(w + 1)
		for j := 0; j < w; j++ {
			firstBundle[j+1] = firstBundle[j] + ceilDiv(counts[j], keysPerBundle)
		}
		units = firstBundle[w]
	}
	bucketOf := func(i int) int { return sort.SearchInts(firstBundle, i+1) - 1 }
	dstOf := func(i int) int { return group[bucketOf(i)] }
	stage := func(i int) {
		j := bucketOf(i)
		lo := bstart[j] + (i-firstBundle[j])*keysPerBundle
		hi := min(lo+keysPerBundle, bstart[j+1])
		c.stageWords(clique.Word(hi - lo))
		for _, k := range input[lo:hi] {
			c.stageWords(k.Value, clique.Word(k.Origin), clique.Word(k.Seq))
		}
	}
	var received [][]clique.Word
	if knownCounts == nil {
		received, err = groupRouteUnknown(c, group, units, dstOf, stage, st.sub("exchange", kcExchange))
	} else {
		// The demand groupRouteUnknown would announce: member a holds
		// ⌈counts[a][b]/keysPerBundle⌉ bundles for member b. The step keys
		// are groupRouteUnknown's, so the colorings the announcing run
		// seeded are found.
		var demand [][]int
		if w > 0 {
			demand = c.intMatrix(w, w)
			for a, row := range allCounts {
				for b, cnt := range row {
					demand[a][b] = ceilDiv(cnt, keysPerBundle)
				}
			}
		}
		received, err = relayRoute(c, group, demand, units, dstOf, stage, st.sub("exchange", kcExchange).sub("deliver", kcDeliver), false)
	}
	if err != nil {
		return nil, fmt.Errorf("core: groupSort(%s) step6: %w", st.name, err)
	}

	if w == 0 {
		return &groupSortResult{}, nil
	}

	// Step 7 (local): sort the received keys; they form my bucket of the
	// group-wide order. The announced counts already pin the bucket size, so
	// the bucket is carved exactly once.
	bucketSizes := c.intVec(w)
	for j := 0; j < w; j++ {
		for a := 0; a < w; a++ {
			bucketSizes[j] += allCounts[a][j]
		}
	}
	myBucket := c.keyVec(bucketSizes[myIdx])
	for _, p := range received {
		if len(p) < 1 {
			return nil, fmt.Errorf("core: groupSort(%s) step7: empty bundle", st.name)
		}
		count := int(p[0])
		if count < 0 || len(p) < 1+count*keyWords {
			return nil, fmt.Errorf("core: groupSort(%s) step7: malformed bundle", st.name)
		}
		for i := 0; i < count; i++ {
			k, decErr := decodeKey(p[1+i*keyWords:])
			if decErr != nil {
				return nil, fmt.Errorf("core: groupSort(%s) step7: %w", st.name, decErr)
			}
			myBucket = append(myBucket, k)
		}
	}
	sortKeys(myBucket)
	if bucketSizes[myIdx] != len(myBucket) {
		return nil, fmt.Errorf("core: groupSort(%s): node %d received %d keys, announced bucket size %d",
			st.name, c.ex.ID(), len(myBucket), bucketSizes[myIdx])
	}
	return &groupSortResult{myBucket: myBucket, bucketSizes: bucketSizes, delimiters: delims, counts: allCounts}, nil
}

// groupDelimiters is Algorithm 3's Steps 1–3 on a member's sorted input
// (nil at relays): select every sigma-th key, announce the selections to
// the whole group (2 rounds), and pick the w-quantiles of the merged
// samples as delimiters. Relays return nil.
func groupDelimiters(c *comm, group []int, input []Key, capacity int, st step) ([]Key, error) {
	w := len(group)

	// Step 1 (local): select every sigma-th key. The stride is chosen so
	// that the group-wide number of samples is at most m, keeping the
	// announcement inside the Corollary 3.3 budget (the paper's
	// sigma = 2*sqrt(n) for w = sqrt(n), capacity = 2n, m = n).
	var (
		maxSel   int
		selected []Key
	)
	if w > 0 {
		sigma := max(ceilDiv(w*capacity, c.size()), 1)
		maxSel = ceilDiv(capacity, sigma)
		selected = c.keyVec(len(input)/sigma + 1)
		for i := sigma - 1; i < len(input); i += sigma {
			selected = append(selected, input[i])
		}
	}

	// Step 2 (2 rounds): announce the selected keys to every group member.
	// Payload: [valid, value, origin, seq], padded to maxSel entries so the
	// demand is uniform.
	announced, err := announceFixed(c, group, maxSel, func(t int) {
		if t < len(selected) {
			k := selected[t]
			c.stageWords(1, k.Value, clique.Word(k.Origin), clique.Word(k.Seq))
		} else {
			c.stageWords(0, 0, 0, 0)
		}
	}, st.sub("samples", kcSamples))
	if err != nil {
		return nil, fmt.Errorf("core: groupSort(%s) step2: %w", st.name, err)
	}
	if w == 0 {
		return nil, nil
	}

	// Step 3 (local): merge the samples and pick the w-quantiles as
	// delimiters.
	samples := c.keyVec(w * maxSel)
	for _, perSender := range announced {
		for _, p := range perSender {
			if len(p) < 1+keyWords || p[0] != 1 {
				continue
			}
			k, decErr := decodeKey(p[1:])
			if decErr != nil {
				return nil, fmt.Errorf("core: groupSort(%s) step3: %w", st.name, decErr)
			}
			samples = append(samples, k)
		}
	}
	sortKeys(samples)
	delims := c.keyVec(w - 1)
	for j := 1; j < w; j++ {
		if len(samples) == 0 {
			break
		}
		rank := ceilDiv(j*len(samples), w) - 1
		if rank < 0 {
			rank = 0
		}
		delims = append(delims, samples[rank])
	}
	return delims, nil
}

package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

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

// sortLabel and smallSortLabel prefix the labels of every comm a sort runs
// (Algorithm 4 with its sub-instances, the small-domain arm), followed by
// the round the sort is named by.
const (
	sortLabel      = "sort@r"
	smallSortLabel = "smallsort@r"
)

// SortShared reports whether the shared computation keyed k belongs to a
// sort rather than to what ran after it in the same run (a corollary's
// epilogue): what a sort's plan-cache entry keeps of the run's
// clique.SharedSnapshot, since only a sort hit can find it again.
func SortShared(k clique.SharedKey) bool {
	return strings.HasPrefix(k.Label, sortLabel) || strings.HasPrefix(k.Label, smallSortLabel)
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
	return sortWith(ex, myKeys, ex.Round(), squareRouter{}, nil, nil)
}

// LowComputeSort is Algorithm 4 with Theorem 5.4 as Step 6's router: Step 6
// only needs a router that takes and delivers at most n parcels per node, so
// the 10-round low-computation router replaces Theorem 3.7's 16 and the
// schedule takes 1+8+2+10+8+2 = 31 rounds. The batches are Sort's, bit for
// bit: either router delivers every node the same keys at Step 6, and the
// steps after it do not depend on their arrival order. Non-square n runs
// Theorem 5.4 on routeGeneral's V1/V2 instances, as LowComputeRoute does.
func LowComputeSort(ex clique.Exchanger, myKeys []Key) (*SortResult, error) {
	return lowComputeSort(ex, myKeys, ex.Round(), nil, nil)
}

// lowComputeSort is LowComputeSort with the round its comms are labelled by
// (as in lowComputeRoute) and an optional cached schedule to replay or an
// empty one to capture (see SortSchedule).
func lowComputeSort(ex clique.Exchanger, myKeys []Key, at int, sched, capture *SortSchedule) (*SortResult, error) {
	square := squareRouter{lowCompute: true, sched: sched.route(), capture: capture.route()}
	return sortWith(ex, myKeys, at, square, sched, capture)
}

// sortWith is the body shared by Sort and LowComputeSort: input validation,
// the single-node and tiny-clique shortcuts, and Algorithm 4 with square as
// Step 6's router, on comms labelled by round at. sched and capture reach
// only Algorithm 4 proper: the shortcuts have nothing to skip.
func sortWith(ex clique.Exchanger, myKeys []Key, at int, square squareRouter, sched, capture *SortSchedule) (*SortResult, error) {
	label := sortLabel + strconv.Itoa(at)
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
	return sortLarge(c, myKeys, label, square, sched, capture)
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
	group := identityMembers(c.size()) // every local index
	// groupSort sorts in place, and the caller's row is borrowed.
	keys := append(c.keyVec(len(myKeys)), myKeys...)
	res, err := groupSort(c, group, keys, c.size(), rootStep("alg3.tiny").sub("tiny", kcSortTiny), nil, nil)
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

// SortSchedule is what the nodes learned in one execution of Algorithm 4
// from announcements about the keys they held: the Step 4 delimiters, each
// node's Step 5 bucket counts, Step 6's Theorem 5.4 announcement schedule,
// and every group's Step 7 Algorithm 3 delimiters and count matrix. A
// schedule captured from one execution drives a later execution of the
// *same* instance from Step 5 on: Steps 2–4 (11 rounds), Step 6's
// bucket-size aggregation and its router's count announcement, and Step 7's
// sample, count and bundle-count announcements disappear, so the replay
// takes 8+2+2 = 12 rounds at square n and 10+2+2 = 14 at non-square n,
// against the 31 of LowComputeSort.
//
// The skip is honest in the model because each node reuses only what it
// learned itself in the captured execution — the delimiters and bucket
// sizes were broadcast to every node, its count row is its own, and its
// group announced the S5 matrix, the Step 7 samples and the Step 7 count
// matrix to it (whose entries fix the bundle counts as well) — and its row
// check (hit.go) tells it that it holds the row it learned them on. A
// replay still checks the schedule against the instance: before Step 6
// sends a word each node compares its bucket counts with its cached row,
// Step 6's router checks its S5 row and Step 7 its Algorithm 3 count row
// (checkScheduleRow; a member that rejects its Step 7 row abandons the run,
// so it fails everywhere), and after Step 7 the Algorithm 3 bucket sizes of
// every group must sum to the cached size of the group's bucket. A schedule
// that does not match the instance yields an error, never a misplaced key.
type SortSchedule struct {
	// Delims are the Step 4 delimiters (numGroups-1 keys).
	Delims []Key
	// Counts[i][j] is node i's Step 5 count: its keys in bucket j.
	Counts [][]int
	// Route is Step 6's Theorem 5.4 announcement schedule; nil at
	// non-square n, whose V1/V2 routers have none to capture.
	Route *RouteSchedule
	// S7Delims[g] and S7Counts[g] are group g's Step 7 Algorithm 3
	// delimiters and bucket-count matrix (S7Counts[g][a][j]: keys member a
	// sent to member j).
	S7Delims [][]Key
	S7Counts [][][]int

	// sizes[j] is the Step 6 aggregation's global size of bucket j, the
	// column sums of Counts; seal derives it.
	sizes []int
}

// newSortScheduleCapture returns an empty schedule ready to be filled by an
// Algorithm 4 execution on a clique of n nodes, or nil when n takes the
// tiny-clique shortcut, which has no Steps 2–4 to skip.
func newSortScheduleCapture(n int) *SortSchedule {
	if n < routeTrivialThreshold {
		return nil
	}
	numGroups := ceilDiv(n, isqrt(n))
	return &SortSchedule{
		Counts:   make([][]int, n),
		Route:    NewRouteScheduleCapture(n),
		S7Delims: make([][]Key, numGroups),
		S7Counts: make([][][]int, numGroups),
	}
}

// seal reports whether every slot of a capture was filled (an errored run
// leaves gaps; such captures are discarded, not stored) and derives the
// bucket sizes a replay reads.
func (ss *SortSchedule) seal() bool {
	if ss == nil || ss.Delims == nil || (ss.Route != nil && !ss.Route.complete()) {
		return false
	}
	numGroups := len(ss.Delims) + 1
	if len(ss.S7Delims) != numGroups || len(ss.S7Counts) != numGroups {
		return false
	}
	for _, counts := range ss.S7Counts {
		if counts == nil {
			return false
		}
	}
	ss.sizes = make([]int, numGroups)
	for _, row := range ss.Counts {
		if len(row) != numGroups {
			return false
		}
		for j, v := range row {
			ss.sizes[j] += v
		}
	}
	return true
}

// route returns the schedule's Step 6 router schedule (nil-safe).
func (ss *SortSchedule) route() *RouteSchedule {
	if ss == nil {
		return nil
	}
	return ss.Route
}

// sortLarge is Algorithm 4 proper, with square as Step 6's router. With a
// capture target the nodes record the announcements they learned; with a
// cached schedule the run starts at Step 5 (see SortSchedule).
func sortLarge(c *comm, myKeys []Key, label string, square squareRouter, sched, capture *SortSchedule) (*SortResult, error) {
	st := rootStep("alg4")
	n := c.size()
	s := isqrt(n) // group size (floor of sqrt(n))
	numGroups := ceilDiv(n, s)
	myGroup := c.me / s
	lo := myGroup * s
	myGroupMembers := c.intVec(min(lo+s, n) - lo)
	for i := range myGroupMembers {
		myGroupMembers[i] = lo + i
	}

	// Step 1 (local): sort the input. Every key set the steps below build
	// (samples, delimiters, routed keys, the group's bucket) is carved from
	// c's key arena and dies with c; what a capture keeps is cloned.
	input := append(c.keyVec(len(myKeys)), myKeys...)
	sortKeys(input)

	var (
		delims []Key
		err    error
	)
	if sched != nil {
		// seal tied every per-group table to len(sizes) groups.
		if len(sched.sizes) != numGroups || len(sched.Counts) != n {
			return nil, fmt.Errorf("alg4: cached sort schedule shape mismatch")
		}
		delims = sched.Delims
	} else if delims, err = sortDelimiters(c, input, s, myGroup, myGroupMembers, numGroups, st); err != nil {
		return nil, err
	}

	// Step 5 (local): split my input into buckets by the delimiters. Bucket j
	// receives the keys in (delims[j-1], delims[j]]; the last bucket is
	// unbounded above. The input is sorted and the delimiters are
	// non-decreasing (quantiles of a sorted sample, with missing slots
	// collapsing onto their predecessor), so bucket j is the contiguous range
	// input[bstart[j]:bstart[j+1]] found by binary search.
	bstart := c.intVec(numGroups + 1)
	for j := 1; j < numGroups; j++ {
		d := delims[j-1]
		bstart[j] = sort.Search(len(input), func(i int) bool { return d.Less(input[i]) })
	}
	bstart[numGroups] = len(input)
	counts := c.intVec(numGroups)
	for j := range counts {
		counts[j] = bstart[j+1] - bstart[j]
	}

	// Step 6 (16 rounds under Theorem 3.7, 10 under Theorem 5.4): route
	// every key to its bucket's group, spreading each bucket evenly over the
	// group members; concurrently aggregate the global bucket sizes
	// (2 rounds) on the multiplexer. A replay knows the sizes already and
	// routes alone, with the router's announcement replayed as well.
	var routedKeys []Key
	bucketSizes := c.intVec(numGroups)
	route := func(ex clique.Exchanger) error {
		var rErr error
		routedKeys, rErr = routeBuckets(ex, c, label, input, bstart, s, numGroups, st, square)
		return rErr
	}
	if sched != nil {
		if err = checkScheduleRow(sched.Counts, c.me, counts); err != nil {
			return nil, fmt.Errorf("alg4 step5: %w", err)
		}
		copy(bucketSizes, sched.sizes)
		err = route(c.ex)
	} else {
		if capture != nil {
			if c.me == 0 {
				capture.Delims = slices.Clone(delims)
			}
			capture.Counts[c.me] = slices.Clone(counts)
		}
		err = clique.NewMux(c.ex).Run([]func(clique.Exchanger) error{
			1: route,
			2: func(ex clique.Exchanger) error {
				sub := fullCommOn(ex, c, label+"/s6agg")
				defer sub.release()
				sums, aErr := aggregateAndBroadcast(sub, 0, counts, numGroups)
				if aErr != nil {
					return aErr
				}
				copy(bucketSizes, sums)
				return nil
			},
		})
	}
	if err != nil {
		return nil, fmt.Errorf("alg4 step6: %w", err)
	}

	// Step 7 (8 rounds, 2 on a replay): Algorithm 3 inside every group
	// concurrently sorts the keys of that group's bucket.
	var (
		s7Delims []Key
		s7Counts [][]int
	)
	if sched != nil {
		s7Delims, s7Counts = sched.S7Delims[myGroup], sched.S7Counts[myGroup]
	}
	bucketSort, err := groupSort(c, myGroupMembers, routedKeys, 4*n, st.sub("s7", kcSortS7), s7Delims, s7Counts)
	if err != nil {
		return nil, fmt.Errorf("alg4 step7: %w", err)
	}
	if capture != nil && c.me == lo {
		capture.S7Delims[myGroup] = slices.Clone(bucketSort.delimiters)
		capture.S7Counts[myGroup] = cloneIntMatrix(bucketSort.counts)
	}
	if sched != nil {
		got := 0
		for _, sz := range bucketSort.bucketSizes {
			got += sz
		}
		if got != bucketSizes[myGroup] {
			return nil, fmt.Errorf("alg4 step7: group %d sorted %d keys, the cached schedule says %d", myGroup, got, bucketSizes[myGroup])
		}
	}

	// Step 8 (2 rounds): every node knows the global rank of each key it
	// holds (bucket offset + within-group offset + local position), so the
	// keys can be dealt to relays and forwarded to their final nodes.
	total := 0
	myStartRank := 0
	for j, sz := range bucketSizes {
		if j < myGroup {
			myStartRank += sz
		}
		total += sz
	}
	for i, sz := range bucketSort.bucketSizes {
		if i < indexIn(myGroupMembers, c.me) {
			myStartRank += sz
		}
	}
	return dealByRank(c, bucketSort.myBucket, myStartRank, total, "alg4.s8")
}

// sortDelimiters is Algorithm 4's Steps 1–4 on the sorted input: sample
// every sigma1-th key, sort the samples inside the first group and make the
// numGroups-1 delimiters globally known (1+8+2 rounds).
func sortDelimiters(c *comm, input []Key, s, myGroup int, myGroupMembers []int, numGroups int, st step) ([]Key, error) {
	n := c.size()

	// Step 1 (local): select every sigma1-th key of the sorted input.
	sigma1 := ceilDiv(n, s)
	selected := c.keyVec(len(input)/sigma1 + 1)
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
	samples := c.keyVec(len(rx.all()))
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
	sampleSort, err := groupSort(c, sampleGroup, samples, n, st.sub("s3", kcSortS3), nil, nil)
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
	delims := c.keyVec(numGroups - 1)
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
	return delims, nil
}

// routeBuckets is Algorithm 4's Step 6 routing on ex (a Mux instance, or the
// node itself when a replay routes alone): every key travels to a member of
// its bucket's group. The instance label is the same either way, so a
// replay's shared computations are the captured run's. The routed keys are
// carved from c's key arena: the sub-instance's buffers go back to its
// executor's stack as soon as the routing ends, before anyone reads the keys.
func routeBuckets(ex clique.Exchanger, c *comm, label string, input []Key, bstart []int, s, numGroups int, st step, square squareRouter) ([]Key, error) {
	sub := fullCommOn(ex, c, label+"/s6")
	defer sub.release()
	load := bundleBuckets(sub, input, bstart, s, numGroups)
	received, err := routeHeld(sub, load, st.sub("s6.route", kcSortS6), square)
	if err != nil {
		return nil, err
	}
	return unbundleKeys(c, received)
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

// bundleBuckets bundles the keys of every bucket into held parcels (in a
// rotating held slot of c) addressed to the members of the bucket's group,
// spreading each bucket evenly over the group and rotating the start member
// by the sender's identifier so the rounding excess does not pile up on the
// same member. Bucket j is the contiguous input range [bstart[j],
// bstart[j+1]) and its group occupies the nodes [j*s, min((j+1)*s, n)): key
// t of the bucket goes to member slot (t+me) mod w, so a slot's keys are the
// stride-w subsequence starting at (slot-me) mod w — no per-member staging
// is needed. The bundle payloads live in the comm's arena.
func bundleBuckets(c *comm, input []Key, bstart []int, s, numGroups int) []held {
	n := c.size()
	me := c.me

	// Count the bundles so a cold slot grows exactly once.
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

	buf := c.heldSlot()
	load := slices.Grow(*buf, total)
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
				load = append(load, held{dstLocal: lo + slot, src: src, payload: c.arenaView(mark)})
			}
		}
	}
	*buf = load
	return load
}

// unbundleKeys decodes the key bundles produced by bundleBuckets, as
// delivered to this node, into a slice carved from c's key arena. It
// validates and counts in a first sweep so the slice is carved exactly once.
func unbundleKeys(c *comm, received []held) ([]Key, error) {
	total := 0
	for _, h := range received {
		if len(h.payload) < 1 {
			return nil, fmt.Errorf("core: empty key bundle")
		}
		count := int(h.payload[0])
		if count < 0 || len(h.payload) < 1+count*keyWords {
			return nil, fmt.Errorf("core: malformed key bundle (%d keys, %d words)", count, len(h.payload))
		}
		total += count
	}
	keys := c.keyVec(total)
	for _, h := range received {
		count := int(h.payload[0])
		for i := 0; i < count; i++ {
			k, err := decodeKey(h.payload[1+i*keyWords:])
			if err != nil {
				return nil, err
			}
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// dealByRank implements the final redistribution (Algorithm 3/4, Step 8):
// this node holds a contiguous run of the globally sorted sequence starting
// at global rank start; afterwards node i holds ranks [i*perNode,
// (i+1)*perNode). Because every holder knows its keys' global ranks, two
// rounds suffice: keys are dealt round-robin over all nodes (with their rank
// attached) and every relay forwards each key to its final node.
func dealByRank(c *comm, run []Key, start, total int, context string) (*SortResult, error) {
	return dealRanked(c, run, []int{len(run)}, []int{start}, total, context)
}

// dealRanked is dealByRank for sorted keys whose global ranks need not be
// contiguous (the small-domain sorting arm, where a node's keys interleave
// with every other node's in the global order): keys is cut into runs of
// consecutive ranks, described as stageRankedBundles reads them. It drives
// the redistribution's three pieces — stageRankedBundles, forwardByRank,
// assembleBatch, which the presorted step program (sparse_sort.go) drives
// from its step inbox — around the comm's exchanges.
func dealRanked(c *comm, keys []Key, ends, offs []int, total int, context string) (*SortResult, error) {
	log := takeLog(c.ex)
	c.stage, c.frameBuf, log.stage, log.frameBuf = log.stage, log.frameBuf, c.stage, c.frameBuf
	defer func() { // both exchanges have delivered, or the run has failed
		c.stage, c.frameBuf, log.stage, log.frameBuf = log.stage, log.frameBuf, c.stage, c.frameBuf
		putLog(c.ex, log)
	}()
	n := c.size()
	perNode := ranksPerNode(total, n)
	stageRankedBundles(&c.stager, c.me, n, keys, ends, offs)
	rx, err := c.exchange()
	if err != nil {
		return nil, fmt.Errorf("%s deal: %w", context, err)
	}
	if err := forwardByRank(&c.stager, rx.all(), perNode, n, context); err != nil {
		return nil, err
	}
	rx, err = c.exchange()
	if err != nil {
		return nil, fmt.Errorf("%s deliver: %w", context, err)
	}
	records := rx.all()
	return assembleBatch(records, c.intVec(rankMarkWords(len(records))), c.ex.ID(), perNode, total, context)
}

// ranksPerNode is the width of every node's rank range in the balanced
// output: node i ends up with ranks [i*perNode, (i+1)*perNode).
func ranksPerNode(total, n int) int {
	return max(ceilDiv(total, n), 1)
}

// stageRankedBundles stages round 1 of the redistribution for node me: its
// sorted keys with their global ranks attached, bundled, dealt round-robin
// over all n nodes. The keys form runs of consecutive ranks: key t lies in
// the first run r with t < ends[r] and has rank offs[r]+t (one run on the
// contiguous arms, one per domain value on the small-domain arm).
func stageRankedBundles(s *stager, me, n int, keys []Key, ends, offs []int) {
	r := 0
	for lo, packetIdx := 0, 0; lo < len(keys); lo, packetIdx = lo+keysPerBundle, packetIdx+1 {
		hi := min(lo+keysPerBundle, len(keys))
		s.stageOpen((me + packetIdx) % n)
		s.stageWords(clique.Word(hi - lo))
		for t := lo; t < hi; t++ {
			for t >= ends[r] {
				r++
			}
			k := keys[t]
			s.stageWords(clique.Word(offs[r]+t), k.Value, clique.Word(k.Origin), clique.Word(k.Seq))
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

// rankMarkWords is the length of the marker assembleBatch needs for
// records records: one bit per record.
func rankMarkWords(records int) int {
	return ceilDiv(records, bits.UintSize)
}

// assembleBatch finishes the redistribution at node id: the received [rank,
// key] records must hold one contiguous run of ranks — the node's batch —
// so each key is written straight to its slot. seen is a marker of at least
// rankMarkWords(len(records)) ints (a shorter one is replaced), which
// catches a rank received twice; nothing is sized by the rank span.
func assembleBatch(records [][]clique.Word, seen []int, id, perNode, total int, context string) (*SortResult, error) {
	count, lo, hi := 0, 0, 0
	for _, p := range records {
		if len(p) < 1+keyWords {
			continue
		}
		r := int(p[0])
		if count == 0 || r < lo {
			lo = r
		}
		if count == 0 || r > hi {
			hi = r
		}
		count++
	}
	res := &SortResult{Total: total}
	if count == 0 {
		res.Start = min(id*perNode, total)
		return res, nil
	}
	// hi-lo may wrap, but as an unsigned difference it is exact.
	if uint(hi-lo) != uint(count-1) {
		return nil, nonContiguousRanks(records, count, id, context)
	}
	if words := rankMarkWords(count); len(seen) < words {
		seen = make([]int, words)
	} else {
		clear(seen[:words])
	}
	res.Start = lo
	res.Batch = make([]Key, count)
	for _, p := range records {
		if len(p) < 1+keyWords {
			continue
		}
		slot := int(p[0]) - lo
		word, bit := slot/bits.UintSize, uint(slot%bits.UintSize)
		if seen[word]>>bit&1 != 0 {
			return nil, nonContiguousRanks(records, count, id, context)
		}
		seen[word] |= 1 << bit
		res.Batch[slot], _ = decodeKey(p[1:]) // len(p) >= 1+keyWords
	}
	return res, nil
}

// nonContiguousRanks words assembleBatch's error for records whose count
// ranks do not form one contiguous run: the first gap or repeat in rank
// order.
func nonContiguousRanks(records [][]clique.Word, count, id int, context string) error {
	ranks := make([]int, 0, count)
	for _, p := range records {
		if len(p) >= 1+keyWords {
			ranks = append(ranks, int(p[0]))
		}
	}
	slices.Sort(ranks)
	for i := 1; i < len(ranks); i++ {
		if ranks[i-1]+1 != ranks[i] {
			return fmt.Errorf("%s deliver: node %d received non-contiguous ranks %d and %d", context, id, ranks[i-1], ranks[i])
		}
	}
	return fmt.Errorf("%s deliver: node %d received non-contiguous ranks", context, id) // unreachable: the run was contiguous
}

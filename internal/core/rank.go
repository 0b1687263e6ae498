package core

import (
	"fmt"

	"congestedclique/internal/clique"
)

// RankResult is what a node learns from the rank-in-union variant of the
// sorting problem (Corollary 4.6): for each of its input keys, the index of
// the key's value in the sorted sequence of distinct values present in the
// system (duplicate values share an index).
type RankResult struct {
	// Ranks[seq] is the distinct-value rank (0-based) of the input key with
	// sequence number seq.
	Ranks map[int]int
	// DistinctTotal is the number of distinct key values in the system.
	DistinctTotal int
}

// Rank implements Corollary 4.6. After sorting, one broadcast round
// establishes how batches share values at their boundaries, every node
// computes the distinct-value ranks of the keys it holds, and a routing
// instance (Theorem 3.7) returns each rank to the node whose input the key
// came from. The total is a constant number of rounds (37 + 1 + 16).
func Rank(ex clique.Exchanger, myKeys []Key) (*RankResult, error) {
	res, err := Sort(ex, myKeys)
	if err != nil {
		return nil, err
	}
	c := fullComm(ex, fmt.Sprintf("rank@r%d", ex.Round()))
	defer c.release()
	n := c.size()

	// One broadcast round: batch length, first value, last value and distinct
	// count of this node's batch.
	distinct := 0
	var first, last int64
	if len(res.Batch) > 0 {
		first = res.Batch[0].Value
		last = res.Batch[len(res.Batch)-1].Value
		distinct = 1
		for i := 1; i < len(res.Batch); i++ {
			if res.Batch[i].Value != res.Batch[i-1].Value {
				distinct++
			}
		}
	}
	for to := 0; to < n; to++ {
		c.send(to, clique.Word(len(res.Batch)), first, last, clique.Word(distinct))
	}
	rx, err := c.exchange()
	if err != nil {
		return nil, fmt.Errorf("core: rank broadcast: %w", err)
	}
	type batchInfo struct {
		length   int
		first    int64
		last     int64
		distinct int
	}
	infos := make([]batchInfo, n)
	for from := 0; from < n; from++ {
		p := rx.single(from)
		if len(p) < 4 {
			return nil, fmt.Errorf("core: rank broadcast: missing info from node %d", from)
		}
		infos[from] = batchInfo{length: int(p[0]), first: p[1], last: p[2], distinct: int(p[3])}
	}

	// Compute the distinct-value rank of the first value of every batch.
	startRank := make([]int, n)
	running := 0
	haveLast := false
	var lastValue int64
	for j := 0; j < n; j++ {
		if infos[j].length == 0 {
			startRank[j] = running
			continue
		}
		if haveLast && infos[j].first == lastValue {
			startRank[j] = running - 1
			running += infos[j].distinct - 1
		} else {
			startRank[j] = running
			running += infos[j].distinct
		}
		lastValue = infos[j].last
		haveLast = true
	}
	distinctTotal := running

	// Rank the keys of my batch and route (origin, seq, rank) back to the
	// owners using the deterministic router.
	rc := fullComm(ex, fmt.Sprintf("rankroute@r%d", ex.Round()))
	defer rc.release()
	parcels := make([]parcel, 0, len(res.Batch))
	rank := startRank[c.me]
	for i, k := range res.Batch {
		if i > 0 && res.Batch[i].Value != res.Batch[i-1].Value {
			rank++
		}
		parcels = append(parcels, parcel{
			Src:   ex.ID(),
			Dst:   k.Origin,
			Words: rc.arenaAppend(clique.Word(k.Seq), clique.Word(rank)),
		})
	}
	received, err := routeParcels(rc, parcels, rootStep("cor4.6"), routeSquare)
	if err != nil {
		return nil, fmt.Errorf("core: rank routing: %w", err)
	}
	out := &RankResult{Ranks: make(map[int]int, len(received)), DistinctTotal: distinctTotal}
	for _, p := range received {
		if len(p.Words) < 2 {
			return nil, fmt.Errorf("core: rank routing: malformed parcel")
		}
		out.Ranks[int(p.Words[0])] = int(p.Words[1])
	}
	if len(out.Ranks) != len(myKeys) {
		return nil, fmt.Errorf("core: node %d received %d ranks for %d input keys", ex.ID(), len(out.Ranks), len(myKeys))
	}
	return out, nil
}

// Select returns the key of global rank k (0-based) in the sorted order of
// all keys, at every node, using the sorting algorithm plus one broadcast
// round (the selection corollary of Section 4).
func Select(ex clique.Exchanger, myKeys []Key, k int) (Key, error) {
	res, err := Sort(ex, myKeys)
	if err != nil {
		return Key{}, err
	}
	if k < 0 || k >= res.Total {
		return Key{}, fmt.Errorf("core: selection rank %d out of range [0,%d)", k, res.Total)
	}
	c := fullComm(ex, fmt.Sprintf("select@r%d", ex.Round()))
	defer c.release()
	if k >= res.Start && k < res.Start+len(res.Batch) {
		key := res.Batch[k-res.Start]
		for to := 0; to < c.size(); to++ {
			c.send(to, key.Value, clique.Word(key.Origin), clique.Word(key.Seq))
		}
	}
	rx, err := c.exchange()
	if err != nil {
		return Key{}, fmt.Errorf("core: select broadcast: %w", err)
	}
	for _, p := range rx.all() {
		return decodeKey(p)
	}
	return Key{}, fmt.Errorf("core: select: no node held rank %d", k)
}

// Median returns the lower median key (rank floor((total-1)/2)).
func Median(ex clique.Exchanger, myKeys []Key) (Key, error) {
	// The total is not known before sorting, so Median runs Sort through
	// Select with a sentinel rank resolved after sorting. To keep every node
	// on the same schedule the rank is derived from the sort result itself.
	res, err := Sort(ex, myKeys)
	if err != nil {
		return Key{}, err
	}
	if res.Total == 0 {
		return Key{}, fmt.Errorf("core: median of empty input")
	}
	k := (res.Total - 1) / 2
	c := fullComm(ex, fmt.Sprintf("median@r%d", ex.Round()))
	defer c.release()
	if k >= res.Start && k < res.Start+len(res.Batch) {
		key := res.Batch[k-res.Start]
		for to := 0; to < c.size(); to++ {
			c.send(to, key.Value, clique.Word(key.Origin), clique.Word(key.Seq))
		}
	}
	rx, err := c.exchange()
	if err != nil {
		return Key{}, fmt.Errorf("core: median broadcast: %w", err)
	}
	for _, p := range rx.all() {
		return decodeKey(p)
	}
	return Key{}, fmt.Errorf("core: median: no node held rank %d", k)
}

// ModeResult is the outcome of the mode computation: the most frequent key
// value and its multiplicity.
type ModeResult struct {
	Value int64
	Count int
}

// Mode determines the most frequent key value in the system (a further
// corollary of the sorting result mentioned in Section 4). After sorting,
// every value's occurrences are contiguous across the batches, so one
// broadcast of each node's boundary runs and best interior run suffices.
// Ties are broken towards the smaller value.
func Mode(ex clique.Exchanger, myKeys []Key) (*ModeResult, error) {
	res, err := Sort(ex, myKeys)
	if err != nil {
		return nil, err
	}
	c := fullComm(ex, fmt.Sprintf("mode@r%d", ex.Round()))
	defer c.release()
	n := c.size()

	// Summarise my batch: prefix run, suffix run, best interior run.
	type summary struct {
		length               int
		firstValue           int64
		prefixLen            int
		lastValue            int64
		suffixLen            int
		bestMidValue         int64
		bestMidCount         int
		hasMid               bool
		prefixCoversAllBatch bool
	}
	var s summary
	s.length = len(res.Batch)
	if s.length > 0 {
		s.firstValue = res.Batch[0].Value
		s.prefixLen = 1
		for i := 1; i < s.length && res.Batch[i].Value == s.firstValue; i++ {
			s.prefixLen++
		}
		s.lastValue = res.Batch[s.length-1].Value
		s.suffixLen = 1
		for i := s.length - 2; i >= 0 && res.Batch[i].Value == s.lastValue; i-- {
			s.suffixLen++
		}
		s.prefixCoversAllBatch = s.prefixLen == s.length
		// Best run strictly inside (not touching either boundary run).
		i := s.prefixLen
		for i < s.length-s.suffixLen {
			j := i
			for j < s.length-s.suffixLen && res.Batch[j].Value == res.Batch[i].Value {
				j++
			}
			if !s.hasMid || j-i > s.bestMidCount || (j-i == s.bestMidCount && res.Batch[i].Value < s.bestMidValue) {
				s.bestMidValue = res.Batch[i].Value
				s.bestMidCount = j - i
				s.hasMid = true
			}
			i = j
		}
	}
	covers := clique.Word(0)
	if s.prefixCoversAllBatch {
		covers = 1
	}
	hasMid := clique.Word(0)
	if s.hasMid {
		hasMid = 1
	}
	for to := 0; to < n; to++ {
		c.send(to,
			clique.Word(s.length), s.firstValue, clique.Word(s.prefixLen),
			s.lastValue, clique.Word(s.suffixLen), s.bestMidValue, clique.Word(s.bestMidCount),
			covers, hasMid,
		)
	}
	rx, err := c.exchange()
	if err != nil {
		return nil, fmt.Errorf("core: mode broadcast: %w", err)
	}

	best := &ModeResult{}
	consider := func(value int64, count int) {
		if count > best.Count || (count == best.Count && count > 0 && value < best.Value) {
			best.Value = value
			best.Count = count
		}
	}
	var runValue int64
	runLen := 0
	for from := 0; from < n; from++ {
		p := rx.single(from)
		if len(p) < 9 {
			return nil, fmt.Errorf("core: mode broadcast: missing summary from node %d", from)
		}
		length := int(p[0])
		if length == 0 {
			continue
		}
		firstValue, prefixLen := p[1], int(p[2])
		lastValue, suffixLen := p[3], int(p[4])
		midValue, midCount := p[5], int(p[6])
		coversAll := p[7] == 1
		if p[8] == 1 {
			consider(midValue, midCount)
		}

		if runLen > 0 && runValue == firstValue {
			runLen += prefixLen
		} else {
			consider(runValue, runLen)
			runValue, runLen = firstValue, prefixLen
		}
		if !coversAll {
			consider(runValue, runLen)
			runValue, runLen = lastValue, suffixLen
		}
	}
	consider(runValue, runLen)
	if best.Count == 0 {
		return nil, fmt.Errorf("core: mode of empty input")
	}
	return best, nil
}

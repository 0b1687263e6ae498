package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"congestedclique/internal/clique"
)

// This file implements the cross-run plan cache and the demand fingerprints
// that key it. Real service traffic is temporally correlated: the same or
// near-same demand shapes recur on one session handle, yet every call replans
// and recolors from scratch (the engine's shared-computation cache is
// deliberately per-run — see clique.Network resetRun — because cached
// colorings depend on the instance data, not only on n). The plan cache makes
// reuse safe across runs by pairing a fast fingerprint with an exact
// validate-on-hit rule:
//
//   - The fingerprint is an order-sensitive FNV-1a fold of the per-source
//     destination sequence (for sorting, of the per-node value sequence).
//     Order sensitivity is load-bearing, not an implementation convenience:
//     the pipeline's balancing schedule assigns intermediate sets by each
//     parcel's submission-order unit index, so two instances with identical
//     (src, dst) multiplicity matrices but different within-row orders
//     execute different schedules. The fold is exactly the value the charged
//     census protocol (census.go) computes on the wire: node i contributes
//     (row length, row hash) and node 0 folds the pairs in node order.
//   - Validate-on-hit compares the instance's canonical representation (the
//     exact ordered destination respectively value sequence) word for word
//     against the cached entry's before anything cached is reused. A hash
//     collision or a drifted instance therefore can never produce a wrong
//     schedule: it is detected host-side, counted as an invalidation, and
//     the stale entry is evicted.
//
// The cache lives on the session handle (one instance shared by every engine
// of the pool), guarded by a mutex; entries are bounded by capacity with LRU
// eviction. What an entry stores — the planner verdict, the Theorem 5.4
// announcement schedule (RouteSchedule) and the engine's shared-computation
// snapshot (colorings) — is immutable after Store, so concurrent hits share
// it without copying.

// FNV-1a parameters, folded over 64-bit words rather than bytes. The census
// protocol exchanges whole words, so hashing word-wise keeps the distributed
// and host-side computations trivially identical.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvFold(h, v uint64) uint64 { return (h ^ v) * fnvPrime64 }

// routeRowHash hashes one source's destination sequence in submission order.
// Every node can compute its own row hash locally, which is what the census
// protocol sends to node 0.
func routeRowHash(row []Message) uint64 {
	h := uint64(fnvOffset64)
	for _, m := range row {
		h = fnvFold(h, uint64(m.Dst))
	}
	return h
}

// sortRowHash hashes one node's value sequence in submission order.
func sortRowHash(row []Key) uint64 {
	h := uint64(fnvOffset64)
	for _, k := range row {
		h = fnvFold(h, uint64(k.Value))
	}
	return h
}

// foldRows combines per-row (length, hash) pairs in node order — the shared
// definition of the instance fingerprint used host-side (RouteFingerprint,
// SortFingerprint) and on the wire (node 0's fold in the census protocols).
func foldRows(h uint64, rowLen int, rowHash uint64) uint64 {
	return fnvFold(fnvFold(h, uint64(rowLen)), rowHash)
}

// fingerprintKind separates the route and sort key spaces of one cache.
type fingerprintKind uint8

const (
	fingerprintRoute fingerprintKind = 1
	fingerprintSort  fingerprintKind = 2
)

// Fingerprint identifies a demand shape for cache lookup: the operation kind,
// the clique size and the order-sensitive content hash. Equal fingerprints
// are a necessary but not sufficient condition for schedule reuse — the
// cache's validate-on-hit compares the full canonical sequence.
type Fingerprint struct {
	kind fingerprintKind
	n    int
	Hash uint64
}

// RouteFingerprint computes the routing-demand fingerprint of an instance:
// per-source row hashes over the ordered destination sequences, folded in
// node order. rows beyond len(msgs) are empty.
func RouteFingerprint(n int, msgs [][]Message) Fingerprint {
	h := uint64(fnvOffset64)
	for i := 0; i < n; i++ {
		var row []Message
		if i < len(msgs) {
			row = msgs[i]
		}
		h = foldRows(h, len(row), routeRowHash(row))
	}
	return Fingerprint{kind: fingerprintRoute, n: n, Hash: h}
}

// SortFingerprint computes the sorting-demand fingerprint of an instance.
// The second result reports cacheability: only canonically labelled keys
// (Origin = row, Seq = position — exactly what Sort and stageValues produce)
// are cached, because the pipeline's output depends on the labels and the
// canonical representation stores values only. Non-canonical instances
// (SortKeys callers carrying their own bookkeeping) bypass the cache.
func SortFingerprint(n int, keys [][]Key) (Fingerprint, bool) {
	h := uint64(fnvOffset64)
	for i := 0; i < n; i++ {
		var row []Key
		if i < len(keys) {
			row = keys[i]
		}
		for j, k := range row {
			if k.Origin != i || k.Seq != j {
				return Fingerprint{}, false
			}
		}
		h = foldRows(h, len(row), sortRowHash(row))
	}
	return Fingerprint{kind: fingerprintSort, n: n, Hash: h}, true
}

// planCacheEntry is one cached demand shape. The canonical representation
// (lens plus the flat dsts or vals sequence) is the validate-on-hit witness;
// everything else is the reusable schedule state. All fields are immutable
// after insertion.
type planCacheEntry struct {
	fp   Fingerprint
	lens []int32
	dsts []int32 // route: flat per-source destination sequence
	vals []int64 // sort: flat per-node value sequence

	routePlan RoutePlan
	sortPlan  SortPlan
	sched     *RouteSchedule
	shared    clique.SharedSnapshot
}

// RouteHit is the usable content of a validated route cache hit: the cached
// planner verdict, the announcement schedule (nil for non-pipeline
// strategies) and the engine shared-computation snapshot to seed the run
// with. The fields are shared and immutable; callers must not mutate them.
type RouteHit struct {
	Plan   RoutePlan
	Sched  *RouteSchedule
	Shared clique.SharedSnapshot
}

// SortHit is RouteHit for the sorting planner.
type SortHit struct {
	Plan   SortPlan
	Shared clique.SharedSnapshot
}

// PlanCache is the cross-run plan and schedule cache of one session handle:
// a bounded, LRU-evicted map from demand fingerprints to validated schedule
// state, shared by every engine of the handle's pool. All methods are safe
// for concurrent use.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[Fingerprint]*list.Element // values are *planCacheEntry inside lru
	lru      *list.List                    // front = most recently used

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

// NewPlanCache builds a cache bounded to capacity entries (route and sort
// entries share the budget).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		capacity: capacity,
		entries:  make(map[Fingerprint]*list.Element, capacity),
		lru:      list.New(),
	}
}

// Counters returns the lifetime hit, miss and invalidation counts. An
// invalidation (fingerprint matched but the canonical sequence did not —
// a collision or a drifted instance) is also counted as a miss, so
// hits+misses equals the number of cacheable lookups.
func (pc *PlanCache) Counters() (hits, misses, invalidations int64) {
	return pc.hits.Load(), pc.misses.Load(), pc.invalidations.Load()
}

// LookupRoute fingerprints the staged instance and returns a validated hit,
// or nil on a miss. The returned fingerprint is reused by StoreRoute after a
// miss run completes.
func (pc *PlanCache) LookupRoute(n int, msgs [][]Message) (Fingerprint, *RouteHit) {
	fp := RouteFingerprint(n, msgs)
	e := pc.validatedEntry(fp, func(e *planCacheEntry) bool { return routeRepEqual(e, n, msgs) })
	if e == nil {
		return fp, nil
	}
	return fp, &RouteHit{Plan: e.routePlan, Sched: e.sched, Shared: e.shared}
}

// LookupSort is LookupRoute for sorting instances. cacheable is false when
// the keys are not canonically labelled; such lookups touch no counters and
// must not be stored.
func (pc *PlanCache) LookupSort(n int, keys [][]Key) (fp Fingerprint, hit *SortHit, cacheable bool) {
	fp, ok := SortFingerprint(n, keys)
	if !ok {
		return Fingerprint{}, nil, false
	}
	e := pc.validatedEntry(fp, func(e *planCacheEntry) bool { return sortRepEqual(e, n, keys) })
	if e == nil {
		return fp, nil, true
	}
	return fp, &SortHit{Plan: e.sortPlan, Shared: e.shared}, true
}

// validatedEntry resolves fp to its entry if and only if the canonical
// representation matches (validate-on-hit). A fingerprint match with a
// mismatched representation evicts the stale entry and counts as an
// invalidation plus a miss.
func (pc *PlanCache) validatedEntry(fp Fingerprint, same func(*planCacheEntry) bool) *planCacheEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[fp]
	if !ok {
		pc.misses.Add(1)
		return nil
	}
	e := el.Value.(*planCacheEntry)
	if !same(e) {
		delete(pc.entries, fp)
		pc.lru.Remove(el)
		pc.invalidations.Add(1)
		pc.misses.Add(1)
		return nil
	}
	pc.lru.MoveToFront(el)
	pc.hits.Add(1)
	return e
}

// StoreRoute inserts (or replaces) the entry for a completed miss run:
// the instance's canonical representation, the sanitized planner verdict,
// the captured announcement schedule (nil unless the pipeline ran and the
// capture completed) and the engine's shared-computation snapshot.
func (pc *PlanCache) StoreRoute(fp Fingerprint, n int, msgs [][]Message, plan RoutePlan, sched *RouteSchedule, shared clique.SharedSnapshot) {
	if sched != nil && !sched.complete() {
		sched = nil
	}
	e := &planCacheEntry{fp: fp, routePlan: sanitizeRoutePlan(plan), sched: sched, shared: shared}
	e.lens = make([]int32, n)
	total := 0
	for i := 0; i < n && i < len(msgs); i++ {
		e.lens[i] = int32(len(msgs[i]))
		total += len(msgs[i])
	}
	e.dsts = make([]int32, 0, total)
	for i := 0; i < n && i < len(msgs); i++ {
		for _, m := range msgs[i] {
			e.dsts = append(e.dsts, int32(m.Dst))
		}
	}
	pc.insert(fp, e)
}

// StoreSort is StoreRoute for sorting instances. The caller must only store
// lookups LookupSort reported cacheable.
func (pc *PlanCache) StoreSort(fp Fingerprint, n int, keys [][]Key, plan SortPlan, shared clique.SharedSnapshot) {
	e := &planCacheEntry{fp: fp, sortPlan: sanitizeSortPlan(plan), shared: shared}
	e.lens = make([]int32, n)
	total := 0
	for i := 0; i < n && i < len(keys); i++ {
		e.lens[i] = int32(len(keys[i]))
		total += len(keys[i])
	}
	e.vals = make([]int64, 0, total)
	for i := 0; i < n && i < len(keys); i++ {
		for _, k := range keys[i] {
			e.vals = append(e.vals, k.Value)
		}
	}
	pc.insert(fp, e)
}

func (pc *PlanCache) insert(fp Fingerprint, e *planCacheEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[fp]; ok {
		// Two concurrent misses on the same shape: the later store wins,
		// both are correct (same instance, same deterministic schedule).
		el.Value = e
		pc.lru.MoveToFront(el)
		return
	}
	pc.entries[fp] = pc.lru.PushFront(e)
	for pc.lru.Len() > pc.capacity {
		oldest := pc.lru.Back()
		delete(pc.entries, oldest.Value.(*planCacheEntry).fp)
		pc.lru.Remove(oldest)
	}
}

// Len returns the current entry count (for tests).
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}

// routeRepEqual compares the cached canonical representation against the
// staged instance, exactly: same per-source row lengths, same ordered
// destination sequence.
func routeRepEqual(e *planCacheEntry, n int, msgs [][]Message) bool {
	if len(e.lens) != n {
		return false
	}
	k := 0
	for i := 0; i < n; i++ {
		var row []Message
		if i < len(msgs) {
			row = msgs[i]
		}
		if int(e.lens[i]) != len(row) {
			return false
		}
		for _, m := range row {
			if e.dsts[k] != int32(m.Dst) {
				return false
			}
			k++
		}
	}
	return k == len(e.dsts)
}

// sortRepEqual is routeRepEqual for value sequences.
func sortRepEqual(e *planCacheEntry, n int, keys [][]Key) bool {
	if len(e.lens) != n {
		return false
	}
	k := 0
	for i := 0; i < n; i++ {
		var row []Key
		if i < len(keys) {
			row = keys[i]
		}
		if int(e.lens[i]) != len(row) {
			return false
		}
		for _, key := range row {
			if e.vals[k] != key.Value {
				return false
			}
			k++
		}
	}
	return k == len(e.vals)
}

// sanitizeRoutePlan strips the per-run execution fields before a plan is
// stored: census arming and schedule pointers belong to one operation, not
// to the cached verdict.
func sanitizeRoutePlan(p RoutePlan) RoutePlan {
	p.Census = false
	p.CensusHasFP = false
	p.CensusFP = 0
	p.Sched = nil
	p.Capture = nil
	return p
}

// sanitizeSortPlan is sanitizeRoutePlan for sorting verdicts. The plan's
// Domain and StartRanks tables are shared with the cache entry — AutoSort
// only reads them.
func sanitizeSortPlan(p SortPlan) SortPlan {
	p.Census = false
	p.CensusHasFP = false
	p.CensusFP = 0
	return p
}

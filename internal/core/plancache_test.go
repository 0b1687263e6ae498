package core

import (
	"strings"
	"testing"

	"congestedclique/internal/clique"
)

// fpInstance builds a full-load pipeline-shaped instance whose rows differ
// from rotate so two calls with different rot produce different orderings of
// the same destination multiset per row when rot differs by a swap.
func fpInstance(n int) [][]Message {
	msgs := make([][]Message, n)
	for src := 0; src < n; src++ {
		row := make([]Message, n)
		for j := 0; j < n; j++ {
			row[j] = Message{Src: src, Dst: (src + j) % n, Seq: j, Payload: clique.Word(src*n + j)}
		}
		msgs[src] = row
	}
	return msgs
}

func TestRouteFingerprintOrderSensitive(t *testing.T) {
	t.Parallel()
	const n = 16
	a := fpInstance(n)
	b := fpInstance(n)
	// Same destination multiset on node 0, different order: the captured
	// schedule depends on the per-source submission order (interSet colors
	// are assigned by unit index), so the fingerprint must distinguish them.
	b[0][0].Dst, b[0][1].Dst = b[0][1].Dst, b[0][0].Dst
	fa := RouteFingerprint(n, a)
	fb := RouteFingerprint(n, b)
	if fa == fb {
		t.Fatalf("order-swapped instances share fingerprint %x", fa.Hash)
	}
	if fa != RouteFingerprint(n, a) {
		t.Error("fingerprint not deterministic")
	}
}

func TestSortFingerprintNonCanonicalBypass(t *testing.T) {
	t.Parallel()
	const n = 4
	keys := make([][]Key, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			keys[i] = append(keys[i], Key{Value: int64(i*10 + j), Origin: i, Seq: j})
		}
	}
	if _, ok := SortFingerprint(n, keys); !ok {
		t.Fatal("canonical labels reported non-cacheable")
	}
	keys[2][1].Origin = 0 // caller-supplied bookkeeping via SortKeys
	if _, ok := SortFingerprint(n, keys); ok {
		t.Fatal("non-canonical Origin reported cacheable; the fingerprint only covers values")
	}
}

func TestPlanCacheRouteHitAndDriftMiss(t *testing.T) {
	t.Parallel()
	const n = 16
	pc := NewPlanCache(4)
	msgs := fpInstance(n)
	plan := PlanRoute(n, msgs)

	fp, hit := pc.LookupRoute(n, msgs)
	if hit != nil {
		t.Fatal("hit on empty cache")
	}
	pc.StoreRoute(fp, n, msgs, plan, nil, clique.SharedSnapshot{})
	if _, hit = pc.LookupRoute(n, msgs); hit == nil {
		t.Fatal("no hit after store")
	} else if hit.Plan.Strategy != plan.Strategy {
		t.Fatalf("cached strategy %v, want %v", hit.Plan.Strategy, plan.Strategy)
	}

	// Drift: any change to the demand is a different fingerprint (with
	// overwhelming probability) and always a rep mismatch — never a hit.
	drift := fpInstance(n)
	drift[3][5].Dst = (drift[3][5].Dst + 1) % n
	if _, hit = pc.LookupRoute(n, drift); hit != nil {
		t.Fatal("drifted instance hit the cache")
	}

	hits, misses, inval := pc.Counters()
	if hits != 1 || misses != 2 || inval != 0 {
		t.Fatalf("counters = (%d,%d,%d), want (1,2,0)", hits, misses, inval)
	}
}

// TestPlanCacheInvalidation forges a fingerprint collision — an entry stored
// under instance B's fingerprint but holding instance A's canonical rep —
// and pins that validate-on-hit rejects it: the lookup counts an
// invalidation plus a miss, evicts the poisoned entry, and never returns A's
// plan for B.
func TestPlanCacheInvalidation(t *testing.T) {
	t.Parallel()
	const n = 16
	pc := NewPlanCache(4)
	a := fpInstance(n)
	b := fpInstance(n)
	b[0][0].Dst, b[0][1].Dst = b[0][1].Dst, b[0][0].Dst
	fpB := RouteFingerprint(n, b)
	pc.StoreRoute(fpB, n, a, PlanRoute(n, a), nil, clique.SharedSnapshot{})

	if _, hit := pc.LookupRoute(n, b); hit != nil {
		t.Fatal("colliding entry survived validate-on-hit")
	}
	if hits, misses, inval := pc.Counters(); hits != 0 || misses != 1 || inval != 1 {
		t.Fatalf("counters = (%d,%d,%d), want (0,1,1)", hits, misses, inval)
	}
	if pc.Len() != 0 {
		t.Fatalf("poisoned entry not evicted, Len = %d", pc.Len())
	}
	// The eviction means the next lookup is a clean miss, not another
	// invalidation.
	if _, hit := pc.LookupRoute(n, b); hit != nil {
		t.Fatal("hit after eviction")
	}
	if _, _, inval := pc.Counters(); inval != 1 {
		t.Fatalf("invalidations = %d after second lookup, want 1", inval)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	t.Parallel()
	const n = 9
	pc := NewPlanCache(2)
	variant := func(k int) [][]Message {
		msgs := fpInstance(n)
		msgs[0][0].Dst = k % n
		return msgs
	}
	store := func(msgs [][]Message) Fingerprint {
		fp, _ := pc.LookupRoute(n, msgs)
		pc.StoreRoute(fp, n, msgs, PlanRoute(n, msgs), nil, clique.SharedSnapshot{})
		return fp
	}
	a, b, c := variant(1), variant(2), variant(3)
	store(a)
	store(b)
	if _, hit := pc.LookupRoute(n, a); hit == nil { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	store(c) // capacity 2: evicts b
	if pc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", pc.Len())
	}
	if _, hit := pc.LookupRoute(n, b); hit != nil {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, hit := pc.LookupRoute(n, a); hit == nil {
		t.Fatal("recently-used entry a evicted")
	}
	if _, hit := pc.LookupRoute(n, c); hit == nil {
		t.Fatal("newest entry c evicted")
	}
}

// TestRouteStrategyCensusAgreement pins the charged census against the plan
// in every class of the dispatch rule. The expected strategy is stated by
// hand; the census run on the wire — node 0 deciding from the aggregates it
// gathered, not from the plan — must accept PlanRoute's verdict, and must
// reject the same plan with the verdict flipped.
func TestRouteStrategyCensusAgreement(t *testing.T) {
	t.Parallel()
	const n = 64
	cases := map[string]struct {
		msgs [][]Message
		want RouteStrategy
	}{
		"empty":           {make([][]Message, n), StrategyEmpty},
		"sparse-direct":   {sparseInstance(n, 2, 1), StrategyDirect},
		"direct-boundary": {sparseInstance(n, 1, DirectMaxMultiplicity), StrategyDirect},
		"past-direct":     {sparseInstance(n, 1, DirectMaxMultiplicity+1), StrategyPipeline},
		"full-load":       {sparseInstance(n, n, 1), StrategyPipeline},
		"broadcast-shaped": {func() [][]Message {
			msgs := make([][]Message, n)
			for j := 0; j < n; j++ {
				msgs[0] = append(msgs[0], Message{Src: 0, Dst: 1 + j%4, Seq: j, Payload: clique.Word(j)})
			}
			return msgs
		}(), StrategyBroadcast},
		"scatter-too-deep": {func() [][]Message {
			msgs := make([][]Message, n)
			for src := 0; src < 8; src++ {
				for k := 0; k < 8; k++ {
					msgs[src] = append(msgs[src], Message{Src: src, Dst: 0, Seq: k, Payload: clique.Word(src*100 + k)})
				}
			}
			return msgs
		}(), StrategyPipeline},
	}
	for name, tc := range cases {
		name, tc := name, tc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			plan := PlanRoute(n, tc.msgs)
			if plan.Strategy != tc.want {
				t.Fatalf("plan decided %v (%s), want %v", plan.Strategy, plan.Reason, tc.want)
			}
			plan.Census, plan.CensusHasFP, plan.CensusFP = true, true, RouteFingerprint(n, tc.msgs).Hash
			run := func(plan RoutePlan) error {
				nw, err := clique.New(n)
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				return nw.Run(func(nd *clique.Node) error {
					_, rErr := AutoRoute(nd, tc.msgs[nd.ID()], plan)
					return rErr
				})
			}
			if err := run(plan); err != nil {
				t.Fatalf("census rejected the plan: %v", err)
			}
			flipped := plan
			flipped.Strategy = StrategyDirect
			if tc.want == StrategyDirect {
				flipped.Strategy = StrategyPipeline
			}
			if err := run(flipped); err == nil || !strings.Contains(err.Error(), "disagrees with plan") {
				t.Fatalf("census accepted a flipped verdict: %v", err)
			}
		})
	}
}

package congestedclique

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"congestedclique/internal/verify"
)

func uniformInstance(n, per int, seed int64) [][]Message {
	rng := rand.New(rand.NewSource(seed))
	msgs := make([][]Message, n)
	for k := 0; k < per; k++ {
		perm := rng.Perm(n)
		for src, dst := range perm {
			msgs[src] = append(msgs[src], Message{Src: src, Dst: dst, Seq: len(msgs[src]), Payload: rng.Int63n(1 << 30)})
		}
	}
	return msgs
}

// checkDelivery checks a Route result against its instance: exactly-once
// delivery (internal/verify), and the row order RouteResult documents and
// the service passes to the wire as it is — every delivered row strictly
// increasing in (Src, Seq).
func checkDelivery(t *testing.T, label string, msgs [][]Message, res *RouteResult) {
	t.Helper()
	sent := make([][]Message, len(res.Delivered))
	copy(sent, msgs)
	if err := verify.Routing(sent, res.Delivered); err != nil {
		t.Fatalf("%s (strategy %v): %v", label, res.Strategy, err)
	}
	for dst, row := range res.Delivered {
		for j := 1; j < len(row); j++ {
			if a, b := row[j-1], row[j]; a.Src > b.Src || a.Src == b.Src && a.Seq >= b.Seq {
				t.Fatalf("%s (strategy %v): node %d's row is out of (Src, Seq) order at %d: %+v before %+v",
					label, res.Strategy, dst, j, a, b)
			}
		}
	}
}

func TestRoutePublicAPIAllAlgorithms(t *testing.T) {
	t.Parallel()
	const n = 25
	msgs := uniformInstance(n, n, 1)
	for _, alg := range []Algorithm{Deterministic, LowCompute, AlgorithmAuto} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Route(n, msgs, WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			checkDelivery(t, alg.String(), msgs, res)
			if res.Stats.Rounds == 0 || res.Stats.TotalMessages == 0 {
				t.Fatalf("missing stats: %+v", res.Stats)
			}
			switch alg {
			case Deterministic, AlgorithmAuto:
				if res.Stats.Rounds > 16 {
					t.Errorf("%v routing took %d rounds", alg, res.Stats.Rounds)
				}
			case LowCompute:
				if res.Stats.Rounds > 10 {
					t.Errorf("low-compute routing took %d rounds", res.Stats.Rounds)
				}
			}
		})
	}
}

// TestRetiredAlgorithmValuesRejected pins that an Algorithm integer without
// an implementation — 0, the retired baseline values 3 and 4, or anything
// past AlgorithmAuto — fails as unknown at New and per call instead of
// silently selecting another algorithm.
func TestRetiredAlgorithmValuesRejected(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	cl, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, a := range []Algorithm{0, 3, 4, 6} {
		if h, err := New(4, WithAlgorithm(a)); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			if h != nil {
				h.Close()
			}
			t.Errorf("New(WithAlgorithm(%d)) = %v, want an unknown-algorithm error", int(a), err)
		}
		if _, err := cl.Route(ctx, nil, WithAlgorithm(a)); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("Route(WithAlgorithm(%d)) = %v, want an unknown-algorithm error", int(a), err)
		}
		if _, err := cl.Sort(ctx, nil, WithAlgorithm(a)); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("Sort(WithAlgorithm(%d)) = %v, want an unknown-algorithm error", int(a), err)
		}
	}
}

func TestRouteValidation(t *testing.T) {
	t.Parallel()
	if _, err := Route(0, nil); !errors.Is(err, ErrInvalidInstance) {
		t.Fatalf("zero nodes: %v", err)
	}
	bad := [][]Message{{{Src: 1, Dst: 0, Seq: 0}}}
	if _, err := Route(4, bad); !errors.Is(err, ErrInvalidInstance) {
		t.Fatalf("wrong source: %v", err)
	}
	bad = [][]Message{{{Src: 0, Dst: 9, Seq: 0}}}
	if _, err := Route(4, bad); !errors.Is(err, ErrInvalidInstance) {
		t.Fatalf("bad destination: %v", err)
	}
	bad = [][]Message{{{Src: 0, Dst: 1, Seq: 0}, {Src: 0, Dst: 1, Seq: 0}}}
	if _, err := Route(4, bad); !errors.Is(err, ErrInvalidInstance) {
		t.Fatalf("duplicate seq: %v", err)
	}
	// Receive overload: every node sends everything to node 0.
	over := make([][]Message, 4)
	for i := 0; i < 4; i++ {
		for k := 0; k < 4; k++ {
			over[i] = append(over[i], Message{Src: i, Dst: 0, Seq: k})
		}
	}
	if _, err := Route(4, over); !errors.Is(err, ErrInvalidInstance) {
		t.Fatalf("receive overload: %v", err)
	}
	if _, err := Route(4, nil, WithAlgorithm(Algorithm(99))); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Route(4, nil, WithStrictBandwidth(0)); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestRouteStrictBandwidthOption(t *testing.T) {
	t.Parallel()
	msgs := uniformInstance(16, 16, 3)
	if _, err := Route(16, msgs, WithStrictBandwidth(16)); err != nil {
		t.Fatalf("deterministic routing should fit in 16 words per edge: %v", err)
	}
	if _, err := Route(16, msgs, WithStrictBandwidth(1)); !errors.Is(err, ErrBandwidthExceeded) {
		t.Fatalf("a one-word budget cannot possibly suffice and should fail with ErrBandwidthExceeded, got %v", err)
	}
}

func TestNewUniformMessages(t *testing.T) {
	t.Parallel()
	msgs, err := NewUniformMessages([][]int{{1, 2}, {0}}, [][]int64{{10, 20}, {30}})
	if err != nil {
		t.Fatal(err)
	}
	if msgs[0][1].Dst != 2 || msgs[0][1].Payload != 20 || msgs[1][0].Src != 1 {
		t.Fatalf("unexpected messages %+v", msgs)
	}
	if _, err := NewUniformMessages([][]int{{1}}, [][]int64{{1, 2}}); err == nil {
		t.Fatal("mismatched shapes accepted")
	}
	if _, err := NewUniformMessages([][]int{{1}, {0}}, [][]int64{{1}}); err == nil {
		t.Fatal("mismatched row counts accepted")
	}
}

func TestSortPublicAPI(t *testing.T) {
	t.Parallel()
	const n = 16
	rng := rand.New(rand.NewSource(5))
	values := make([][]int64, n)
	var all []int64
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			v := rng.Int63n(1000)
			values[i] = append(values[i], v)
			all = append(all, v)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	for _, alg := range []Algorithm{Deterministic, AlgorithmAuto} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Sort(n, values, WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			if res.Total != len(all) {
				t.Fatalf("total %d, want %d", res.Total, len(all))
			}
			var got []int64
			for _, batch := range res.Batches {
				for _, k := range batch {
					got = append(got, k.Value)
				}
			}
			if len(got) != len(all) {
				t.Fatalf("got %d keys, want %d", len(got), len(all))
			}
			for i := range all {
				if got[i] != all[i] {
					t.Fatalf("rank %d: %d want %d", i, got[i], all[i])
				}
			}
			if alg == Deterministic && res.Stats.Rounds > 37 {
				t.Errorf("deterministic sorting took %d rounds", res.Stats.Rounds)
			}
		})
	}
}

func TestSortValidation(t *testing.T) {
	t.Parallel()
	if _, err := Sort(0, nil); !errors.Is(err, ErrInvalidInstance) {
		t.Fatal("zero nodes accepted")
	}
	too := [][]int64{{1, 2, 3, 4, 5}}
	if _, err := Sort(4, too); !errors.Is(err, ErrInvalidInstance) {
		t.Fatal("too many keys accepted")
	}
	badKeys := [][]Key{{{Value: 1, Origin: 3, Seq: 0}}}
	if _, err := SortKeys(4, badKeys); !errors.Is(err, ErrInvalidInstance) {
		t.Fatal("foreign origin accepted")
	}
}

func TestRankSelectMedianModePublicAPI(t *testing.T) {
	t.Parallel()
	const n = 16
	values := make([][]int64, n)
	counts := map[int64]int{}
	var flat []int64
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			v := int64((i*k + 3*k + i) % 9)
			values[i] = append(values[i], v)
			counts[v]++
			flat = append(flat, v)
		}
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i] < flat[j] })

	rank, err := Rank(n, values)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int64]bool{}
	for _, v := range flat {
		distinct[v] = true
	}
	if rank.DistinctTotal != len(distinct) {
		t.Fatalf("distinct total %d, want %d", rank.DistinctTotal, len(distinct))
	}
	for i := range values {
		for j, v := range values[i] {
			want := 0
			for u := range distinct {
				if u < v {
					want++
				}
			}
			if rank.Ranks[i][j] != want {
				t.Fatalf("rank of %d = %d, want %d", v, rank.Ranks[i][j], want)
			}
		}
	}

	kth, _, err := SelectKth(n, values, 10)
	if err != nil {
		t.Fatal(err)
	}
	if kth.Value != flat[10] {
		t.Fatalf("10th value %d, want %d", kth.Value, flat[10])
	}
	med, _, err := Median(n, values)
	if err != nil {
		t.Fatal(err)
	}
	if med.Value != flat[(len(flat)-1)/2] {
		t.Fatalf("median %d, want %d", med.Value, flat[(len(flat)-1)/2])
	}

	mode, err := Mode(n, values)
	if err != nil {
		t.Fatal(err)
	}
	bestCount := 0
	var bestValue int64
	for v, c := range counts {
		if c > bestCount || (c == bestCount && v < bestValue) {
			bestCount, bestValue = c, v
		}
	}
	if mode.Value != bestValue || mode.Count != bestCount {
		t.Fatalf("mode (%d,%d), want (%d,%d)", mode.Value, mode.Count, bestValue, bestCount)
	}
}

func TestCountSmallKeysPublicAPI(t *testing.T) {
	t.Parallel()
	const n, domain = 128, 2
	values := make([][]int, n)
	want := make([]int64, domain)
	for i := 0; i < n; i++ {
		for k := 0; k < 5; k++ {
			v := (i + k) % domain
			values[i] = append(values[i], v)
			want[v]++
		}
	}
	res, err := CountSmallKeys(n, values, domain)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Counts[v] != want[v] {
			t.Fatalf("count of %d = %d, want %d", v, res.Counts[v], want[v])
		}
	}
	if res.Stats.Rounds != 2 {
		t.Errorf("small-key counting took %d rounds, want 2", res.Stats.Rounds)
	}
	if _, err := CountSmallKeys(0, nil, 2); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	t.Parallel()
	names := map[Algorithm]string{
		Deterministic: "deterministic",
		LowCompute:    "low-compute",
		AlgorithmAuto: "auto",
		Algorithm(3):  "algorithm(3)",
		Algorithm(4):  "algorithm(4)",
		Algorithm(42): "algorithm(42)",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

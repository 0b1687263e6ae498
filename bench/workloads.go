package main

import (
	"fmt"
	"math/rand"

	cc "congestedclique"
	"congestedclique/internal/workload"
)

// unit is one public call — a Route or a Sort — on one generated instance.
// The programs under test only ever see msgs/values, never the seed.
type unit struct {
	name   string
	msgs   [][]cc.Message // Route input; nil for a Sort
	values [][]int64      // Sort input; nil for a Route
	// want is the digest every result must reproduce. For a Route it is
	// computed from the input alone (each node must hold exactly the
	// messages addressed to it); for a Sort it is the digest of the result
	// internal/verify accepted during set-up.
	want uint64
	// stats is the model cost of the result set-up verified.
	stats cc.Stats
	// weight is the unit's share of an op in the traced ladder (1 unless the
	// op mix is probabilistic, as in svc_mixed).
	weight float64
	// small marks svc_mixed's small batchable requests.
	small bool
}

func (u *unit) isSort() bool { return u.values != nil }

// cycleFn returns the ops of loop iteration i; each op is the list of units
// timed together as one sample. Passes always run whole cycles, so per-op
// model costs are exact whatever the run length.
type cycleFn func(i int) ([][]*unit, error)

// spec is one benchmark workload. The fields mirror the handle options the
// workload runs under so that the traced ladder can drive internal/core
// exactly as the session would.
type spec struct {
	name      string
	n, shortN int
	// tail is the percentile op_tail_cal reports: the highest one the
	// workload's sample count per run supports.
	tail     float64
	auto     bool // AlgorithmAuto (planner runs); else Deterministic
	sparse   bool // WithSparsePath
	cacheCap int  // WithPlanCache capacity; 0 = off
	service  bool // ops go through an in-process service.Server over loopback
	build    func(n int, seed int64) (cycleFn, error)
}

func (s *spec) options() []cc.Option {
	var opts []cc.Option
	if s.auto {
		opts = append(opts, cc.WithAlgorithm(cc.AlgorithmAuto))
	}
	if s.sparse {
		opts = append(opts, cc.WithSparsePath())
	}
	if s.cacheCap > 0 {
		opts = append(opts, cc.WithPlanCache(s.cacheCap))
	}
	if s.service {
		opts = append(opts, cc.WithMaxConcurrency(svcConcurrency))
	}
	return opts
}

// census reports whether the handle charges the planner census on the wire.
func (s *spec) census() bool { return s.auto && s.cacheCap > 0 }

var specs = []*spec{
	{name: "route_full", n: 256, shortN: 64, tail: 75, build: buildRouteFull},
	{name: "sort_full", n: 196, shortN: 64, tail: 75, build: buildSortFull},
	{name: "auto_mix", n: 256, shortN: 64, tail: 90, auto: true, build: buildAutoMix},
	{name: "sparse_scale", n: 4096, shortN: 64, tail: 90, auto: true, sparse: true, build: buildSparseScale},
	{name: "cache_drift", n: 256, shortN: 64, tail: 90, auto: true, cacheCap: 8, build: buildCacheDrift},
	{name: "svc_mixed", n: 64, shortN: 16, tail: 99, auto: true, cacheCap: 8, service: true, build: buildSvcMixed},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func routeUnit(name string, ri *workload.RoutingInstance) *unit {
	msgs := make([][]cc.Message, ri.N)
	for i, row := range ri.Msgs {
		msgs[i] = make([]cc.Message, len(row))
		for j, m := range row {
			msgs[i][j] = cc.Message(m)
		}
	}
	return &unit{name: name, msgs: msgs, want: digestRouteInput(msgs), weight: 1}
}

func sortUnit(name string, si *workload.SortingInstance) (*unit, error) {
	values, err := workload.SortScenarioValues(si)
	if err != nil {
		return nil, err
	}
	return &unit{name: name, values: values, weight: 1}, nil
}

// static is the cycle of a workload whose every iteration is one op over the
// same units.
func static(units ...*unit) cycleFn {
	ops := [][]*unit{units}
	return func(int) ([][]*unit, error) { return ops, nil }
}

func buildRouteFull(n int, seed int64) (cycleFn, error) {
	ri, err := workload.NewRoutingInstance(n, n, workload.RoutingUniform, seed)
	if err != nil {
		return nil, err
	}
	return static(routeUnit("route-uniform-full", ri)), nil
}

func buildSortFull(n int, seed int64) (cycleFn, error) {
	si, err := workload.NewSortingInstance(n, n, workload.KeysUniform, seed)
	if err != nil {
		return nil, err
	}
	u, err := sortUnit("sort-uniform-full", si)
	if err != nil {
		return nil, err
	}
	return static(u), nil
}

func buildAutoMix(n int, seed int64) (cycleFn, error) {
	var units []*unit
	for _, name := range []string{"sparse", "broadcast", "multicast", "hotspot-sink", "empty"} {
		sc, ok := workload.ScenarioByName(name)
		if !ok {
			return nil, fmt.Errorf("routing scenario %q missing from the catalog", name)
		}
		ri, err := sc.Build(n, seed)
		if err != nil {
			return nil, err
		}
		units = append(units, routeUnit(name, ri))
	}
	for _, name := range []string{"sort-presorted", "sort-near-sorted", "sort-duplicate-heavy"} {
		sc, ok := workload.SortScenarioByName(name)
		if !ok {
			return nil, fmt.Errorf("sorting scenario %q missing from the catalog", name)
		}
		si, err := sc.Build(n, seed)
		if err != nil {
			return nil, err
		}
		u, err := sortUnit(name, si)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return static(units...), nil
}

func buildSparseScale(n int, seed int64) (cycleFn, error) {
	sr, err := workload.ScaleSparseRoute(n, seed)
	if err != nil {
		return nil, err
	}
	br, err := workload.ScaleBroadcastRoute(n)
	if err != nil {
		return nil, err
	}
	su := &unit{name: "scale-presorted", values: workload.ScalePresortedValues(n), weight: 1}
	return static(routeUnit("scale-sparse", sr), routeUnit("scale-broadcast", br), su), nil
}

// driftPhase is how many times cache_drift presents each instance: one
// plan-cache miss followed by driftPhase-1 hits, the drift-shuffle trace's
// own phase length.
const driftPhase = 4

// buildCacheDrift continues the drift-shuffle trace's rule past its eight
// variants: cycle i swaps one more adjacent destination pair, in row i mod n,
// and presents the result driftPhase times. Row multisets are preserved (the
// instance stays a legal full load) but the ordered sequence the cached
// schedule depends on never repeats, so every cycle is exactly one miss and
// driftPhase-1 hits, whatever the run length.
func buildCacheDrift(n int, seed int64) (cycleFn, error) {
	sc, ok := workload.TemporalScenarioByName("drift-shuffle")
	if !ok {
		return nil, fmt.Errorf("temporal scenario drift-shuffle missing from the catalog")
	}
	tr, err := sc.Build(n, seed)
	if err != nil {
		return nil, err
	}
	cur := routeUnit("drift-shuffle", tr.Distinct[0])
	rng := rand.New(rand.NewSource(seed))
	next := 0
	return func(i int) ([][]*unit, error) {
		if i != next {
			return nil, fmt.Errorf("cache_drift cycles must run in order: got %d, want %d", i, next)
		}
		next++
		// The previous cycle's ops are over, so its instance can drift in
		// place; the plan cache keeps its own copy of what it stored.
		if i > 0 {
			row := cur.msgs[i%n]
			j := rng.Intn(n - 1)
			row[j].Dst, row[j+1].Dst = row[j+1].Dst, row[j].Dst
			cur.want = digestRouteInput(cur.msgs)
		}
		ops := make([][]*unit, driftPhase)
		for k := range ops {
			ops[k] = []*unit{cur}
		}
		return ops, nil
	}, nil
}

// svc_mixed's request mix: 80% small batchable sparse Routes over four
// instances, 10% full-load Route, 10% full-load Sort. Requests come in blocks
// of svcBlock, each a seeded shuffle holding exactly that mix, so that the
// model cost per op is the same for every seed and run length.
const (
	svcSmallKinds = 4
	svcSmallShare = 0.8
	svcFullShare  = 0.1
	svcBlock      = 10
)

// buildSvcMixed returns the six distinct request kinds as one op with the
// mix's weights; the request sequence itself is drawn in service.go.
func buildSvcMixed(n int, seed int64) (cycleFn, error) {
	sc, ok := workload.ScenarioByName("sparse")
	if !ok {
		return nil, fmt.Errorf("routing scenario sparse missing from the catalog")
	}
	var units []*unit
	for k := 0; k < svcSmallKinds; k++ {
		ri, err := sc.Build(n, seed*svcSmallKinds+int64(k))
		if err != nil {
			return nil, err
		}
		u := routeUnit(fmt.Sprintf("small-sparse-%d", k), ri)
		u.weight, u.small = svcSmallShare/svcSmallKinds, true
		units = append(units, u)
	}
	ri, err := workload.NewRoutingInstance(n, n, workload.RoutingUniform, seed)
	if err != nil {
		return nil, err
	}
	fr := routeUnit("route-uniform-full", ri)
	fr.weight = svcFullShare
	si, err := workload.NewSortingInstance(n, n, workload.KeysUniform, seed)
	if err != nil {
		return nil, err
	}
	fs, err := sortUnit("sort-uniform-full", si)
	if err != nil {
		return nil, err
	}
	fs.weight = svcFullShare
	return static(append(units, fr, fs)...), nil
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func msgHash(m cc.Message) uint64 {
	h := mix64(uint64(m.Src) + 0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(m.Seq))
	return mix64(h ^ uint64(m.Payload))
}

func chainRow(d, rowSum uint64, rowLen int) uint64 {
	return mix64(d^rowSum) + uint64(rowLen)
}

// digestDelivered digests a delivery: rows chained in node order, messages
// within a row summed, so it accepts both the engine's order and the wire
// protocol's canonical order. A message filed under the wrong node poisons
// its row.
func digestDelivered(rows [][]cc.Message) uint64 {
	var d uint64
	for i, row := range rows {
		var s uint64
		for _, m := range row {
			if m.Dst != i {
				s += 0xdeadbeef
			}
			s += msgHash(m)
		}
		d = chainRow(d, s, len(row))
	}
	return d
}

// digestRouteInput is the digest a correct delivery of msgs must have:
// every message exactly once, at its destination.
func digestRouteInput(msgs [][]cc.Message) uint64 {
	sums := make([]uint64, len(msgs))
	lens := make([]int, len(msgs))
	for _, row := range msgs {
		for _, m := range row {
			sums[m.Dst] += msgHash(m)
			lens[m.Dst]++
		}
	}
	var d uint64
	for i := range sums {
		d = chainRow(d, sums[i], lens[i])
	}
	return d
}

// digestSorted digests a sorting result in order.
func digestSorted(batches [][]cc.Key, starts []int, total int) uint64 {
	d := uint64(total)
	for i, b := range batches {
		d = mix64(d ^ uint64(starts[i]))
		for _, k := range b {
			d = mix64(d^uint64(k.Value)) + uint64(k.Origin)<<20 + uint64(k.Seq)
		}
	}
	return d
}

package main

import (
	"context"
	"fmt"
	"time"

	cc "congestedclique"
	"congestedclique/internal/core"
	"congestedclique/internal/verify"
)

// The paper's bounds, checked on every set-up result: Theorem 3.7 and
// Theorem 4.5 round counts (plus the charged census where it runs) and a
// constant number of words per edge per round.
const (
	routeRoundBound = 16
	sortRoundBound  = 37
	edgeWordBound   = 64
)

// warmupOps is how many ops set-up runs (and fully verifies) before timing.
const warmupOps = 3

// env is one set-up workload: generated inputs plus the warm handle (or
// server) they run on.
type env struct {
	spec  *spec
	n     int
	cycle cycleFn
	next  int // next cycle index to run
	cl    *cc.Clique
	svc   *svcEnv

	attempted, failed int
	firstFailure      string
}

// cost is the model cost of executed ops, straight from their Stats.
type cost struct {
	rounds, words int64
	maxEdgeWords  int
}

func (c *cost) add(s cc.Stats) {
	c.rounds += int64(s.Rounds)
	c.words += s.TotalWords
	if s.MaxEdgeWords > c.maxEdgeWords {
		c.maxEdgeWords = s.MaxEdgeWords
	}
}

// result is what one unit's call returned, kept so that it can be checked
// outside the timed span.
type result struct {
	route *cc.RouteResult
	sort  *cc.SortResult
	err   error
}

func (e *env) fail(format string, args ...any) {
	e.failed++
	if e.firstFailure == "" {
		e.firstFailure = fmt.Sprintf(format, args...)
	}
}

// call runs one unit on the in-process handle.
func (e *env) call(u *unit) result {
	ctx := context.Background()
	if u.isSort() {
		res, err := e.cl.Sort(ctx, u.values)
		return result{sort: res, err: err}
	}
	res, err := e.cl.Route(ctx, u.msgs)
	return result{route: res, err: err}
}

// check compares a result's digest with the unit's golden and folds its
// model cost into c. It runs outside every timed span.
func (e *env) check(u *unit, r result, c *cost) {
	e.attempted++
	switch {
	case r.err != nil:
		e.fail("%s: %v", u.name, r.err)
	case u.isSort():
		if got := digestSorted(r.sort.Batches, r.sort.Starts, r.sort.Total); got != u.want {
			e.fail("%s: sorted result digest %x, golden %x", u.name, got, u.want)
		}
		c.add(r.sort.Stats)
	default:
		if got := digestDelivered(r.route.Delivered); got != u.want {
			e.fail("%s: delivery digest %x, golden %x", u.name, got, u.want)
		}
		c.add(r.route.Stats)
	}
}

// verifyGolden is the set-up check of one result: internal/verify's full
// oracle (exactly-once delivery; sorted, contiguous, balanced batches) and
// the paper's bounds. A Sort's digest becomes the unit's golden.
func (e *env) verifyGolden(u *unit, r result) error {
	e.attempted++
	if r.err != nil {
		return fmt.Errorf("%s: %w", u.name, r.err)
	}
	var stats cc.Stats
	bound := routeRoundBound
	if u.isSort() {
		input := stageKeys(e.n, u.values)
		results := make([]*core.SortResult, e.n)
		for i := range results {
			res := &core.SortResult{Start: r.sort.Starts[i], Total: r.sort.Total}
			for _, k := range r.sort.Batches[i] {
				res.Batch = append(res.Batch, core.Key(k))
			}
			results[i] = res
		}
		if err := verify.Sorting(input, results); err != nil {
			return fmt.Errorf("%s: %w", u.name, err)
		}
		u.want = digestSorted(r.sort.Batches, r.sort.Starts, r.sort.Total)
		stats = r.sort.Stats
		bound = sortRoundBound
		if e.spec.census() {
			bound += cc.SortCensusRounds
		}
	} else {
		if err := verify.Routing(toCoreRows(u.msgs), toCoreRows(r.route.Delivered)); err != nil {
			return fmt.Errorf("%s: %w", u.name, err)
		}
		stats = r.route.Stats
		if e.spec.census() {
			bound += cc.RouteCensusRounds
		}
	}
	if stats.Rounds > bound {
		return fmt.Errorf("%s: %d rounds, bound %d", u.name, stats.Rounds, bound)
	}
	if stats.MaxEdgeWords > edgeWordBound {
		return fmt.Errorf("%s: %d words on one edge in one round, bound %d", u.name, stats.MaxEdgeWords, edgeWordBound)
	}
	u.stats = stats
	return nil
}

// stageKeys labels plain values the way Clique.Sort does: Origin is the row,
// Seq the position in it.
func stageKeys(n int, values [][]int64) [][]core.Key {
	keys := make([][]core.Key, n)
	for i, row := range values {
		keys[i] = make([]core.Key, len(row))
		for j, v := range row {
			keys[i][j] = core.Key{Value: v, Origin: i, Seq: j}
		}
	}
	return keys
}

func toCoreRows(rows [][]cc.Message) [][]core.Message {
	out := make([][]core.Message, len(rows))
	for i, row := range rows {
		out[i] = make([]core.Message, len(row))
		for j, m := range row {
			out[i][j] = core.Message(m)
		}
	}
	return out
}

// setUp builds the workload's inputs from seed, starts its handle (and, for
// svc_mixed, the server and its connections), and runs whole cycles until at
// least warmupOps ops have been fully verified.
func setUp(s *spec, n int, seed int64) (*env, error) {
	cycle, err := s.build(n, seed)
	if err != nil {
		return nil, err
	}
	e := &env{spec: s, n: n, cycle: cycle}
	if e.cl, err = cc.New(n, s.options()...); err != nil {
		return nil, err
	}
	for ops := 0; ops < warmupOps; {
		cyc, err := e.nextCycle()
		if err != nil {
			e.close()
			return nil, err
		}
		for _, op := range cyc {
			for _, u := range op {
				if err := e.verifyGolden(u, e.call(u)); err != nil {
					e.close()
					return nil, err
				}
			}
			ops++
		}
	}
	if s.service {
		if e.svc, err = startService(e, seed); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *env) nextCycle() ([][]*unit, error) {
	cyc, err := e.cycle(e.next)
	e.next++
	return cyc, err
}

func (e *env) close() {
	if e.svc != nil {
		e.svc.stop()
	}
	e.cl.Close()
}

// Set-up is repeated at least minSetups times and then until setupBudgetS
// seconds have gone into it (at most maxSetups times): a 0.15 s set-up needs
// more repeats than a 0.6 s one for its median to hold still.
const (
	minSetups    = 3
	maxSetups    = 9
	setupBudgetS = 2.0
)

// timedSetUp sets the workload up repeatedly (once when short), closing all
// but the last, and returns the last with the median set-up time. Like every
// gated time it is taken relative to the calibration runs on either side of
// it, but it is reported in seconds: cal units times calRefS, that is seconds
// on a machine whose kernel takes calRefS.
func timedSetUp(s *spec, n int, seed int64, short bool, cal *calibrator) (*env, float64, error) {
	var e *env
	var times []float64
	var total float64
	before := cal.run()
	for len(times) == 0 || (!short && (len(times) < minSetups || (total < setupBudgetS && len(times) < maxSetups))) {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(s, n, seed); err != nil {
			return nil, 0, err
		}
		wall := time.Since(t0).Seconds()
		after := cal.run()
		times = append(times, wall/((before+after)/2)*calRefS)
		total += wall
		before = after
	}
	return e, median(times), nil
}

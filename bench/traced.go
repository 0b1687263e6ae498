package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	cc "congestedclique"
	"congestedclique/internal/bipartite"
	"congestedclique/internal/clique"
	"congestedclique/internal/core"
)

// The traced pass measures every layer from outside, by timing calls into
// public functions on the identical input, one rung of the ladder after the
// other:
//
//	service.call → session.run → planner.* + core.run → engine.replay
//
// A layer's self time is its rung minus the rungs below it. Spans carry the
// op's id and the rung that caused them and are written out when the pass
// ends; end-to-end metrics never come from this pass.

// span is one timed call at a layer boundary.
type span struct {
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	Cause   string  `json:"cause,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

// timed runs f inside a span and returns its duration in seconds.
func (t *tracer) timed(name, cause string, f func()) float64 {
	s := time.Now()
	f()
	e := time.Now()
	t.spans = append(t.spans, span{Op: t.op, Name: name, Cause: cause,
		StartUS: float64(s.Sub(t.t0).Nanoseconds()) / 1e3, EndUS: float64(e.Sub(t.t0).Nanoseconds()) / 1e3})
	return e.Sub(s).Seconds()
}

// meanUS is the mean duration in microseconds of the spans called name, or 0
// when the workload never made that call.
func (t *tracer) meanUS(name string) float64 {
	var sum float64
	var k int
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.EndUS - s.StartUS
			k++
		}
	}
	if k == 0 {
		return 0
	}
	return sum / float64(k)
}

// The rungs of the ladder, top down.
const (
	rService = iota
	rSession
	rPlanner
	rCore
	rEngine
	numRungs
)

// position collects the ladder samples of one unit slot of the cycle.
type position struct {
	weight float64
	small  bool                // svc_mixed: a small batchable request
	cal    [numRungs][]float64 // rung times in calibration units
	rawS   []float64           // session.run, seconds
	cpuS   []float64           // process CPU over session.run, seconds
	allocs [2][]float64        // mallocs over session.run, core.run
}

// counts are the exact work counts taken at the rung boundaries, each run
// weighted by its unit's share of an op.
type counts struct {
	ops                           int
	rounds, messages, words       float64 // engine.replay's own Metrics
	censusRounds                  float64
	hits, misses                  int64
	sessionRounds, sessionWords   float64
	maxEdgeWords                  int
	replayMismatch, digestFailure int
}

type ladder struct {
	e   *env
	cal *calibrator
	tr  *tracer
	nw  *clique.Network
	pc  *core.PlanCache
	mem memCounter

	positions   []*position
	opsPerCycle int
	calRuns     []float64
	n           counts
	colorMS     float64           // bipartite colouring per op
	coloured    map[*unit]float64 // colouring time of each unit already measured
	frameNS     float64           // frame codec per word
}

func newLadder(e *env, cal *calibrator) (*ladder, error) {
	// The bare engine is built the way the session builds its own.
	nw, err := clique.New(e.n, clique.WithSharedCache(true))
	if err != nil {
		return nil, err
	}
	l := &ladder{e: e, cal: cal, tr: &tracer{t0: time.Now()}, nw: nw, coloured: map[*unit]float64{}}
	if e.spec.cacheCap > 0 {
		l.pc = core.NewPlanCache(e.spec.cacheCap)
	}
	return l, nil
}

func (l *ladder) close() { l.nw.Close() }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// run climbs the ladder on whole cycles for at least seconds (and at least
// minCycles cycles).
func (l *ladder) run(seconds float64, minCycles int) error {
	if l.e.svc != nil {
		// The handle has seen svc_mixed's six instances during set-up; the
		// ladder's own plan cache must have too, or its first core runs would
		// be misses beside the session's hits.
		for _, u := range l.e.svc.kinds {
			if err := l.climb(&position{}, u, false); err != nil {
				return err
			}
		}
		l.n, l.calRuns, l.tr.spans = counts{}, nil, nil
	}
	start := time.Now()
	for cycles := 0; cycles < minCycles || time.Since(start).Seconds() < seconds; cycles++ {
		cyc, err := l.e.nextCycle()
		if err != nil {
			return err
		}
		l.opsPerCycle = len(cyc)
		p := 0
		for _, op := range cyc {
			for _, u := range op {
				if p == len(l.positions) {
					l.positions = append(l.positions, &position{weight: u.weight, small: u.small})
				}
				if err := l.climb(l.positions[p], u, cycles == 0); err != nil {
					return err
				}
				p++
			}
			l.n.ops++
		}
	}
	return nil
}

// climb runs every rung once on u, between two calibration runs.
func (l *ladder) climb(p *position, u *unit, first bool) error {
	e, tr := l.e, l.tr
	tr.op++
	c0 := l.cal.run()
	var t [numRungs]float64

	top := ""
	if e.svc != nil {
		var r reply
		t[rService] = tr.timed("service.call", "", func() { r = e.svc.call(e.svc.clients[0], u) })
		e.svc.check(u, r, &cost{})
		top = "service.call"
	}

	before := e.cl.CumulativeStats()
	m0, _ := l.mem.read()
	cpu0 := cpuSeconds()
	var res result
	t[rSession] = tr.timed("session.run", top, func() { res = e.call(u) })
	cpu1 := cpuSeconds()
	m1, _ := l.mem.read()
	after := e.cl.CumulativeStats()
	var c cost
	e.check(u, res, &c)
	l.n.sessionRounds += u.weight * float64(c.rounds)
	l.n.sessionWords += u.weight * float64(c.words)
	l.n.maxEdgeWords = max(l.n.maxEdgeWords, c.maxEdgeWords)
	l.n.hits += after.PlanCacheHits - before.PlanCacheHits
	l.n.misses += after.PlanCacheMisses - before.PlanCacheMisses
	p.rawS = append(p.rawS, t[rSession])
	p.cpuS = append(p.cpuS, cpu1-cpu0)
	p.allocs[0] = append(p.allocs[0], float64(m1-m0))

	var (
		rounds []clique.RoundStats
		step   bool
		err    error
	)
	if u.isSort() {
		t[rPlanner], t[rCore], step, err = l.coreSort(p, u)
	} else {
		t[rPlanner], t[rCore], step, err = l.coreRoute(p, u)
	}
	if err != nil {
		return fmt.Errorf("%s: core rung: %w", u.name, err)
	}
	rounds = l.nw.Metrics().PerRound
	if e.spec.census() {
		if u.isSort() {
			l.n.censusRounds += u.weight * cc.SortCensusRounds
		} else {
			l.n.censusRounds += u.weight * cc.RouteCensusRounds
		}
	}

	t[rEngine] = tr.timed("engine.replay", "core.run", func() { err = l.replay(rounds, step) })
	if err != nil {
		return fmt.Errorf("%s: engine replay: %w", u.name, err)
	}
	m := l.nw.Metrics()
	l.n.rounds += u.weight * float64(m.Rounds)
	l.n.messages += u.weight * float64(m.TotalMessages)
	l.n.words += u.weight * float64(m.TotalWords)
	if int64(m.Rounds) != c.rounds || m.TotalWords != c.words {
		l.n.replayMismatch++
	}

	c1 := l.cal.run()
	l.calRuns = append(l.calRuns, c0, c1)
	unit := (c0 + c1) / 2
	for r := range t {
		p.cal[r] = append(p.cal[r], t[r]/unit)
	}

	if first {
		l.frameNS += frameCodecNS(u) * u.weight
		if pipelined(res) && e.n <= 1024 {
			ms, done := l.coloured[u]
			if !done {
				var err error
				if ms, err = colourMS(e.n, u, res); err != nil {
					return fmt.Errorf("%s: colouring its demand: %w", u.name, err)
				}
				l.coloured[u] = ms
			}
			l.colorMS += ms * u.weight
		}
	}
	return nil
}

// pipelined reports whether the call ran the paper's full pipeline, the only
// arm that edge-colours demand.
func pipelined(r result) bool {
	if r.sort != nil {
		return r.sort.Strategy == cc.SortStrategyPipeline || r.sort.Strategy == 0
	}
	return r.route != nil && (r.route.Strategy == cc.StrategyPipeline || r.route.Strategy == 0)
}

// coreRoute is the planner and core rungs of one Route: the calls
// execUnit.route makes, on a bare engine, each inside its own span.
func (l *ladder) coreRoute(p *position, u *unit) (planner, run float64, step bool, err error) {
	s, n, tr := l.e.spec, l.e.n, l.tr
	in := toCoreRows(u.msgs) // staging is the session's work, not a rung below it
	var (
		plan core.RoutePlan
		sd   *core.SparseDemand
		fp   core.Fingerprint
		hit  bool
	)
	if s.auto {
		if s.sparse {
			planner += tr.timed("planner.sparse_build", "session.run", func() { sd, err = core.NewSparseDemand(n, in) })
			if err != nil {
				return 0, 0, false, err
			}
		}
		if l.pc != nil {
			tr.timed("planner.fingerprint", "", func() { core.RouteFingerprint(n, in) })
			var h *core.RouteHit
			planner += tr.timed("planner.cache_lookup", "session.run", func() { fp, h = l.pc.LookupRoute(n, in) })
			if h != nil {
				tr.spans[len(tr.spans)-1].Name = "planner.cache_lookup_hit"
				hit = true
				plan = h.Plan
				plan.Sched = h.Sched
				if h.Shared.Len() > 0 {
					l.nw.ArmSharedSeed(h.Shared)
					defer l.nw.ArmSharedSeed(clique.SharedSnapshot{})
				}
			}
		}
		if !hit {
			if sd != nil {
				planner += tr.timed("planner.plan_sparse", "session.run", func() { plan = core.PlanRouteSparse(sd) })
			} else {
				planner += tr.timed("planner.plan_route", "session.run", func() { plan = core.PlanRoute(n, in) })
			}
			if l.pc != nil && plan.Strategy == core.StrategyPipeline {
				plan.Capture = core.NewRouteScheduleCapture(n)
			}
		}
		if l.pc != nil {
			plan.Census, plan.CensusHasFP, plan.CensusFP = true, true, fp.Hash
		}
	}

	out := make([][]core.Message, n)
	step = sd != nil && core.SparseStepCapable(plan.Strategy)
	m0, _ := l.mem.read()
	run = tr.timed("core.run", "session.run", func() {
		if step {
			var sr *core.SparseRouteRun
			if sr, err = core.NewSparseRouteRun(sd, plan); err != nil {
				return
			}
			if err = l.nw.RunRounds(sr.Step); err == nil {
				for i := range out {
					out[i] = sr.Output(i)
				}
			}
			return
		}
		err = l.nw.Run(func(nd *clique.Node) error {
			var o []core.Message
			var rErr error
			if s.auto {
				o, rErr = core.AutoRoute(nd, in[nd.ID()], plan)
			} else {
				o, rErr = core.Route(nd, in[nd.ID()])
			}
			out[nd.ID()] = o
			return rErr
		})
	})
	m1, _ := l.mem.read()
	if err != nil {
		return 0, 0, false, err
	}
	p.allocs[1] = append(p.allocs[1], float64(m1-m0))
	if l.pc != nil && !hit {
		planner += tr.timed("planner.cache_store", "session.run", func() {
			l.pc.StoreRoute(fp, n, in, plan, plan.Capture, l.nw.CaptureShared())
		})
	}

	delivered := make([][]cc.Message, n)
	for i, row := range out {
		for _, m := range row {
			delivered[i] = append(delivered[i], cc.Message(m))
		}
	}
	if digestDelivered(delivered) != u.want {
		l.n.digestFailure++
	}
	return planner, run, step, nil
}

// coreSort is coreRoute for one Sort (execUnit.sortStaged's calls).
func (l *ladder) coreSort(p *position, u *unit) (planner, run float64, step bool, err error) {
	s, n, tr := l.e.spec, l.e.n, l.tr
	in := stageKeys(n, u.values)
	var (
		plan core.SortPlan
		fp   core.Fingerprint
		hit  bool
	)
	if s.auto {
		if l.pc != nil {
			tr.timed("planner.fingerprint", "", func() { core.SortFingerprint(n, in) })
			var h *core.SortHit
			planner += tr.timed("planner.cache_lookup", "session.run", func() { fp, h, _ = l.pc.LookupSort(n, in) })
			if h != nil {
				tr.spans[len(tr.spans)-1].Name = "planner.cache_lookup_hit"
				hit = true
				plan = h.Plan
				if h.Shared.Len() > 0 {
					l.nw.ArmSharedSeed(h.Shared)
					defer l.nw.ArmSharedSeed(clique.SharedSnapshot{})
				}
			}
		}
		if !hit {
			planner += tr.timed("planner.plan_sort", "session.run", func() { plan = core.PlanSort(n, in) })
		}
		if l.pc != nil {
			plan.Census, plan.CensusHasFP, plan.CensusFP = true, true, fp.Hash
		}
	}

	out := make([]*core.SortResult, n)
	step = s.auto && s.sparse && core.SparseSortStepCapable(plan.Strategy)
	m0, _ := l.mem.read()
	run = tr.timed("core.run", "session.run", func() {
		if step {
			var sr *core.SparseSortRun
			if sr, err = core.NewSparseSortRun(n, in, plan); err != nil {
				return
			}
			if err = l.nw.RunRounds(sr.Step); err == nil {
				for i := range out {
					out[i] = sr.Result(i)
				}
			}
			return
		}
		err = l.nw.Run(func(nd *clique.Node) error {
			var o *core.SortResult
			var sErr error
			if s.auto {
				o, sErr = core.AutoSort(nd, in[nd.ID()], plan)
			} else {
				o, sErr = core.Sort(nd, in[nd.ID()])
			}
			out[nd.ID()] = o
			return sErr
		})
	})
	m1, _ := l.mem.read()
	if err != nil {
		return 0, 0, false, err
	}
	p.allocs[1] = append(p.allocs[1], float64(m1-m0))
	if l.pc != nil && !hit {
		planner += tr.timed("planner.cache_store", "session.run", func() {
			l.pc.StoreSort(fp, n, in, plan, l.nw.CaptureShared())
		})
	}

	batches := make([][]cc.Key, n)
	starts := make([]int, n)
	total := 0
	for i, r := range out {
		starts[i], total = r.Start, r.Total
		for _, k := range r.Batch {
			batches[i] = append(batches[i], cc.Key(k))
		}
	}
	if digestSorted(batches, starts, total) != u.want {
		l.n.digestFailure++
	}
	return planner, run, step, nil
}

// replay drives the bare engine through the recorded per-round traffic of an
// op — the same number of messages and words every round, spread evenly over
// senders and edges as one frame per busy edge — with no protocol compute.
// step selects the worker-pool scheduler the sparse executors use.
func (l *ladder) replay(rounds []clique.RoundStats, step bool) error {
	n := l.e.n
	maxLen := 1
	for _, r := range rounds {
		if k := r.Words + r.Messages + 1; k > maxLen {
			maxLen = k
		}
	}
	buf := make([]clique.Word, maxLen) // read-only, shared by every sender
	send := func(nd *clique.Node, r clique.RoundStats) {
		active := min(r.Messages, n)
		i := nd.ID()
		if i >= active {
			return
		}
		msgs, words := share(r.Messages, active, i), share(r.Words, active, i)
		edges := min(msgs, n)
		for e := 0; e < edges; e++ {
			c, w := share(msgs, edges, e), share(words, edges, e)
			nd.SendFramed((i+e)%n, buf[:w+c+1], c, w)
		}
	}
	if step {
		return l.nw.RunRounds(func(nd *clique.Node, round int, _ clique.Inbox) (bool, error) {
			if round >= len(rounds) {
				return true, nil
			}
			send(nd, rounds[round])
			return false, nil
		})
	}
	return l.nw.Run(func(nd *clique.Node) error {
		for _, r := range rounds {
			send(nd, r)
			if _, err := nd.Exchange(); err != nil {
				return err
			}
		}
		return nil
	})
}

// share is part i's size when total is split into parts near-equal parts.
func share(total, parts, i int) int {
	s := total / parts
	if i < total%parts {
		s++
	}
	return s
}

// frameCodecNS times core.AppendFrame + core.DecodeFrame over the unit's
// rows (one frame per source row) and returns nanoseconds per payload word.
func frameCodecNS(u *unit) float64 {
	var rows [][][]clique.Word
	words := 0
	for _, row := range u.msgs {
		var msgs [][]clique.Word
		for _, m := range row {
			msgs = append(msgs, []clique.Word{clique.Word(m.Dst), clique.Word(m.Seq), m.Payload})
			words += 3
		}
		rows = append(rows, msgs)
	}
	for _, row := range u.values {
		var msgs [][]clique.Word
		for _, v := range row {
			msgs = append(msgs, []clique.Word{v})
			words++
		}
		rows = append(rows, msgs)
	}
	if words == 0 {
		return 0
	}
	var frame []clique.Word
	var dec [][]clique.Word
	const reps = 5
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, msgs := range rows {
			frame = core.AppendFrame(frame[:0], msgs...)
			dec, _ = core.DecodeFrame(dec[:0], frame)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps*words)
}

// colourMS times bipartite.ColorDemandMatrix on the unit's n×n demand: who
// sends how many messages to whom, or for a Sort which node's keys end up in
// which node's batch.
func colourMS(n int, u *unit, r result) (float64, error) {
	demand := make([][]int, n)
	for i := range demand {
		demand[i] = make([]int, n)
	}
	for _, row := range u.msgs {
		for _, m := range row {
			demand[m.Src][m.Dst]++
		}
	}
	if r.sort != nil {
		for i, b := range r.sort.Batches {
			for _, k := range b {
				demand[k.Origin][i]++
			}
		}
	}
	d := bipartite.MaxRowColSum(demand)
	if d == 0 {
		return 0, nil
	}
	t0 := time.Now()
	dc, err := bipartite.ColorDemandMatrix(demand, d)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return 0, err
	}
	return ms, dc.Validate(demand)
}

// exactCount strips the float noise that summing fractional weights leaves
// on a count, so that exact metrics compare equal across passes.
func exactCount(x float64) float64 { return math.Round(x*1e6) / 1e6 }

// perOp folds one per-position statistic into a per-op figure: the weighted
// sum over the cycle's unit slots, divided by the cycle's op count.
func (l *ladder) perOp(f func(*position) float64) float64 {
	var s float64
	for _, p := range l.positions {
		s += p.weight * f(p)
	}
	return s / float64(l.opsPerCycle)
}

func (l *ladder) rungCal(r int) float64 {
	return l.perOp(func(p *position) float64 { return median(p.cal[r]) })
}

// engineMicro times the engine's fixed costs at the workload's n: starting a
// run, one empty barrier round, one empty step sweep, and construction.
func (l *ladder) engineMicro() (runFixedUS, barrierUS, sweepUS, newMS float64, err error) {
	const rounds = 64
	timeRun := func(reps int, f func() error) float64 {
		var ts []float64
		for r := 0; r < reps && err == nil; r++ {
			t0 := time.Now()
			err = f()
			ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		return median(ts)
	}
	runFixedUS = timeRun(15, func() error { return l.nw.Run(func(*clique.Node) error { return nil }) })
	barrier := timeRun(5, func() error {
		return l.nw.Run(func(nd *clique.Node) error {
			for r := 0; r < rounds; r++ {
				if _, err := nd.Exchange(); err != nil {
					return err
				}
			}
			return nil
		})
	})
	barrierUS = max(barrier-runFixedUS, 0) / rounds
	sweepUS = timeRun(5, func() error {
		return l.nw.RunRounds(func(_ *clique.Node, round int, _ clique.Inbox) (bool, error) { return round >= rounds, nil })
	}) / rounds
	newMS = timeRun(3, func() error {
		nw, err := clique.New(l.e.n, clique.WithSharedCache(true))
		if err != nil {
			return err
		}
		return nw.Close()
	}) / 1e3
	return runFixedUS, barrierUS, sweepUS, newMS, err
}

// sessionNewMS times cc.New plus the first, cold op on u.
func sessionNewMS(e *env, u *unit) (float64, error) {
	t0 := time.Now()
	cl, err := cc.New(e.n, e.spec.options()...)
	if err != nil {
		return 0, err
	}
	cold := &env{spec: e.spec, n: e.n, cl: cl}
	r := cold.call(u)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	var c cost
	cold.check(u, r, &c)
	e.attempted += cold.attempted
	if cold.failed > 0 {
		e.fail("cold handle: %s", cold.firstFailure)
	}
	return ms, cl.Close()
}

// tracedPass produces every per-layer metric and writes the span file.
func tracedPass(e *env, cal *calibrator, seconds float64, short bool, outDir string) (map[string]metric, error) {
	l, err := newLadder(e, cal)
	if err != nil {
		return nil, err
	}
	defer l.close()
	ladderShare, minCycles, minOps := 0.6, 3, 5
	if e.svc != nil {
		ladderShare = 0.4
	}
	if short {
		minCycles, minOps = 2, 2
	}

	// An untraced mini-pass first, one caller, for the tracing overhead.
	if e.svc != nil {
		e.svc.callers = 1
	}
	plain, _, err := timedPass(e, cal, seconds*0.15, minOps)
	if e.svc != nil {
		e.svc.callers = svcCallers
	}
	if err != nil {
		return nil, err
	}
	plainOpCal := plain.windowCal() / float64(plain.ops())

	if err := l.run(seconds*ladderShare, minCycles); err != nil {
		return nil, err
	}
	runFixedUS, barrierUS, sweepUS, engineNewMS, err := l.engineMicro()
	if err != nil {
		return nil, fmt.Errorf("engine micro-benchmarks: %w", err)
	}
	cyc, err := e.nextCycle()
	if err != nil {
		return nil, err
	}
	newMS, err := sessionNewMS(e, cyc[0][0])
	if err != nil {
		return nil, err
	}

	// The ladder. Differences that come out negative (tiny ops, where a rung
	// costs less than the noise of the one above) are clamped to zero, and
	// what the clamping adds to the sum is reported, not hidden.
	service, session, planner, coreRun, engine := l.rungCal(rService), l.rungCal(rSession), l.rungCal(rPlanner), l.rungCal(rCore), l.rungCal(rEngine)
	coreSelf := max(coreRun-engine, 0)
	sessionSelf := max(session-planner-coreRun, 0)
	top, sum := session, engine+coreSelf+planner+sessionSelf
	if e.svc != nil {
		top, sum = service, sum+max(service-session, 0)
	}
	if l.n.replayMismatch > 0 {
		e.fail("engine.replay reproduced different rounds or words than the op it replays on %d runs", l.n.replayMismatch)
	}
	if l.n.digestFailure > 0 {
		e.fail("core.run returned a result that differs from the golden on %d runs", l.n.digestFailure)
	}

	ops := float64(l.n.ops)
	rawOpMS := l.perOp(func(p *position) float64 { return median(p.rawS) }) * 1e3
	engineNS := engine * median(l.calRuns) * 1e9
	wordsPerOp := l.n.words / ops
	roundsPerOp := l.n.rounds / ops
	deliverNS := 0.0
	if wordsPerOp > 0 {
		// What is left of the replay after its runs' fixed cost and its
		// rounds' barrier cost, per word delivered.
		runsPerOp := l.weightSum() / float64(l.opsPerCycle)
		deliverNS = max(engineNS-runFixedUS*1e3*runsPerOp-barrierUS*1e3*roundsPerOp, 0) / wordsPerOp
	}
	hitShare := 0.0
	if l.n.hits+l.n.misses > 0 {
		hitShare = float64(l.n.hits) / float64(l.n.hits+l.n.misses)
	}
	m := map[string]metric{
		"engine.replay_cal":              {engine, "cal"},
		"engine.deliver_ns_per_word":     {deliverNS, "ns"},
		"engine.barrier_us_per_round":    {barrierUS, "us"},
		"engine.run_fixed_us":            {runFixedUS, "us"},
		"engine.step_sweep_us_per_round": {sweepUS, "us"},
		"engine.new_ms":                  {engineNewMS, "ms"},
		"engine.rounds":                  {exactCount(roundsPerOp), "rounds/op"},
		"engine.messages":                {exactCount(l.n.messages / ops), "count/op"},
		"engine.words":                   {exactCount(wordsPerOp), "words/op"},
		"engine.max_edge_words":          {float64(l.n.maxEdgeWords), "words"},
		"core.run_cal":                   {coreRun, "cal"},
		"core.self_cal":                  {coreSelf, "cal"},
		"core.self_share":                {coreSelf / top, "share"},
		"core.frame_ns_per_word":         {l.frameNS / l.weightSum(), "ns"},
		"core.allocs_per_op":             {l.perOp(func(p *position) float64 { return median(p.allocs[1]) }), "count"},
		"bipartite.color_ms":             {l.colorMS / float64(l.opsPerCycle), "ms"},
		"planner.plan_route_us":          {l.tr.meanUS("planner.plan_route"), "us"},
		"planner.plan_sort_us":           {l.tr.meanUS("planner.plan_sort"), "us"},
		"planner.plan_sparse_us":         {l.tr.meanUS("planner.plan_sparse"), "us"},
		"planner.sparse_build_us":        {l.tr.meanUS("planner.sparse_build"), "us"},
		"planner.fingerprint_us":         {l.tr.meanUS("planner.fingerprint"), "us"},
		"planner.cache_lookup_hit_us":    {l.tr.meanUS("planner.cache_lookup_hit"), "us"},
		"planner.cache_store_us":         {l.tr.meanUS("planner.cache_store"), "us"},
		"planner.self_cal":               {planner, "cal"},
		"planner.hit_share":              {hitShare, "share"},
		"planner.census_rounds_per_op":   {exactCount(l.n.censusRounds / ops), "rounds"},
		"session.run_cal":                {session, "cal"},
		"session.self_cal":               {sessionSelf, "cal"},
		"session.allocs_per_op":          {l.perOp(func(p *position) float64 { return median(p.allocs[0]) }), "count"},
		"session.new_ms":                 {newMS, "ms"},
		"host.cal_p50_ms":                {median(l.calRuns) * 1e3, "ms"},
		"host.cal_iqr_share":             {iqrShare(l.calRuns), "share"},
		"host.op_p50_ms":                 {rawOpMS, "ms"},
		"host.ops_per_s":                 {float64(plain.ops()) / sumWall(plain), "1/s"},
		"host.cpu_ms_per_op":             {l.perOp(func(p *position) float64 { return median(p.cpuS) }) * 1e3, "ms"},
		"host.trace_overhead_share":      {top/plainOpCal - 1, "share"},
		"host.ladder_residual_share":     {sum/top - 1, "share"},
		"host.nproc":                     {float64(runtime.NumCPU()), "count"},
		"host.gomaxprocs":                {float64(runtime.GOMAXPROCS(0)), "count"},
	}
	svc := map[string]metric{
		"service.call_small_cal":       {0, "cal"},
		"service.call_full_cal":        {0, "cal"},
		"service.self_small_cal":       {0, "cal"},
		"service.self_full_cal":        {0, "cal"},
		"service.queue_cal":            {0, "cal"},
		"service.batched_share":        {0, "share"},
		"service.rounds_per_op":        {0, "rounds"},
		"service.words_per_op":         {0, "words"},
		"service.retries":              {0, "count"},
		"service.failed_ops":           {0, "count"},
		"service.open.p99_cal.r100":    {0, "cal"},
		"service.open.shed_share.r400": {0, "share"},
		"service.open.max_rate_ok":     {0, "1/s"},
		"service.open.late_p99_ms":     {0, "ms"},
		"service.open.offered":         {0, "count"},
	}
	if e.svc != nil {
		if err := l.serviceLayer(svc, seconds); err != nil {
			return nil, err
		}
	}
	for name, v := range svc {
		m[name] = v
	}
	return m, l.writeSpans(outDir, m)
}

func sumWall(s *samples) float64 {
	var w float64
	for _, sl := range s.slices {
		w += sl.wall
	}
	return w
}

func (l *ladder) weightSum() float64 {
	var w float64
	for _, p := range l.positions {
		w += p.weight
	}
	return w
}

// kindCal is the weight-averaged median of rung r over the positions pick
// selects.
func (l *ladder) kindCal(r int, pick func(*position) bool) float64 {
	var s, w float64
	for _, p := range l.positions {
		if pick(p) {
			s += p.weight * median(p.cal[r])
			w += p.weight
		}
	}
	if w == 0 {
		return 0
	}
	return s / w
}

// writeSpans writes the pass's spans, exact counts and metrics to
// <outDir>/trace-<workload>.json.
func (l *ladder) writeSpans(outDir string, m map[string]metric) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		N        int                `json:"n"`
		Counts   map[string]float64 `json:"counts"`
		Metrics  map[string]metric  `json:"metrics"`
		Spans    []span             `json:"spans"`
	}{
		Workload: l.e.spec.name, N: l.e.n, Metrics: m, Spans: l.tr.spans,
		Counts: map[string]float64{
			"ops": float64(l.n.ops), "engine.rounds": l.n.rounds, "engine.messages": l.n.messages, "engine.words": l.n.words,
			"session.rounds": l.n.sessionRounds, "session.words": l.n.sessionWords,
			"planner.cache_hits": float64(l.n.hits), "planner.cache_misses": float64(l.n.misses), "planner.census_rounds": l.n.censusRounds,
		},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+l.e.spec.name+".json"), data, 0o644)
}

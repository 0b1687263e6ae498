package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	cc "congestedclique"
	"congestedclique/internal/service"
)

// svc_mixed's shape: an in-process server on the host's loopback interface
// (not a real link), two TCP connections with two closed-loop callers each.
const (
	svcConcurrency = 2
	svcQueueDepth  = 8
	svcBatchMaxOps = 4
	svcConns       = 2
	svcCallers     = 4
	svcSliceOps    = 250
)

// svcEnv is the running server, its connections and the seeded request
// sequence of svc_mixed.
type svcEnv struct {
	e       *env
	srv     *service.Server
	served  chan error
	clients []*service.Client
	kinds   []*unit
	rng     *rand.Rand
	block   []*unit // what is left of the current block of the mix
	callers int     // closed-loop callers in flight during a timed pass
}

func startService(e *env, seed int64) (*svcEnv, error) {
	cyc, err := e.cycle(0)
	if err != nil {
		return nil, err
	}
	sv := &svcEnv{e: e, kinds: cyc[0], rng: rand.New(rand.NewSource(seed)), served: make(chan error, 1), callers: svcCallers}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv.srv, err = service.NewServer(service.Config{
		N:                 e.n,
		MaxConcurrency:    svcConcurrency,
		QueueDepth:        svcQueueDepth,
		BatchMaxOps:       svcBatchMaxOps,
		Algorithm:         cc.AlgorithmAuto,
		PlanCacheCapacity: e.spec.cacheCap,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	go func() { sv.served <- sv.srv.Serve(ln) }()
	for i := 0; i < svcConns; i++ {
		cl, err := service.Dial(ln.Addr().String())
		if err != nil {
			sv.stop()
			return nil, err
		}
		sv.clients = append(sv.clients, cl)
	}
	// Warm the server with one request of every kind, checked like any other.
	for _, u := range sv.kinds {
		sv.check(u, sv.call(sv.clients[0], u), &cost{})
	}
	if e.failed > 0 {
		sv.stop()
		return nil, fmt.Errorf("service warm-up: %s", e.firstFailure)
	}
	return sv, nil
}

// stop closes the connections, drains the server and waits for Serve to
// return.
func (sv *svcEnv) stop() {
	for _, cl := range sv.clients {
		cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sv.srv.Shutdown(ctx)
	<-sv.served
}

// reply is one request's outcome over the wire.
type reply struct {
	route *service.RouteReply
	sort  *service.SortReply
	err   error
}

func (sv *svcEnv) call(cl *service.Client, u *unit) reply {
	if u.isSort() {
		rep, err := cl.Sort(u.values, nil)
		return reply{sort: rep, err: err}
	}
	rep, err := cl.Route(u.msgs, nil)
	return reply{route: rep, err: err}
}

// check digests a reply against the unit's golden and charges c the
// request's model cost; shed and failed requests count as failures.
func (sv *svcEnv) check(u *unit, r reply, c *cost) {
	e := sv.e
	e.attempted++
	c.add(u.stats)
	switch {
	case r.err != nil:
		e.fail("%s over the wire: %v", u.name, r.err)
	case u.isSort():
		if got := digestSorted(r.sort.Batches, r.sort.Starts, r.sort.Total); got != u.want {
			e.fail("%s over the wire: sorted result digest %x, golden %x", u.name, got, u.want)
		}
	default:
		if got := digestDelivered(r.route.Delivered); got != u.want {
			e.fail("%s over the wire: delivery digest %x, golden %x", u.name, got, u.want)
		}
	}
}

// draw returns the next request of the seeded mix: blocks of svcBlock
// requests, each holding every kind in exactly its share, shuffled.
func (sv *svcEnv) draw() *unit {
	if len(sv.block) == 0 {
		for _, u := range sv.kinds {
			for k := 0; k < int(u.weight*svcBlock+0.5); k++ {
				sv.block = append(sv.block, u)
			}
		}
		sv.rng.Shuffle(len(sv.block), func(i, j int) { sv.block[i], sv.block[j] = sv.block[j], sv.block[i] })
	}
	u := sv.block[len(sv.block)-1]
	sv.block = sv.block[:len(sv.block)-1]
	return u
}

// runSlice issues seq closed loop from callers goroutines spread over the
// connections and returns once all have finished, with every latency and
// reply.
func (sv *svcEnv) runSlice(seq []*unit, callers int) (wall float64, lat []float64, replies []reply) {
	lat = make([]float64, len(seq))
	replies = make([]reply, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(cl *service.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				s := time.Now()
				replies[i] = sv.call(cl, seq[i])
				lat[i] = time.Since(s).Seconds()
			}
		}(sv.clients[c%len(sv.clients)])
	}
	wg.Wait()
	return time.Since(t0).Seconds(), lat, replies
}

func (sv *svcEnv) stats() (*service.StatsReply, error) {
	st, err := sv.clients[0].ServerStats()
	if err != nil {
		return nil, fmt.Errorf("server stats: %w", err)
	}
	return st, nil
}

// timedPass is svc_mixed's timed pass: svcSliceOps-request slices between
// calibration runs. The model cost is that of the requests as asked (their
// set-up goldens), which repeats exactly; what the server really spent after
// batching some of them together is timing-dependent and is reported by the
// traced pass as service.rounds_per_op.
func (sv *svcEnv) timedPass(cal *calibrator, seconds float64, minOps int) (*samples, cost, error) {
	var (
		s   samples
		c   cost
		mem memCounter
	)
	before, err := sv.stats()
	if err != nil {
		return nil, c, err
	}
	start := time.Now()
	for s.ops() < minOps || time.Since(start).Seconds() < seconds {
		seq := make([]*unit, svcSliceOps)
		for i := range seq {
			seq[i] = sv.draw()
		}
		s.cal = append(s.cal, cal.run())
		m0, b0 := mem.read()
		wall, lat, replies := sv.runSlice(seq, sv.callers)
		m1, b1 := mem.read()
		s.slices = append(s.slices, slice{wall: wall, lat: lat, mallocs: m1 - m0, bytes: b1 - b0})
		for i, u := range seq {
			sv.check(u, replies[i], &c)
		}
	}
	s.cal = append(s.cal, cal.run())
	after, err := sv.stats()
	if err != nil {
		return nil, c, err
	}
	if d := (after.FailedOperations - before.FailedOperations) + (after.SheddedOps - before.SheddedOps); d > 0 && sv.e.failed == 0 {
		sv.e.fail("server reports %d failed or shed operations no caller saw", d)
	}
	return &s, c, nil
}

// openLoop offers rate requests per second for seconds on a seeded
// exponential schedule, whatever the completions, timing each request from
// the moment it was due. It reports latencies (seconds, successful requests),
// generator lateness (seconds), the shed count and the offered count.
func (sv *svcEnv) openLoop(rate, seconds float64) (lat, late []float64, shed, offered int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	due := 0.0
	for {
		due += sv.rng.ExpFloat64() / rate
		if due >= seconds {
			break
		}
		u := sv.draw()
		dueAt := start.Add(time.Duration(due * float64(time.Second)))
		time.Sleep(time.Until(dueAt))
		late = append(late, time.Since(dueAt).Seconds())
		cl := sv.clients[offered%len(sv.clients)]
		offered++
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := sv.call(cl, u)
			l := time.Since(dueAt).Seconds()
			mu.Lock()
			defer mu.Unlock()
			if errors.Is(r.err, service.ErrOverloaded) {
				// A shed request misses any latency limit; it is counted,
				// not timed, and is the overload policy working as designed.
				sv.e.attempted++
				shed++
				return
			}
			sv.check(u, r, &cost{})
			lat = append(lat, l)
		}()
	}
	wg.Wait()
	return lat, late, shed, offered
}

// openRates are the offered rates of the open-loop sweep, in requests per
// second; openLimitS is the latency limit on their 99th percentile.
var openRates = []float64{50, 100, 200, 400}

const openLimitS = 0.050

// serviceLayer fills in the service.* metrics: the wire-and-admission cost of
// a call with one in flight (from the ladder), what queueing behind svcCallers
// in flight adds to a small request, and the open-loop sweep.
func (l *ladder) serviceLayer(m map[string]metric, seconds float64) error {
	sv := l.e.svc
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	small := func(p *position) bool { return p.small }
	full := func(p *position) bool { return !p.small }
	set("service.call_small_cal", l.kindCal(rService, small))
	set("service.call_full_cal", l.kindCal(rService, full))
	set("service.self_small_cal", max(l.kindCal(rService, small)-l.kindCal(rSession, small), 0))
	set("service.self_full_cal", max(l.kindCal(rService, full)-l.kindCal(rSession, full), 0))

	// closed runs the seeded mix closed loop at the given number in flight
	// and returns the small requests' median latency, the share of Route
	// requests the server batched, and the rounds and words the server spent
	// per request.
	type closedStats struct{ smallP50, batched, rounds, words float64 }
	closed := func(callers int) (cs closedStats, err error) {
		before, err := sv.stats()
		if err != nil {
			return cs, err
		}
		var lats []float64
		ops, routes := 0, 0
		start := time.Now()
		for ops == 0 || time.Since(start).Seconds() < seconds*0.08 {
			seq := make([]*unit, 10*svcBlock)
			for i := range seq {
				seq[i] = sv.draw()
			}
			c0 := l.cal.run()
			_, lat, replies := sv.runSlice(seq, callers)
			unit := (c0 + l.cal.run()) / 2
			for i, u := range seq {
				sv.check(u, replies[i], &cost{})
				if u.small {
					lats = append(lats, lat[i]/unit)
				}
				if !u.isSort() {
					routes++
				}
			}
			ops += len(seq)
		}
		after, err := sv.stats()
		if err != nil {
			return cs, err
		}
		return closedStats{
			smallP50: median(lats),
			batched:  float64(after.BatchedOps-before.BatchedOps) / float64(routes),
			rounds:   float64(after.Rounds-before.Rounds) / float64(ops),
			words:    float64(after.TotalWords-before.TotalWords) / float64(ops),
		}, nil
	}
	one, err := closed(1)
	if err != nil {
		return err
	}
	many, err := closed(svcCallers)
	if err != nil {
		return err
	}
	set("service.queue_cal", max(many.smallP50-one.smallP50, 0))
	set("service.batched_share", many.batched)
	set("service.rounds_per_op", many.rounds)
	set("service.words_per_op", many.words)

	var late []float64
	maxOK, offeredAll := 0.0, 0
	for _, rate := range openRates {
		c0 := l.cal.run()
		lat, lt, shed, offered := sv.openLoop(rate, seconds*0.09)
		unit := (c0 + l.cal.run()) / 2
		late = append(late, lt...)
		offeredAll += offered
		p99 := percentile(lat, 99)
		if shed == 0 && p99 <= openLimitS && rate > maxOK {
			maxOK = rate
		}
		if rate == 100 {
			set("service.open.p99_cal.r100", p99/unit)
		}
		if rate == 400 && offered > 0 {
			set("service.open.shed_share.r400", float64(shed)/float64(offered))
		}
	}
	set("service.open.max_rate_ok", maxOK)
	set("service.open.late_p99_ms", percentile(late, 99)*1e3)
	set("service.open.offered", float64(offeredAll))

	st, err := sv.stats()
	if err != nil {
		return err
	}
	set("service.retries", float64(st.Retries))
	set("service.failed_ops", float64(st.FailedOperations))
	return nil
}

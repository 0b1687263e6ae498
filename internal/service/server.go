package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	cc "congestedclique"

	"congestedclique/internal/clique"
)

// Config parameterizes a Server. The zero value of every field selects a
// sensible default (see NewServer); only N is mandatory.
type Config struct {
	// N is the clique size every served instance must match.
	N int
	// MaxConcurrency bounds simultaneous engine runs (the session pool's
	// WithMaxConcurrency) and sets the worker count. Default 2.
	MaxConcurrency int
	// QueueDepth bounds the admission queue. A request arriving when the
	// queue is full is shed immediately with ErrOverloaded — the explicit
	// shed-over-queue policy: bounded memory and bounded queueing delay,
	// never unbounded buffering. Default 4×MaxConcurrency.
	QueueDepth int
	// BatchMaxOps caps how many compatible small Route requests one engine
	// run may serve. 1 disables batching. Default 1.
	BatchMaxOps int
	// BatchWait is how long a worker holding one batchable request waits for
	// companions before running (0 = opportunistic only: batch whatever is
	// already queued).
	BatchWait time.Duration
	// DefaultDeadline applies to requests that carry none (0 = unlimited).
	DefaultDeadline time.Duration
	// Retries and RetryBackoff are the transient-retry budget (WithRetry)
	// for requests that do not set their own.
	Retries      int
	RetryBackoff time.Duration
	// RoundDeadline, when > 0, arms the per-round watchdog on the handle.
	RoundDeadline time.Duration
	// Algorithm overrides the algorithm for every operation (0 = session
	// default).
	Algorithm cc.Algorithm
	// AllowFaultInjection permits requests to carry a FaultCancelRound
	// (chaos hook for faulted load runs). Off by default: a production
	// server must not let clients cancel engine rounds.
	AllowFaultInjection bool
	// PlanCacheCapacity, when > 0, arms the cross-run plan and schedule
	// cache on the handle (WithPlanCache): AlgorithmAuto requests carrying
	// demand the server has seen before reuse the validated plan, with the
	// census charged on the wire. 0 disables (the default).
	PlanCacheCapacity int
}

// Server is the network front-end: it accepts wire-protocol connections,
// admits requests through a bounded queue, and serves them on one pooled
// session handle. Create with NewServer, run with Serve, stop with Shutdown.
type Server struct {
	cfg Config
	cl  *cc.Clique

	queue   chan *pending
	workers sync.WaitGroup

	mu       sync.Mutex
	draining bool
	ln       net.Listener
	conns    map[net.Conn]struct{}
	served   bool

	// accepted tracks admitted-but-unfinished requests; Shutdown waits on it
	// before closing the queue.
	accepted sync.WaitGroup
	connWG   sync.WaitGroup

	shedded       atomic.Int64
	drainRejected atomic.Int64
	batchedRuns   atomic.Int64
	batchedOps    atomic.Int64

	shutdownOnce sync.Once
	shutdownErr  error
}

// pending is one admitted request awaiting a worker.
type pending struct {
	req      *Request
	conn     *serverConn
	admitted time.Time
	// deadline is the absolute deadline (zero = none), fixed at admission so
	// queueing time counts against the request's budget.
	deadline time.Time
}

// serverConn serializes response writes of one connection; workers finishing
// out of order interleave whole frames, never partial ones.
type serverConn struct {
	c     net.Conn
	mu    sync.Mutex
	frame []clique.Word
	buf   []byte
}

func (sc *serverConn) writeResponse(resp *Response) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.frame = encodeResponse(sc.frame[:0], resp)
	sc.buf = appendFrameBytes(sc.buf[:0], sc.frame)
	_, err := sc.c.Write(sc.buf)
	return err
}

// NewServer builds a server and its pooled session handle.
func NewServer(cfg Config) (*Server, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("service: clique size %d, need at least 2", cfg.N)
	}
	if cfg.MaxConcurrency <= 0 {
		cfg.MaxConcurrency = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.MaxConcurrency
	}
	if cfg.BatchMaxOps <= 0 {
		cfg.BatchMaxOps = 1
	}
	if cfg.Retries < 0 || cfg.RetryBackoff < 0 {
		return nil, errors.New("service: negative retry configuration")
	}
	if cfg.PlanCacheCapacity < 0 {
		return nil, errors.New("service: negative plan-cache capacity")
	}
	opts := []cc.Option{cc.WithMaxConcurrency(cfg.MaxConcurrency)}
	if cfg.RoundDeadline > 0 {
		opts = append(opts, cc.WithRoundDeadline(cfg.RoundDeadline))
	}
	if cfg.PlanCacheCapacity > 0 {
		opts = append(opts, cc.WithPlanCache(cfg.PlanCacheCapacity))
	}
	cl, err := cc.New(cfg.N, opts...)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cl:    cl,
		queue: make(chan *pending, cfg.QueueDepth),
		conns: make(map[net.Conn]struct{}),
	}
	s.workers.Add(cfg.MaxConcurrency)
	for i := 0; i < cfg.MaxConcurrency; i++ {
		go s.worker()
	}
	return s, nil
}

// Serve accepts connections on ln until Shutdown closes it. It returns nil
// on a drain-initiated stop and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrDraining
	}
	s.ln = ln
	s.served = true
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// handleConn reads requests off one connection until EOF, a protocol error,
// or shutdown. Ping and ServerStats are answered inline (they must stay
// responsive under overload); everything else goes through admission.
func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	sc := &serverConn{c: c}
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	limit := wireLimitWords(s.cfg.N)
	for {
		frame, err := readFrame(c, limit)
		if err != nil {
			// EOF and closed-connection errors end the session silently; a
			// malformed or oversized frame earns one last diagnostic (the
			// peer's framing is broken, so the ID is unknowable — 0).
			if errors.Is(err, errFrameTooLarge) {
				sc.writeResponse(&Response{Status: StatusInvalid, Err: err.Error()})
			}
			return
		}
		req, err := decodeRequest(frame, s.cfg.N)
		if err != nil {
			sc.writeResponse(&Response{Status: StatusInvalid, Err: err.Error()})
			return
		}
		switch req.Op {
		case OpPing:
			sc.writeResponse(&Response{ID: req.ID, PingN: s.cfg.N})
			continue
		case OpServerStats:
			st := s.Stats()
			sc.writeResponse(&Response{ID: req.ID, Stats: &st})
			continue
		}
		if req.FaultCancelRound >= 0 && !s.cfg.AllowFaultInjection {
			sc.writeResponse(&Response{ID: req.ID, Status: StatusUnsupported,
				Err: "service: fault injection disabled on this server"})
			continue
		}
		if rej := s.admit(req, sc); rej != nil {
			sc.writeResponse(rej)
		}
	}
}

// admit applies the drain check and the bounded-queue shed policy. It
// returns nil when the request was queued, or the rejection response.
func (s *Server) admit(req *Request, sc *serverConn) *Response {
	now := time.Now()
	p := &pending{req: req, conn: sc, admitted: now}
	d := req.Deadline
	if d == 0 {
		d = s.cfg.DefaultDeadline
	}
	if d > 0 {
		p.deadline = now.Add(d)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.drainRejected.Add(1)
		return &Response{ID: req.ID, Status: StatusDraining, Err: ErrDraining.Error()}
	}
	// Add under the same lock that guards draining: Shutdown flips draining
	// before waiting, so every Add either precedes the Wait or is rejected.
	s.accepted.Add(1)
	s.mu.Unlock()
	select {
	case s.queue <- p:
		return nil
	default:
		s.accepted.Done()
		s.shedded.Add(1)
		return &Response{ID: req.ID, Status: StatusOverloaded, Err: ErrOverloaded.Error()}
	}
}

// worker pulls admitted requests and serves them, batching compatible Route
// requests when configured. carry holds a request pulled during batch
// collection that could not join the batch.
func (s *Server) worker() {
	defer s.workers.Done()
	var carry *pending
	for {
		var p *pending
		if carry != nil {
			p, carry = carry, nil
		} else {
			var ok bool
			p, ok = <-s.queue
			if !ok {
				return
			}
		}
		if s.cfg.BatchMaxOps > 1 && batchable(p) {
			var batch []*pending
			batch, carry = s.collectBatch(p)
			s.runBatch(batch)
			continue
		}
		s.finish(p, s.execute(p))
	}
}

// finish writes the response and releases the request's admission slot. A
// write error means the client is gone; the result is dropped.
func (s *Server) finish(p *pending, resp *Response) {
	p.conn.writeResponse(resp)
	s.accepted.Done()
}

// execute serves one request on the session handle, honoring its deadline
// and retry budget, and maps the outcome to a wire response.
func (s *Server) execute(p *pending) *Response {
	req := p.req
	ctx := context.Background()
	if !p.deadline.IsZero() {
		if !time.Now().Before(p.deadline) {
			return errResponse(req.ID, context.DeadlineExceeded)
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, p.deadline)
		defer cancel()
	}
	opts := s.opOptions(req)
	switch req.Op {
	case OpRoute:
		res, err := s.cl.Route(ctx, req.Msgs, opts...)
		if err != nil {
			return errResponse(req.ID, err)
		}
		return routeResponse(req.ID, res.Delivered, res.Strategy)
	case OpSort:
		res, err := s.cl.Sort(ctx, req.Values, opts...)
		if err != nil {
			return errResponse(req.ID, err)
		}
		return sortResponse(req.ID, res)
	case OpSortKeys:
		res, err := s.cl.SortKeys(ctx, req.Keys, opts...)
		if err != nil {
			return errResponse(req.ID, err)
		}
		return sortResponse(req.ID, res)
	case OpRank:
		res, err := s.cl.Rank(ctx, req.Values, opts...)
		if err != nil {
			return errResponse(req.ID, err)
		}
		return &Response{ID: req.ID, Rank: &RankReply{DistinctTotal: res.DistinctTotal, Ranks: res.Ranks}}
	case OpSelectKth:
		key, _, err := s.cl.SelectKth(ctx, req.Values, int(req.Arg), opts...)
		if err != nil {
			return errResponse(req.ID, err)
		}
		return &Response{ID: req.ID, Key: &key}
	case OpMedian:
		key, _, err := s.cl.Median(ctx, req.Values, opts...)
		if err != nil {
			return errResponse(req.ID, err)
		}
		return &Response{ID: req.ID, Key: &key}
	case OpMode:
		res, err := s.cl.Mode(ctx, req.Values, opts...)
		if err != nil {
			return errResponse(req.ID, err)
		}
		return &Response{ID: req.ID, Mode: &ModeReply{Value: res.Value, Count: int64(res.Count)}}
	case OpCountSmallKeys:
		res, err := s.cl.CountSmallKeys(ctx, req.Ints, int(req.Arg), opts...)
		if err != nil {
			return errResponse(req.ID, err)
		}
		return &Response{ID: req.ID, Counts: res.Counts}
	default:
		return &Response{ID: req.ID, Status: StatusUnsupported,
			Err: fmt.Sprintf("service: unsupported op %v", req.Op)}
	}
}

// opOptions assembles the session options of one request: algorithm
// override, retry budget (request's own, falling back to the server
// default), and — only when the server allows it — the injected fault.
func (s *Server) opOptions(req *Request) []cc.Option {
	var opts []cc.Option
	if s.cfg.Algorithm != 0 {
		opts = append(opts, cc.WithAlgorithm(s.cfg.Algorithm))
	}
	retries, backoff := req.Retries, req.RetryBackoff
	if retries == 0 {
		retries, backoff = s.cfg.Retries, s.cfg.RetryBackoff
	}
	if retries > 0 {
		opts = append(opts, cc.WithRetry(retries, backoff))
	}
	if req.FaultCancelRound >= 0 && s.cfg.AllowFaultInjection {
		opts = append(opts, cc.WithInjectedCancel(req.FaultCancelRound))
	}
	return opts
}

// errResponse maps a session error to its wire status.
func errResponse(id uint64, err error) *Response {
	st := StatusInternal
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, cc.ErrRoundDeadline):
		st = StatusDeadlineExceeded
	case errors.Is(err, cc.ErrInvalidInstance):
		st = StatusInvalid
	case errors.Is(err, cc.ErrClosed):
		st = StatusDraining
	}
	return &Response{ID: id, Status: st, Err: err.Error()}
}

// routeResponse builds an OpRoute reply around delivered, whose rows must be
// in the wire protocol's canonical (Src, Seq) order — the order is part of
// the protocol so that batched and unbatched executions of the same request
// deliver the same rows. A session's RouteResult.Delivered already is: row i
// is sorted by (Src, Dst, Seq) with Dst = i, and fresh for the call.
func routeResponse(id uint64, delivered [][]cc.Message, strategy cc.RouteStrategy) *Response {
	return &Response{ID: id, Strategy: int64(strategy), Route: &RouteReply{Delivered: delivered, Strategy: strategy}}
}

// canonicalizeRow sorts one destination's delivered messages by (Src, Seq).
func canonicalizeRow(row []cc.Message) {
	slices.SortFunc(row, func(a, b cc.Message) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}

func sortResponse(id uint64, res *cc.SortResult) *Response {
	return &Response{ID: id, Strategy: int64(res.Strategy), Sort: &SortReply{
		Total:    res.Total,
		Starts:   res.Starts,
		Batches:  res.Batches,
		Strategy: res.Strategy,
	}}
}

// Stats snapshots the server's counters (answered inline for OpServerStats,
// so it stays reachable while the admission queue is full).
func (s *Server) Stats() StatsReply {
	cs := s.cl.CumulativeStats()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return StatsReply{
		N:                s.cfg.N,
		MaxConcurrency:   s.cfg.MaxConcurrency,
		QueueDepth:       s.cfg.QueueDepth,
		BatchMaxOps:      s.cfg.BatchMaxOps,
		Draining:         draining,
		Operations:       int64(cs.Operations),
		Rounds:           int64(cs.Rounds),
		TotalMessages:    cs.TotalMessages,
		TotalWords:       cs.TotalWords,
		Retries:          cs.Retries,
		FailedOperations: cs.FailedOperations,
		SheddedOps:       s.shedded.Load(),
		DrainRejected:    s.drainRejected.Load(),
		BatchedRuns:      s.batchedRuns.Load(),
		BatchedOps:       s.batchedOps.Load(),

		PlanCacheHits:          cs.PlanCacheHits,
		PlanCacheMisses:        cs.PlanCacheMisses,
		PlanCacheInvalidations: cs.PlanCacheInvalidations,
	}
}

// Shutdown drains the server gracefully: stop accepting (listener closed,
// late requests get ErrDraining), let every admitted request finish and its
// response reach the wire, then stop the workers, close the connections and
// the session handle. If ctx expires first the session handle is closed
// immediately — in-flight engine runs abort with ErrClosed — and ctx.Err()
// is returned after teardown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		ln := s.ln
		s.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		done := make(chan struct{})
		go func() {
			s.accepted.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.shutdownErr = ctx.Err()
			s.cl.Close()
			<-done
		}
		close(s.queue)
		s.workers.Wait()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.connWG.Wait()
		if err := s.cl.Close(); err != nil && !errors.Is(err, cc.ErrClosed) && s.shutdownErr == nil {
			s.shutdownErr = err
		}
	})
	return s.shutdownErr
}

package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	cc "congestedclique"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
)

// Client is a wire-protocol client over one TCP connection. It is safe for
// concurrent use: calls in flight are multiplexed by request ID and demuxed
// by a single reader goroutine, so many goroutines can share one connection
// — the shape the internal/loadgen driver relies on.
type Client struct {
	conn net.Conn
	n    int

	// wmu serializes the write path; the encode buffers are reused across
	// calls under it.
	wmu      sync.Mutex
	encFrame []clique.Word
	encBuf   []byte

	// pmu guards the pending demux table and the terminal read error.
	pmu     sync.Mutex
	nextID  uint64
	pending map[uint64]chan []clique.Word
	readErr error
	done    chan struct{}
	failed  sync.Once
}

// CallOpts carries the per-request options of one client call. The zero
// value means: no deadline, batching allowed, no fault, server-default
// retries.
type CallOpts struct {
	// Deadline is the request's relative deadline (0 = server default),
	// enforced server-side from the moment the request is read.
	Deadline time.Duration
	// NoBatch opts out of server-side batching.
	NoBatch bool
	// InjectCancel asks the server to inject a deterministic cancellation at
	// FaultCancelRound (requires a server started with fault injection
	// enabled; used by faulted load runs to exercise the retry path).
	InjectCancel     bool
	FaultCancelRound int
	// Retries and RetryBackoff override the server's transient-retry budget
	// for this request (0 retries = server default).
	Retries      int
	RetryBackoff time.Duration
}

// Dial connects to a cliqued server and performs the ping handshake, which
// carries back the server's clique size n — the bound the client uses to
// size its own frame-decode limit.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		conn:    conn,
		pending: make(map[uint64]chan []clique.Word),
		done:    make(chan struct{}),
	}
	// Synchronous handshake before the reader starts: the ping reply is the
	// only frame the client accepts while it does not yet know n.
	cl.encFrame = encodeRequest(cl.encFrame, &Request{ID: 1, Op: OpPing, FaultCancelRound: -1})
	cl.encBuf = appendFrameBytes(cl.encBuf[:0], cl.encFrame)
	if _, err := conn.Write(cl.encBuf); err != nil {
		conn.Close()
		return nil, fmt.Errorf("service: handshake write: %w", err)
	}
	frame, err := readFrame(conn, handshakeLimitWords)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("service: handshake read: %w", err)
	}
	resp, err := decodeResponse(frame, OpPing, 0)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("service: handshake: %w", err)
	}
	if resp.Status != StatusOK || resp.PingN < 2 {
		conn.Close()
		return nil, fmt.Errorf("service: handshake rejected: %v %s", resp.Status, resp.Err)
	}
	cl.n = resp.PingN
	cl.nextID = 1
	go cl.readLoop()
	return cl, nil
}

// N returns the server's clique size, learned during the handshake.
func (cl *Client) N() int { return cl.n }

// Close tears down the connection; calls in flight fail.
func (cl *Client) Close() error {
	err := cl.conn.Close()
	cl.fail(errors.New("service: client closed"))
	return err
}

// readLoop demuxes response frames to their waiting calls by request ID.
func (cl *Client) readLoop() {
	limit := wireLimitWords(cl.n)
	for {
		frame, err := readFrame(cl.conn, limit)
		if err != nil {
			cl.fail(fmt.Errorf("service: connection lost: %w", err))
			return
		}
		id, err := peekResponseID(frame)
		if err != nil {
			cl.fail(err)
			return
		}
		cl.pmu.Lock()
		ch := cl.pending[id]
		delete(cl.pending, id)
		cl.pmu.Unlock()
		if ch != nil {
			ch <- frame
		}
		// Frames for unknown IDs (e.g. the server's last-gasp ID-0
		// diagnostic before closing a broken connection) are dropped; the
		// follow-up close surfaces the failure to every pending call.
	}
}

// peekResponseID validates a response frame's header and extracts its ID.
func peekResponseID(frame []clique.Word) (uint64, error) {
	bodies, err := core.DecodeFrame(nil, frame)
	if err != nil {
		return 0, fmt.Errorf("service: response frame: %w", err)
	}
	if len(bodies) == 0 || len(bodies[0]) != respHeaderWords {
		return 0, errors.New("service: response header missing or misshapen")
	}
	h := bodies[0]
	if h[0] != wireMagic || h[1] != wireVersion {
		return 0, fmt.Errorf("service: bad response magic/version %#x/%d", uint64(h[0]), h[1])
	}
	return uint64(h[2]), nil
}

// fail records the terminal error once and wakes every pending call.
func (cl *Client) fail(err error) {
	cl.failed.Do(func() {
		cl.pmu.Lock()
		cl.readErr = err
		cl.pending = nil
		cl.pmu.Unlock()
		close(cl.done)
		cl.conn.Close()
	})
}

// call sends one request and waits for its response frame.
func (cl *Client) call(req *Request) (*Response, error) {
	ch := make(chan []clique.Word, 1)
	cl.pmu.Lock()
	if cl.pending == nil {
		err := cl.readErr
		cl.pmu.Unlock()
		return nil, err
	}
	cl.nextID++
	req.ID = cl.nextID
	cl.pending[req.ID] = ch
	cl.pmu.Unlock()

	cl.wmu.Lock()
	cl.encFrame = encodeRequest(cl.encFrame, req)
	cl.encBuf = appendFrameBytes(cl.encBuf[:0], cl.encFrame)
	_, err := cl.conn.Write(cl.encBuf)
	cl.wmu.Unlock()
	if err != nil {
		cl.fail(fmt.Errorf("service: write: %w", err))
		return nil, err
	}

	select {
	case frame := <-ch:
		resp, err := decodeResponse(frame, req.Op, cl.n)
		if err != nil {
			cl.fail(err)
			return nil, err
		}
		if resp.Status != StatusOK {
			return resp, statusError(resp)
		}
		return resp, nil
	case <-cl.done:
		cl.pmu.Lock()
		err := cl.readErr
		cl.pmu.Unlock()
		return nil, err
	}
}

// statusError maps a non-OK response to a client-side error. Overload and
// drain rejections carry the package's named sentinels so callers can
// errors.Is on them; deadline failures wrap context.DeadlineExceeded.
func statusError(resp *Response) error {
	switch resp.Status {
	case StatusOverloaded:
		return ErrOverloaded
	case StatusDraining:
		return ErrDraining
	case StatusDeadlineExceeded:
		return fmt.Errorf("service: %w: %s", context.DeadlineExceeded, resp.Err)
	default:
		return fmt.Errorf("service: %v: %s", resp.Status, resp.Err)
	}
}

// newRequest translates CallOpts into a wire request.
func newRequest(op Op, o *CallOpts) *Request {
	req := &Request{Op: op, FaultCancelRound: -1}
	if o == nil {
		return req
	}
	req.Deadline = o.Deadline
	req.NoBatch = o.NoBatch
	if o.InjectCancel {
		req.FaultCancelRound = o.FaultCancelRound
	}
	req.Retries = o.Retries
	req.RetryBackoff = o.RetryBackoff
	return req
}

// Route solves the Information Distribution Task remotely. Delivered rows
// arrive in the wire protocol's canonical (Src, Seq) order.
func (cl *Client) Route(msgs [][]cc.Message, o *CallOpts) (*RouteReply, error) {
	req := newRequest(OpRoute, o)
	req.Msgs = msgs
	resp, err := cl.call(req)
	if err != nil {
		return nil, err
	}
	return resp.Route, nil
}

// Sort sorts plain values remotely.
func (cl *Client) Sort(values [][]int64, o *CallOpts) (*SortReply, error) {
	req := newRequest(OpSort, o)
	req.Values = values
	resp, err := cl.call(req)
	if err != nil {
		return nil, err
	}
	return resp.Sort, nil
}

// SortKeys sorts caller-labelled keys remotely.
func (cl *Client) SortKeys(keys [][]cc.Key, o *CallOpts) (*SortReply, error) {
	req := newRequest(OpSortKeys, o)
	req.Keys = keys
	resp, err := cl.call(req)
	if err != nil {
		return nil, err
	}
	return resp.Sort, nil
}

// Rank computes distinct-value ranks remotely.
func (cl *Client) Rank(values [][]int64, o *CallOpts) (*RankReply, error) {
	req := newRequest(OpRank, o)
	req.Values = values
	resp, err := cl.call(req)
	if err != nil {
		return nil, err
	}
	return resp.Rank, nil
}

// SelectKth selects the key of global rank k remotely.
func (cl *Client) SelectKth(values [][]int64, k int, o *CallOpts) (cc.Key, error) {
	req := newRequest(OpSelectKth, o)
	req.Values = values
	req.Arg = int64(k)
	resp, err := cl.call(req)
	if err != nil {
		return cc.Key{}, err
	}
	return *resp.Key, nil
}

// Median selects the lower median remotely.
func (cl *Client) Median(values [][]int64, o *CallOpts) (cc.Key, error) {
	req := newRequest(OpMedian, o)
	req.Values = values
	resp, err := cl.call(req)
	if err != nil {
		return cc.Key{}, err
	}
	return *resp.Key, nil
}

// Mode computes the most frequent value remotely.
func (cl *Client) Mode(values [][]int64, o *CallOpts) (*ModeReply, error) {
	req := newRequest(OpMode, o)
	req.Values = values
	resp, err := cl.call(req)
	if err != nil {
		return nil, err
	}
	return resp.Mode, nil
}

// CountSmallKeys counts keys of a small domain remotely.
func (cl *Client) CountSmallKeys(values [][]int, domain int, o *CallOpts) ([]int64, error) {
	req := newRequest(OpCountSmallKeys, o)
	req.Ints = values
	req.Arg = int64(domain)
	resp, err := cl.call(req)
	if err != nil {
		return nil, err
	}
	return resp.Counts, nil
}

// Ping round-trips the readiness probe and returns the server's clique size.
func (cl *Client) Ping() (int, error) {
	resp, err := cl.call(newRequest(OpPing, nil))
	if err != nil {
		return 0, err
	}
	return resp.PingN, nil
}

// ServerStats fetches the server's counter snapshot. It is answered inline
// by the connection reader, so it works even while the admission queue is
// full — internal/loadgen uses it to report server-side retry and
// plan-cache counts.
func (cl *Client) ServerStats() (*StatsReply, error) {
	resp, err := cl.call(newRequest(OpServerStats, nil))
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

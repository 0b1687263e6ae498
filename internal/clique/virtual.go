package clique

import (
	"errors"
	"fmt"
)

// Mux multiplexes several logical protocol instances onto one physical node.
// All live instances advance in lockstep: one virtual round of every live
// instance corresponds to exactly one physical round of the underlying node.
// Packets are tagged with their instance identifier (one extra word) so that
// the receiving Mux can demultiplex them; this is the implementation of the
// paper's "run the instances in parallel, increasing the message size by a
// constant factor".
//
// The Mux is used by the non-square-n routing construction of Theorem 3.7
// (two square sub-instances plus the 6-round boundary procedure run in
// parallel) and by Step 6 of Algorithm 4 (the 2-round bucket-size aggregation
// rides on the 16-round route).
//
// Scheduling: Run is a run loop of the engine's shape, on the node's own
// coroutine. Every instance runs on a coroutine nested in it, one of the
// node's pooled coroutines; each round Run resumes the live instances in
// ascending instance order, each up to its next exchange or its return, and
// then performs the one physical exchange for all of them. Nothing runs
// concurrently with anything else on a node, so the Mux holds no lock.
//
// Allocation behaviour: instances queue their sends locally, in the queue
// the instance's pooled coroutine keeps between Mux runs: a warm run appends
// into the capacity an earlier instance left, and close clears the whole
// backing before the coroutine is pooled, so a parked coroutine pins no
// frame (the queue lives in the engine's execMem). When the Mux runs directly on the engine ("passthrough" mode), the instances are
// FrameTaggers: senders that build the tag into their frames (SendTagged) are
// forwarded without any copy, and receivers share the engine's raw FlatInbox,
// filtering records by tag themselves (ExchangeFlat callers in their decoder,
// Exchange in the view builder) — the round's traffic is never copied inside
// the Mux at all. Sends through the plain Send/SendFramed path are tagged by
// copying into a per-instance buffer that is truncated (and kept) once the
// engine has copied the round's payloads. A Mux stacked on another Mux's
// virtual node cannot share inboxes this way (records then carry the outer
// tag), so it falls back to copy-tagging and demultiplexing into per-instance
// ring buffers of untagged records.
type Mux struct {
	nd Exchanger
	// node is the physical node beneath nd, whose Network keeps the node's
	// pooled coroutines; nil when nd is not one of a Network's nodes.
	node *Node

	// passthrough is true when nd is not itself tagged: tagged frames and the
	// shared flat inbox travel through the Mux untouched. Fixed at
	// construction.
	passthrough bool
	// ndTag is the tag of the underlying exchanger when it is itself a tagged
	// virtual node (a stacked Mux): received records must be filtered by it
	// and stripped before demultiplexing by this Mux's own instance tags.
	ndTag    Word
	ndTagged bool

	// vnodes[id] is the virtual node of instance id, in the dense table Run
	// sets up: it also fixes the (ascending, deterministic) order in which
	// queued sends are forwarded to the physical node.
	vnodes []VNode
	// failed is the error of the physical exchange that failed, handed to
	// every instance by its next exchange.
	failed error
	// rawFlat is the engine's flat inbox of the round that just completed,
	// shared by all instances in passthrough mode. Views stay valid under the
	// engine's payload grace window, so overwriting it each round is safe.
	rawFlat FlatInbox
	// pending holds tagged packets handed over by instances that closed with
	// sends still queued; they are delivered at the next physical round.
	pending []pendingPacket
	// retired holds the tagged-payload buffers backing pending: they must
	// survive until the engine has copied the packets at the next barrier.
	retired []*[]Word
}

// NewMux wraps a physical (or itself virtual) node; Run runs the instances.
// nd may also be an exchanger that filters the exchanges of one of those and
// names it with an Unwrap() Exchanger method: the physical exchanges then go
// through nd, and the instances run on the coroutines of the node beneath.
func NewMux(nd Exchanger) *Mux {
	m := &Mux{nd: nd}
	base := nd
	for {
		w, ok := base.(interface{ Unwrap() Exchanger })
		if !ok {
			break
		}
		base = w.Unwrap()
	}
	switch x := base.(type) {
	case *Node:
		m.node = x
	case *VNode:
		m.node = x.mux.node
		m.ndTag, m.ndTagged = x.FrameTag()
	}
	m.passthrough = !m.ndTagged
	return m
}

// Run runs programs[id], for every non-nil entry, as instance id on a virtual
// node of its own and returns when all of them have returned; a nil entry is
// an instance this node takes no part in. Every physical node taking part in
// a logical instance must run it under the same identifier. Run must be called
// from the program of nd's node, once per Mux.
//
// Each round Run resumes the live instances in ascending instance order, each
// up to its next exchange or its return, and then performs the physical
// exchange for all of them. When that exchange fails, each instance still
// suspended is resumed once more: its exchange, and every later one, returns
// the failure without suspending, so the program runs to its return. A panic
// in an instance or out of the physical exchange is a crash of the node: it
// leaves Run, which only stops the instances still suspended on the way, and
// reaches the engine's crash barrier, which fails the whole run with it.
//
// Run returns the error of the lowest-numbered instance that returned one
// before the physical exchange failed, or else that failure, as Network.Run
// does.
func (m *Mux) Run(programs []func(Exchanger) error) (err error) {
	nd := m.node
	if nd == nil || nd.co == nil {
		return errors.New("clique: Mux.Run outside a blocking node program (Network.Run)")
	}
	if m.vnodes != nil {
		return errors.New("clique: Mux.Run called twice")
	}
	m.vnodes = make([]VNode, len(programs))
	for id, prog := range programs {
		if prog != nil {
			v := &m.vnodes[id]
			v.mux, v.instance = m, id
			v.co = nd.nw.takeCoro(nd.id)
			v.co.prog, v.co.ex = prog, v
			v.mem = nd.nw.mem.takeCoroMem(nd.id)
			v.pending = v.mem.pending
		}
	}
	// Only a panic leaves Run with instances suspended, and none may outlive
	// it: stop ends each, its exchange returning an error to the program.
	defer func() {
		for id := range m.vnodes {
			if co := m.vnodes[id].co; co != nil {
				co.stop()
			}
		}
	}()

	errID := -1
	for {
		final, live := m.failed != nil, false
		for id := range m.vnodes {
			v := &m.vnodes[id]
			if v.co == nil {
				continue
			}
			s, _ := v.co.next()
			if !s.returned {
				live = true
				continue
			}
			if s.err != nil && !final && (errID < 0 || id < errID) {
				err, errID = s.err, id
			}
			v.close()
		}
		if !live {
			break
		}
		m.exchange()
	}
	if err == nil {
		err = m.failed
	}
	return err
}

// takeCoro hands out one of node id's pooled coroutines, or a new one.
func (nw *Network) takeCoro(id int) *nodeCoro {
	idle := nw.idle[id]
	if k := len(idle) - 1; k >= 0 {
		co := idle[k]
		idle[k] = nil
		nw.idle[id] = idle[:k]
		return co
	}
	co := new(nodeCoro)
	co.start()
	return co
}

// VNode is the virtual node handed to one logical instance. It implements
// Exchanger by delegating identity, instrumentation and shared computation to
// the underlying physical node and by funnelling communication through the
// Mux's physical exchange.
type VNode struct {
	mux      *Mux
	instance int
	round    int
	// co is the coroutine the instance's program runs on, nil once the
	// program has returned (or, in a slot Run left empty, ever).
	co *nodeCoro
	// pending queues this instance's sends until the Mux forwards them at
	// the physical exchange, in its coroutine's backing (mem).
	pending []pendingPacket
	mem     *coroMem
	// tagBuf is the pooled buffer this instance's tagged payloads are carved
	// from. Growth is append-only, so earlier carved views stay valid when
	// the backing array is reallocated.
	tagBuf *[]Word
	// view boxes this instance's records for Exchange, rebuilt every call.
	view inboxView
	// flatRing cycles the per-round record buffers a stacked Mux
	// demultiplexes this instance's traffic into, mirroring the engine's
	// payload ring so received payload views stay valid for
	// PayloadGraceRounds further exchanges. The buffers are pooled: acquired
	// on first use, returned when the instance closes.
	flatRing [payloadRingDepth]*[]Word
	flatSlot int
	// flatHint remembers the flat volume of a recent round so a freshly
	// acquired ring buffer can be sized in one step (pooled buffers arrive
	// with arbitrary, often tiny, capacity).
	flatHint int
}

var (
	_ Exchanger   = (*VNode)(nil)
	_ FrameTagger = (*VNode)(nil)
)

// ScratchSlot implements ScratchHolder: the slot of the pooled coroutine the
// instance runs on.
func (v *VNode) ScratchSlot() *any { return &v.mem.scratch }

// FrameTag implements FrameTagger: in passthrough mode the instance
// identifier is the frame tag, and senders/receivers that honour it skip the
// Mux's internal copies entirely. On a stacked Mux (the underlying exchanger
// is itself tagged) ok is false and the copy-tagging fallback applies.
func (v *VNode) FrameTag() (Word, bool) {
	return Word(v.instance), v.mux.passthrough
}

// SendTagged queues one pre-tagged frame without copying it. data[0] must be
// this instance's tag; the frame must stay valid until this instance's next
// exchange returns (the engine copies it at the barrier inside that call).
// The accounted cost adds one tag word per logical message, identical to what
// SendFramed charges for the tag it prepends.
func (v *VNode) SendTagged(to int, data Packet, count, modelWords int) {
	if !v.mux.passthrough {
		panic(fmt.Sprintf("clique: SendTagged on instance %d of a stacked Mux (node %d)", v.instance, v.ID()))
	}
	if to < 0 || to >= v.N() {
		panic(fmt.Sprintf("clique: instance %d on node %d sent to invalid destination %d (n=%d)",
			v.instance, v.ID(), to, v.N()))
	}
	if count < 1 || modelWords < 0 {
		panic(fmt.Sprintf("clique: instance %d on node %d tagged send with count %d, model %d",
			v.instance, v.ID(), count, modelWords))
	}
	if len(data) == 0 || data[0] != Word(v.instance) {
		panic(fmt.Sprintf("clique: instance %d on node %d tagged send without its tag", v.instance, v.ID()))
	}
	v.pending = append(v.pending, queued(to, data, count, modelWords+count))
}

// ID returns the physical node identifier.
func (v *VNode) ID() int { return v.mux.nd.ID() }

// N returns the clique size.
func (v *VNode) N() int { return v.mux.nd.N() }

// Round returns the number of virtual rounds completed by this instance.
func (v *VNode) Round() int { return v.round }

// CountSteps delegates to the physical node.
func (v *VNode) CountSteps(k int) { v.mux.nd.CountSteps(k) }

// ReportMemory delegates to the physical node.
func (v *VNode) ReportMemory(words int) { v.mux.nd.ReportMemory(words) }

// SharedComputeKeyed delegates to the physical node.
func (v *VNode) SharedComputeKeyed(key SharedKey, f func() interface{}) interface{} {
	return v.mux.nd.SharedComputeKeyed(key, f)
}

// Send queues a packet for delivery within this instance. The packet is
// tagged with the instance identifier (one extra word on the wire); the
// tagged copy is carved from a pooled buffer that is released once the
// engine has copied the round's payloads at the physical barrier.
func (v *VNode) Send(to int, data Packet) {
	v.SendFramed(to, data, 1, len(data))
}

// SendFramed queues one physical packet carrying count logical messages (see
// Exchanger). The instance tag the Mux adds is per-message overhead in the
// unbatched model, so the accounted cost forwarded to the physical node is
// modelWords plus one tag word per logical message — exactly what count
// individually tagged packets would have cost. The packet is handed to the
// physical node at the Mux's next physical exchange.
func (v *VNode) SendFramed(to int, data Packet, count, modelWords int) {
	if to < 0 || to >= v.N() {
		panic(fmt.Sprintf("clique: instance %d on node %d sent to invalid destination %d (n=%d)",
			v.instance, v.ID(), to, v.N()))
	}
	if count < 1 || modelWords < 0 {
		panic(fmt.Sprintf("clique: instance %d on node %d framed send with count %d, model %d",
			v.instance, v.ID(), count, modelWords))
	}
	if v.tagBuf == nil {
		v.tagBuf = acquireWords()
	}
	buf := *v.tagBuf
	pos := len(buf)
	buf = append(buf, Word(v.instance))
	buf = append(buf, data...)
	*v.tagBuf = buf
	tagged := buf[pos:len(buf):len(buf)]
	v.pending = append(v.pending, queued(to, tagged, count, modelWords+count))
}

// Exchange advances this instance by one round: it suspends the instance
// until Mux.Run has resumed every other live instance of the node up to its
// exchange and performed the physical exchange. The returned Inbox is this
// instance's own view over its records of the round (on a passthrough Mux: the
// shared raw inbox filtered by the instance tag) and is valid until the
// instance's next exchange.
func (v *VNode) Exchange() (Inbox, error) {
	flat, err := v.ExchangeFlat()
	if err != nil {
		return nil, err
	}
	tag := noTag
	if v.mux.passthrough {
		tag = Word(v.instance)
	}
	return v.view.build(v.N(), flat, tag), nil
}

// InboxSenders implements Exchanger over the instance's view.
func (v *VNode) InboxSenders() []int32 { return v.view.touched }

// ExchangeFlat is Exchange for the flat receive path. In passthrough mode it
// returns the engine's raw round inbox, shared by all instances: records keep
// their leading tag word, and the caller filters by FrameTag (this is what
// makes the receive path copy-free). On a stacked Mux the records are instead
// demultiplexed into a per-instance ring buffer with the tag already
// stripped. Either way the records arrive in ascending physical-sender order
// and payload views stay valid for PayloadGraceRounds further exchanges of
// this instance.
func (v *VNode) ExchangeFlat() (FlatInbox, error) {
	if v.co == nil {
		return nil, errors.New("clique: Exchange called on closed virtual node")
	}
	m := v.mux
	if m.failed != nil {
		return nil, m.failed
	}
	// Rotate the ring: the slot about to be rewritten is the one filled
	// payloadRingDepth exchanges ago, which is exactly the engine's grace
	// window.
	if !m.passthrough {
		v.flatSlot = (v.flatSlot + 1) % payloadRingDepth
		if buf := v.flatRing[v.flatSlot]; buf != nil {
			if len(*buf) > v.flatHint {
				v.flatHint = len(*buf)
			}
			*buf = (*buf)[:0]
		}
	}
	if !v.co.yield(suspension{}) {
		return nil, errors.New("clique: instance stopped by a crash of its node")
	}
	if m.failed != nil {
		return nil, m.failed
	}
	v.round++
	if m.passthrough {
		return m.rawFlat, nil
	}
	if buf := v.flatRing[v.flatSlot]; buf != nil {
		return FlatInbox(*buf), nil
	}
	return nil, nil
}

// close ends the instance once its program has returned: the coroutine goes
// back to the node's pool, the buffers to theirs.
func (v *VNode) close() {
	m, nd, co := v.mux, v.mux.node, v.co
	co.prog, co.ex = nil, nil // a pooled coroutine pins no Mux
	nd.nw.idle[nd.id] = append(nd.nw.idle[nd.id], co)
	v.co = nil
	// Hand over sends queued since the last exchange (normally none): they
	// are delivered at the next physical round, so their payloads must
	// survive until the engine has copied them. The instance's own buffers
	// (tag buffer, or the sender's frame storage for SendTagged) die with the
	// program, so the payloads are copied into a buffer retired after the
	// next physical exchange.
	if len(v.pending) > 0 {
		buf := acquireWords()
		for i := range v.pending {
			*buf = append(*buf, v.pending[i].payload()...)
		}
		off := 0
		for i := range v.pending {
			pp := &v.pending[i]
			l := int(pp.len)
			*pp = queued(int(pp.to), (*buf)[off:off+l:off+l], int(pp.count), int(pp.model))
			off += l
		}
		m.retired = append(m.retired, buf)
		m.pending = append(m.pending, v.pending...)
	}
	clear(v.pending[:cap(v.pending)])
	v.mem.pending, v.pending = v.pending[:0], nil
	nd.nw.mem.coros[nd.id] = append(nd.nw.mem.coros[nd.id], v.mem)
	if v.tagBuf != nil {
		releaseWords(v.tagBuf)
		v.tagBuf = nil
	}
	// Nothing can read this instance's flat ring anymore; the buffers go back
	// to the pool for the next Mux.
	for i, bp := range v.flatRing {
		if bp != nil {
			releaseWords(bp)
			v.flatRing[i] = nil
		}
	}
}

// exchange performs one physical exchange on behalf of all live instances,
// every one of them suspended in its own exchange, and distributes the
// result; a failure is recorded in m.failed.
func (m *Mux) exchange() {
	// Forward the queued sends in ascending instance order. Each instance's
	// internal send order is preserved; the interleaving between instances is
	// not observable (each instance only ever reads its own records, and the
	// per-round edge accounting is order-independent).
	for id := range m.vnodes {
		v := &m.vnodes[id]
		for i := range v.pending {
			pp := &v.pending[i]
			m.nd.SendFramed(int(pp.to), pp.payload(), int(pp.count), int(pp.model))
		}
		v.pending = v.pending[:0]
	}
	for i := range m.pending {
		pp := &m.pending[i]
		m.nd.SendFramed(int(pp.to), pp.payload(), int(pp.count), int(pp.model))
	}
	m.pending = m.pending[:0]

	flat, err := m.nd.ExchangeFlat()
	// The engine has copied all payloads at the barrier, so the round's
	// tagged-packet buffers can be truncated in place even on error. The
	// buffer stays attached to its instance — per-round traffic is near
	// constant, so after the first round no tagging allocation happens at all.
	for id := range m.vnodes {
		if b := m.vnodes[id].tagBuf; b != nil {
			*b = (*b)[:0]
		}
	}
	for i, b := range m.retired {
		releaseWords(b)
		m.retired[i] = nil
	}
	m.retired = m.retired[:0]
	if err != nil {
		m.failed = err
		return
	}

	if m.passthrough {
		// Every instance reads the shared raw inbox directly, filtering by
		// its own tag: nothing to distribute.
		m.rawFlat = flat
		return
	}
	// Stacked Mux: records carry the underlying virtual node's tag; strip it
	// and demultiplex by this Mux's own instance tags.
	for i := 0; i < len(flat); {
		from := int(flat[i])
		l := int(flat[i+1])
		p := Packet(flat[i+2 : i+2+l : i+2+l])
		i += 2 + l
		if len(p) > 0 && p[0] == m.ndTag {
			m.demux(from, p[1:])
		}
	}
}

// demux appends one received packet of a stacked Mux to the ring buffer of
// the instance its tag names, as an untagged [from, len, payload...] record.
// Records are appended in physical delivery order, which is ascending by
// sender (see FlatInbox). Packets for instances this node does not run, or no
// longer runs, are dropped (nothing could ever read them).
func (m *Mux) demux(from int, p Packet) {
	if len(p) == 0 {
		return
	}
	instance := int(p[0])
	if instance < 0 || instance >= len(m.vnodes) || m.vnodes[instance].co == nil {
		return
	}
	v := &m.vnodes[instance]
	bp := v.flatRing[v.flatSlot]
	if bp == nil {
		bp = acquireWords()
		if cap(*bp) < v.flatHint {
			*bp = make([]Word, 0, v.flatHint+v.flatHint/8)
		}
		v.flatRing[v.flatSlot] = bp
	}
	buf := append(*bp, Word(from), Word(len(p)-1))
	*bp = append(buf, p[1:]...)
}

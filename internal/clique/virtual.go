package clique

import (
	"errors"
	"fmt"
	"math"
)

// Mux multiplexes several logical protocol instances onto one physical node.
// All live instances advance in lockstep: one virtual round of every live
// instance corresponds to exactly one physical round of the underlying node.
// Packets carry their instance's tag (one extra word), so every instance can
// pick its own records out of the node's; this is the implementation of the
// paper's "run the instances in parallel, increasing the message size by a
// constant factor".
//
// The Mux is used by the non-square-n routing construction of Theorem 3.7
// (two square sub-instances plus the 6-round boundary procedure run in
// parallel) and by Step 6 of Algorithm 4 (the 2-round bucket-size aggregation
// rides on the 16-round route); at non-square n the first runs nested in an
// instance of the second.
//
// Scheduling: Run is a run loop of the engine's shape, on the node's own
// coroutine. Every instance runs on a coroutine nested in it, one of the
// node's pooled coroutines; each round Run resumes the live instances in
// ascending instance order, each up to its next exchange or its return, and
// then performs the one physical exchange for all of them. Nothing runs
// concurrently with anything else on a node, so the Mux holds no lock.
//
// Tags: an instance's tag is its instance path — its identifier on a Mux of
// the node, and on a Mux nested in an instance its identifier packed beside
// that instance's tag — so it is the same on every node, distinct from every
// other instance live on the node, and non-negative.
//
// Traffic: instances are FrameTaggers. Senders that build the tag into their
// frames (SendTagged) are queued without a copy; plain Send/SendFramed frames
// are copied behind the tag into a buffer the instance keeps, truncated once
// the engine has copied the round's payloads. Queued frames go to the node as
// they are — through a nested Mux's parent instance, whose queue they join —
// and every instance reads the node's raw FlatInbox, filtering records by its
// tag (ExchangeFlat callers in their decoder, Exchange in the view builder):
// the round's traffic is never copied inside the Mux. An instance's queue,
// tag buffer and ScratchSlot are the memory its instance path used last on
// the node, kept in the engine's buffer set (see netBuffers.instanceMem); the
// queue's whole backing is cleared when the instance ends, so that memory
// pins no frame.
type Mux struct {
	nd Exchanger
	// node is the physical node beneath nd, whose Network keeps the node's
	// pooled coroutines; nil when nd is not one of a Network's nodes.
	node *Node
	// parent is the virtual node beneath nd when the Mux is nested in an
	// instance of another Mux: queued frames join its queue, and the
	// instances' tags extend its tag.
	parent *VNode

	// vnodes[id] is the virtual node of instance id, in the dense table Run
	// sets up: it also fixes the (ascending, deterministic) order in which
	// queued sends are forwarded to the physical node.
	vnodes []VNode
	// failed is the error of the physical exchange that failed, handed to
	// every instance by its next exchange.
	failed error
	// rawFlat is the node's flat inbox of the round that just completed,
	// shared by all instances. Views stay valid under the engine's payload
	// grace window, so overwriting it each round is safe.
	rawFlat FlatInbox
	// pending holds tagged packets handed over by instances that closed with
	// sends still queued, copied into closing; they are forwarded at the next
	// physical round, after which closing is truncated.
	pending []pendingPacket
	closing []Word
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
		m.node, m.parent = x.mux.node, x
	}
	return m
}

// instanceBits is the width of an instance identifier within a tag.
const instanceBits = 16

// tagOf returns the tag of instance id: the identifier itself on a Mux of the
// node, else (parent tag + 1) << instanceBits | id. Identifiers below
// 1<<instanceBits keep the map from instance paths to tags one-to-one.
func (m *Mux) tagOf(id int) Word {
	if m.parent == nil {
		return Word(id)
	}
	return (m.parent.tag+1)<<instanceBits | Word(id)
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
	if len(programs) > 1<<instanceBits || m.parent != nil && m.parent.tag >= math.MaxInt64>>instanceBits {
		return fmt.Errorf("clique: Mux.Run: the paths of %d instances do not fit a frame tag", len(programs))
	}
	m.vnodes = make([]VNode, len(programs))
	for id, prog := range programs {
		if prog != nil {
			v := &m.vnodes[id]
			v.mux, v.instance, v.tag = m, id, m.tagOf(id)
			v.co = nd.nw.takeCoro(nd.id)
			v.co.prog, v.co.ex = prog, v
			v.mem = nd.nw.buffers.instanceMem(nd.id, v.tag)
		}
	}
	// Only a panic leaves Run with instances suspended, and none may outlive
	// it: stop ends each, its exchange returning an error to the program.
	defer func() {
		for id := range m.vnodes {
			if v := &m.vnodes[id]; v.co != nil {
				v.co.stop()
				v.clearMem()
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
	tag      Word // see Mux.tagOf
	round    int
	// co is the coroutine the instance's program runs on, nil once the
	// program has returned (or, in a slot Run left empty, ever).
	co *nodeCoro
	// mem is the memory of the instance's path on the node: the queue its
	// sends wait in until the Mux forwards them at the physical exchange,
	// the tag buffer SendFramed copies into, and its ScratchSlot.
	mem *instanceMem
	// view boxes this instance's records for Exchange, rebuilt every call.
	view inboxView
}

var (
	_ Exchanger   = (*VNode)(nil)
	_ FrameTagger = (*VNode)(nil)
)

// ScratchSlot implements ScratchHolder: the slot of the instance's path on
// its node.
func (v *VNode) ScratchSlot() *any { return &v.mem.scratch }

// NodeSlot implements ScratchHolder: the slot of the physical node.
func (v *VNode) NodeSlot() *any { return v.mux.node.NodeSlot() }

// FrameTag implements FrameTagger: the instance's tag (see Mux).
func (v *VNode) FrameTag() Word { return v.tag }

// SendTagged queues one pre-tagged frame without copying it. data[0] must be
// this instance's tag; the frame must stay valid until this instance's next
// exchange returns (the engine copies it at the barrier inside that call).
// The accounted cost adds one tag word per logical message, identical to what
// SendFramed charges for the tag it prepends.
func (v *VNode) SendTagged(to int, data Packet, count, modelWords int) {
	v.checkSend(to, count, modelWords)
	if len(data) == 0 || data[0] != v.tag {
		panic(fmt.Sprintf("clique: instance %d on node %d tagged send without its tag", v.instance, v.ID()))
	}
	v.mem.pending = append(v.mem.pending, queued(to, data, count, modelWords+count))
}

// checkSend panics on a send no exchanger accepts.
func (v *VNode) checkSend(to, count, modelWords int) {
	if to < 0 || to >= v.N() {
		panic(fmt.Sprintf("clique: instance %d on node %d sent to invalid destination %d (n=%d)",
			v.instance, v.ID(), to, v.N()))
	}
	if count < 1 || modelWords < 0 {
		panic(fmt.Sprintf("clique: instance %d on node %d framed send with count %d, model %d",
			v.instance, v.ID(), count, modelWords))
	}
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
// tagged with the instance tag (one extra word on the wire), copied into the
// instance's tag buffer.
func (v *VNode) Send(to int, data Packet) {
	v.SendFramed(to, data, 1, len(data))
}

// SendFramed queues one physical packet carrying count logical messages (see
// Exchanger). The instance tag is per-message overhead in the unbatched
// model, so the accounted cost forwarded to the physical node is modelWords
// plus one tag word per logical message — exactly what count individually
// tagged packets would have cost. The tagged copy is carved from the
// instance's tag buffer, which grows by append only (earlier carved views keep
// the array they were carved from) and is truncated once the engine has
// copied the round's payloads.
func (v *VNode) SendFramed(to int, data Packet, count, modelWords int) {
	v.checkSend(to, count, modelWords)
	buf := v.mem.tagged
	pos := len(buf)
	buf = append(append(buf, v.tag), data...)
	v.mem.tagged = buf
	v.mem.pending = append(v.mem.pending, queued(to, buf[pos:len(buf):len(buf)], count, modelWords+count))
}

// Exchange advances this instance by one round: it suspends the instance
// until Mux.Run has resumed every other live instance of the node up to its
// exchange and performed the physical exchange. The returned Inbox is this
// instance's own view over its records of the round (the node's records
// filtered by the instance tag) and is valid until the instance's next
// exchange.
func (v *VNode) Exchange() (Inbox, error) {
	flat, err := v.ExchangeFlat()
	if err != nil {
		return nil, err
	}
	return v.view.build(v.N(), flat, v.tag), nil
}

// InboxSenders implements Exchanger over the instance's view.
func (v *VNode) InboxSenders() []int32 { return v.view.touched }

// ExchangeFlat is Exchange for the flat receive path. It returns the node's
// raw round inbox, shared by every instance on the node: records keep their
// leading tag word, and the caller filters by FrameTag (this is what makes
// the receive path copy-free). The records arrive in ascending
// physical-sender order and payload views stay valid for PayloadGraceRounds
// further exchanges of this instance.
func (v *VNode) ExchangeFlat() (FlatInbox, error) {
	if v.co == nil {
		return nil, errors.New("clique: Exchange called on closed virtual node")
	}
	m := v.mux
	if m.failed != nil {
		return nil, m.failed
	}
	if !v.co.yield(suspension{}) {
		return nil, errors.New("clique: instance stopped by a crash of its node")
	}
	if m.failed != nil {
		return nil, m.failed
	}
	v.round++
	return m.rawFlat, nil
}

// close ends the instance once its program has returned: the coroutine goes
// back to the node's pool.
func (v *VNode) close() {
	m, nd, co := v.mux, v.mux.node, v.co
	co.prog, co.ex = nil, nil // a pooled coroutine pins no Mux
	nd.nw.idle[nd.id] = append(nd.nw.idle[nd.id], co)
	v.co = nil
	// Hand over sends queued since the last exchange (normally none): they
	// are delivered at the next physical round, so their payloads must
	// survive until the engine has copied them. The instance's own buffers
	// (tag buffer, or the sender's frame storage for SendTagged) go with the
	// program, so the payloads are copied into the Mux's closing buffer.
	for i := range v.mem.pending {
		pp := &v.mem.pending[i]
		off := len(m.closing)
		m.closing = append(m.closing, pp.payload()...)
		*pp = queued(int(pp.to), m.closing[off:len(m.closing):len(m.closing)], int(pp.count), int(pp.model))
	}
	m.pending = append(m.pending, v.mem.pending...)
	v.clearMem()
}

// clearMem empties the instance's queue, its whole backing cleared so that the
// memory its path keeps pins no frame, and its tag buffer.
func (v *VNode) clearMem() {
	clear(v.mem.pending[:cap(v.mem.pending)])
	v.mem.pending, v.mem.tagged = v.mem.pending[:0], v.mem.tagged[:0]
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
		if v := &m.vnodes[id]; v.co != nil {
			for i := range v.mem.pending {
				m.forward(&v.mem.pending[i])
			}
			v.mem.pending = v.mem.pending[:0]
		}
	}
	for i := range m.pending {
		m.forward(&m.pending[i])
	}
	m.pending = m.pending[:0]

	flat, err := m.nd.ExchangeFlat()
	// The engine has copied all payloads at the barrier, so the round's
	// tag buffers can be truncated in place even on error. A buffer stays
	// with its instance — per-round traffic is near constant, so after the
	// first round no tagging allocation happens at all.
	for id := range m.vnodes {
		if v := &m.vnodes[id]; v.co != nil {
			v.mem.tagged = v.mem.tagged[:0]
		}
	}
	m.closing = m.closing[:0]
	if err != nil {
		m.failed = err
		return
	}
	// Every instance reads the node's raw inbox directly, filtering by its
	// own tag: nothing to distribute.
	m.rawFlat = flat
}

// forward hands one queued frame on as it is: to the physical exchange, or,
// on a nested Mux, into the parent instance's queue, which charges its own
// tag word per logical message as the parent's SendFramed would.
func (m *Mux) forward(pp *pendingPacket) {
	if p := m.parent; p != nil {
		pp.model += pp.count
		p.mem.pending = append(p.mem.pending, *pp)
		return
	}
	m.nd.SendFramed(int(pp.to), pp.payload(), int(pp.count), int(pp.model))
}

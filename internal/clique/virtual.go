package clique

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Mux multiplexes several logical protocol instances onto one physical node.
// All active instances advance in lockstep: one virtual round of every active
// instance corresponds to exactly one physical round of the underlying node.
// Packets are tagged with their instance identifier (one extra word) so that
// the receiving Mux can demultiplex them; this is the implementation of the
// paper's "run the instances in parallel, increasing the message size by a
// constant factor".
//
// The Mux is used by the non-square-n routing construction of Theorem 3.7
// (two square sub-instances plus the 6-round boundary procedure run in
// parallel) and by the sorting pipeline (piggybacking the bucket-size
// aggregation on the Step-6 routing rounds).
//
// Allocation behaviour: instances queue their sends locally (no lock per
// send). When the Mux runs directly on the engine ("passthrough" mode), the
// instances are FrameTaggers: senders that build the tag into their frames
// (SendTagged) are forwarded without any copy, and receivers share the
// engine's raw FlatInbox, filtering records by tag themselves (ExchangeFlat
// callers in their decoder, Exchange in the view builder) — the round's
// traffic is never copied inside the Mux at all. Sends through the plain
// Send/SendFramed path are tagged by copying into a per-instance buffer that
// is truncated (and kept) once the engine has copied the round's payloads. A
// Mux stacked on another Mux's virtual node cannot share inboxes this way
// (records then carry the outer tag), so it falls back to copy-tagging and
// demultiplexing into per-instance ring buffers of untagged records.
type Mux struct {
	nd Exchanger

	// passthrough is true when nd is not itself tagged: tagged frames and the
	// shared flat inbox travel through the Mux untouched. Fixed at
	// construction.
	passthrough bool
	// ndTag is the tag of the underlying exchanger when it is itself a tagged
	// virtual node (a stacked Mux): received records must be filtered by it
	// and stripped before demultiplexing by this Mux's own instance tags.
	ndTag    Word
	ndTagged bool

	// mu guards the barrier state below. Instances wait on turned for the
	// round to turn over; Run's caller — the barrier's leader, the only
	// goroutine that may use nd's exchange — waits on arrivals for every
	// other active instance to have arrived.
	mu       sync.Mutex
	turned   sync.Cond
	arrivals sync.Cond
	active   int
	arrived  int
	round    int
	failed   error
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
	// order lists the registered virtual nodes in ascending instance order:
	// queued sends are forwarded to the physical node in this (deterministic)
	// order at every barrier.
	order []*VNode
	// byID is the dense instance-id -> virtual-node table used by the demux
	// hot loop (instance identifiers are small in every use).
	byID []*VNode
}

// NewMux wraps a physical (or itself virtual) node. Instances are registered
// with Instance before any of them starts exchanging, and exchange only while
// Run is serving their barrier.
func NewMux(nd Exchanger) *Mux {
	m := &Mux{nd: nd}
	if ft, ok := nd.(FrameTagger); ok {
		m.ndTag, m.ndTagged = ft.FrameTag()
	}
	m.passthrough = !m.ndTagged
	m.turned.L, m.arrivals.L = &m.mu, &m.mu
	return m
}

// runFailer is implemented by exchangers that can record a root-cause
// failure for their whole run: *Node forwards to Network.setFailure, *VNode
// recurses down its own Mux. Mux.fail uses it to propagate a panic to the
// physical network, so the run fails fast, with the crash as its root cause,
// instead of carrying on without the crashed instance.
type runFailer interface {
	failRun(err error)
}

// failRun implements runFailer: the panic becomes the run's engine failure,
// which peers are handed as the root cause by their next exchange.
func (nd *Node) failRun(err error) {
	nd.nw.setFailure(err)
}

// failRun implements runFailer for stacked Muxes by cascading the failure
// down to the underlying exchanger.
func (v *VNode) failRun(err error) {
	v.mux.fail(err)
}

// fail is failLocked for callers that do not hold m.mu.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failLocked(err)
}

// failLocked records err as the Mux's failure (first writer wins), wakes the
// leader and every parked instance, and propagates the failure to the
// underlying exchanger so the physical run fails as a whole (locks nest from
// a stacked Mux down to the one it stands on, never up).
func (m *Mux) failLocked(err error) {
	if f, ok := m.nd.(runFailer); ok {
		f.failRun(err)
	}
	if m.failed == nil {
		m.failed = err
	}
	m.turned.Broadcast()
	m.arrivals.Signal()
}

// Instance registers a new virtual node for the logical instance with the
// given identifier. Identifiers must be non-negative and unique per Mux, and
// identical across all physical nodes participating in the same logical
// instance.
func (m *Mux) Instance(id int) (*VNode, error) {
	if id < 0 {
		return nil, fmt.Errorf("clique: instance id must be non-negative, got %d", id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if id < len(m.byID) && m.byID[id] != nil {
		return nil, fmt.Errorf("clique: instance %d registered twice", id)
	}
	vn := &VNode{mux: m, instance: id}
	m.order = append(m.order, vn)
	sort.Slice(m.order, func(a, b int) bool { return m.order[a].instance < m.order[b].instance })
	for id >= len(m.byID) {
		m.byID = append(m.byID, nil)
	}
	m.byID[id] = vn
	m.active++
	return vn, nil
}

// Run registers one instance per program (instance identifiers are the map
// keys), runs each program on its virtual node — the lowest instance on the
// calling goroutine, the others in goroutines of their own — and waits for
// all of them. The caller, which must be the goroutine nd's program runs on,
// leads the instances' barrier (see leadLocked): from inside the lowest
// instance's exchanges while that one runs, on its own afterwards. It returns
// the error of the lowest-numbered failing slot, as Network.Run does.
func (m *Mux) Run(programs map[int]func(Exchanger) error) error {
	ids := make([]int, 0, len(programs))
	for id := range programs {
		ids = append(ids, id)
	}
	// Sorted so that the first-failing-slot scan below is the lowest failing
	// instance id, independent of map iteration order.
	sort.Ints(ids)
	for _, id := range ids {
		if _, err := m.Instance(id); err != nil {
			return err
		}
	}
	errs := make([]error, len(ids))
	run := func(slot int) {
		id := ids[slot]
		defer m.byID[id].Close()
		defer func() {
			if r := recover(); r != nil {
				errs[slot] = fmt.Errorf("clique: instance %d panicked: %v", id, r)
				// Same fail-fast rule as Network.RunContext: a panic is a
				// crash of the whole run, not of one instance.
				m.fail(errs[slot])
			}
		}()
		errs[slot] = programs[id](m.byID[id])
	}
	var wg sync.WaitGroup
	for slot := 1; slot < len(ids); slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(slot)
		}()
	}
	if len(ids) > 0 {
		m.byID[ids[0]].leads = true
		run(0)
	}
	m.mu.Lock()
	m.leadLocked(-1)
	m.mu.Unlock()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed
}

// leadLocked is the Mux barrier's leader loop, run by Run's caller holding
// m.mu: whenever every active instance has arrived it performs the physical
// exchange — which only the goroutine the underlying exchanger belongs to may
// do: a Node's Exchange suspends the very coroutine that calls it — and turns
// the barrier over. It serves until round turn is over (the leading
// instance's own exchange) or, with turn < 0, until no instance is left, and
// never longer than the Mux is sound.
func (m *Mux) leadLocked(turn int) {
	for m.failed == nil && (m.round == turn || turn < 0 && m.active > 0) {
		if m.arrived < m.active {
			m.arrivals.Wait()
			continue
		}
		m.exchangeLocked()
	}
}

// VNode is the virtual node handed to one logical instance. It implements
// Exchanger by delegating identity, instrumentation and shared computation to
// the underlying physical node and by funnelling communication through the
// Mux barrier.
type VNode struct {
	mux      *Mux
	instance int
	round    int
	closed   bool
	// leads marks the instance that runs on Mux.Run's calling goroutine: its
	// exchanges lead the barrier instead of waiting for a leader.
	leads bool
	// pending queues this instance's sends between barriers. It is written by
	// the instance goroutine without holding the Mux lock: the writes are
	// published to the delivering goroutine by the mutex acquisition when the
	// instance arrives at the barrier.
	pending []pendingPacket
	// tagBuf is the pooled buffer this instance's tagged payloads are carved
	// from. Growth is append-only, so earlier carved views stay valid when
	// the backing array is reallocated.
	tagBuf *[]Word
	// tagHint remembers the previous round's tagged volume so a freshly
	// acquired tagBuf can be sized in one step instead of re-running the
	// geometric growth every round.
	tagHint int
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
// individually tagged packets would have cost. The packet is queued locally
// (no Mux lock) and handed to the physical node at this instance's next
// barrier arrival.
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
		if cap(*v.tagBuf) < v.tagHint {
			*v.tagBuf = make([]Word, 0, v.tagHint+v.tagHint/4)
		}
	}
	buf := *v.tagBuf
	pos := len(buf)
	buf = append(buf, Word(v.instance))
	buf = append(buf, data...)
	*v.tagBuf = buf
	tagged := buf[pos:len(buf):len(buf)]
	v.pending = append(v.pending, queued(to, tagged, count, modelWords+count))
}

// Exchange advances this instance by one round. It blocks until every other
// active instance on the same physical node has also reached its barrier and
// the leader (see Mux.leadLocked) has performed the physical exchange. The returned
// Inbox is this instance's own view over its records of the round (on a
// passthrough Mux: the shared raw inbox filtered by the instance tag) and is
// valid until the instance's next exchange.
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
	m := v.mux
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := v.barrierLocked(); err != nil {
		return nil, err
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

// barrierLocked retires the ring slot about to be rewritten, arrives at the
// Mux barrier and waits for the round to turn over. Callers must hold m.mu
// and check the returned error before reading any per-round state.
func (v *VNode) barrierLocked() error {
	m := v.mux
	if v.closed {
		return errors.New("clique: Exchange called on closed virtual node")
	}
	if m.failed != nil {
		return m.failed
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
	turn := m.round
	m.arrived++
	if v.leads {
		m.leadLocked(turn)
		return m.failed
	}
	if m.arrived == m.active {
		m.arrivals.Signal()
	}
	for m.round == turn && m.failed == nil {
		m.turned.Wait()
	}
	return m.failed
}

// Close removes the instance from the Mux barrier. It must be called exactly
// once when the instance's program has finished (Mux.Run does this
// automatically). After it the remaining instances may all have arrived, or
// none may remain: either way the leader is told.
func (v *VNode) Close() {
	m := v.mux
	m.mu.Lock()
	defer m.mu.Unlock()
	if v.closed {
		return
	}
	v.closed = true
	m.active--
	// Hand over sends queued since the last barrier (normally none): they are
	// delivered at the next physical round, so their payloads must survive
	// until the engine has copied them. The instance's own buffers (tag
	// buffer, or the sender's frame storage for SendTagged) die with the
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
		v.pending = nil
	}
	if v.tagBuf != nil {
		releaseWords(v.tagBuf)
		v.tagBuf = nil
	}
	// The program has returned, so nothing can read this instance's flat ring
	// anymore; the buffers go back to the pool for the next Mux.
	for i, bp := range v.flatRing {
		if bp != nil {
			releaseWords(bp)
			v.flatRing[i] = nil
		}
	}
	if m.arrived == m.active {
		m.arrivals.Signal()
	}
}

// exchangeLocked performs one physical exchange on behalf of all active
// instances, distributes the result and turns the Mux barrier over. The
// leader calls it holding m.mu.
//
// The physical exchange blocks until the network-wide round is over; holding
// m.mu meanwhile is safe because every other goroutine that could need the
// lock is an instance of this same Mux, and all of them are already parked at
// the Mux barrier (m.arrived == m.active) or closed. A panic out of the
// exchange (an injected fault) is this node's crash: it becomes the Mux's and
// the run's failure here, like an instance's, and the instances drain.
func (m *Mux) exchangeLocked() {
	defer func() {
		if r := recover(); r != nil {
			m.failLocked(nodePanicError(m.nd.ID(), r))
		}
	}()
	// Forward the queued sends in ascending instance order. Each instance's
	// internal send order is preserved; the interleaving between instances is
	// not observable (each instance only ever reads its own records, and the
	// per-round edge accounting is order-independent).
	for _, v := range m.order {
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
	for _, v := range m.order {
		if v.tagBuf != nil {
			*v.tagBuf = (*v.tagBuf)[:0]
		}
	}
	for i, b := range m.retired {
		releaseWords(b)
		m.retired[i] = nil
	}
	m.retired = m.retired[:0]
	if err != nil {
		m.failed = err
		m.turned.Broadcast()
		return
	}

	if m.passthrough {
		// Every instance reads the shared raw inbox directly, filtering by
		// its own tag: nothing to distribute.
		m.rawFlat = flat
	} else {
		// Stacked Mux: records carry the underlying virtual node's tag;
		// strip it and demultiplex by this Mux's own instance tags.
		for i := 0; i < len(flat); {
			from := int(flat[i])
			l := int(flat[i+1])
			p := Packet(flat[i+2 : i+2+l : i+2+l])
			i += 2 + l
			if len(p) > 0 && p[0] == m.ndTag {
				m.demuxLocked(from, p[1:])
			}
		}
	}

	m.round++
	m.arrived = 0
	m.turned.Broadcast()
}

// demuxLocked appends one received packet of a stacked Mux to the ring buffer
// of the instance its tag names, as an untagged [from, len, payload...]
// record. Records are appended in physical delivery order, which is ascending
// by sender (see FlatInbox). Packets for unknown or closed instances are
// dropped (nothing could ever read them).
func (m *Mux) demuxLocked(from int, p Packet) {
	if len(p) == 0 {
		return
	}
	instance := int(p[0])
	var v *VNode
	if instance >= 0 && instance < len(m.byID) {
		v = m.byID[instance]
	}
	if v == nil || v.closed {
		return
	}
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

package clique

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"
)

// ErrBandwidthExceeded is wrapped by the error returned when a strict edge
// budget (WithStrictEdgeBudget) is violated.
var ErrBandwidthExceeded = errors.New("per-edge bandwidth budget exceeded")

// Exchanger is the communication surface node programs are written against.
// It is implemented by *Node (a physical clique node) and by *VNode (a
// virtual node multiplexing one logical protocol instance onto a physical
// node, see Mux).
type Exchanger interface {
	// ID returns the node's identifier in 0..N()-1.
	ID() int
	// N returns the number of nodes in the clique.
	N() int
	// Round returns the number of round barriers this node has completed.
	Round() int
	// Send queues one packet for delivery to node to at the next barrier.
	// Sending to oneself is allowed (and used by the algorithms to keep the
	// presentation uniform, matching the paper's convention).
	Send(to int, data Packet)
	// SendFramed queues one physical packet that carries count logical model
	// messages totalling modelWords payload words. The engine delivers all
	// len(data) words but charges only modelWords (plus any per-message
	// overhead the transport itself adds, such as the Mux instance tag)
	// against the per-edge accounting, and counts count messages. This is the
	// accounting hook of the flat-frame protocol layer: a frame's few words
	// of length bookkeeping are simulator framing, not model traffic, so
	// batching must not change Stats.MaxEdgeWords. Send(to, data) is
	// equivalent to SendFramed(to, data, 1, len(data)).
	SendFramed(to int, data Packet, count, modelWords int)
	// Exchange blocks until every active node has reached the barrier, then
	// returns everything this node received in the round, indexed by sender.
	Exchange() (Inbox, error)
	// InboxSenders lists, in ascending order, the senders present in the
	// Inbox this exchanger handed out last — by its latest Exchange or, under
	// RunRounds, to the step call in progress (empty when that inbox was
	// nil). A receiver that got a handful of packets walks this list instead
	// of sweeping the n-entry table. It is valid exactly as long as that
	// Inbox, and ExchangeFlat leaves it untouched.
	InboxSenders() []int32
	// ExchangeFlat is Exchange returning the round's packets as the raw
	// [from, len, payload...] records delivery wrote (see FlatInbox) instead
	// of a boxed Inbox built over them. It is the receive path of the
	// flat-frame protocol layer, which decodes the records directly.
	ExchangeFlat() (FlatInbox, error)
	// CountSteps adds k to this node's self-reported local-computation step
	// counter (Section 5 accounting). It is a no-op for k <= 0.
	CountSteps(k int)
	// ReportMemory records a self-reported resident memory footprint in words;
	// the per-node maximum is kept (Section 5 accounting).
	ReportMemory(words int)
	// SharedComputeKeyed returns the result of f, memoising it under key when
	// the shared deterministic-computation cache is enabled. Every node
	// calling it with the same key must supply a function computing the same
	// (deterministic) value; the cache only removes redundant recomputation in
	// the simulator, it does not communicate. The key is structured so
	// protocol round loops can address the cache without building strings.
	// A memoised value is valid until the run ends: one with a Release()
	// method is released when the next run starts, unless CaptureShared
	// snapshotted the run or ArmSharedSeed supplied the value.
	SharedComputeKeyed(key SharedKey, f func() interface{}) interface{}
}

// FrameTagger is implemented by exchangers whose wire frames carry a leading
// instance-tag word — the Mux's virtual nodes. A sender that can build the
// tag into its frames avoids the copy SendFramed makes to prepend it, and a
// receiver reading the FlatInbox of such an exchanger, which is the node's
// and shared by every instance on it, must filter records by the tag and
// strip it before decoding.
type FrameTagger interface {
	// FrameTag returns the tag word senders must place in data[0] of
	// SendTagged frames and receivers must filter ExchangeFlat records by.
	FrameTag() Word
	// SendTagged queues one pre-tagged frame (data[0] must equal the tag).
	// Accounting matches SendFramed plus one tag word per logical message,
	// exactly as if the exchanger had prepended the tag itself. The frame
	// must stay valid until the sender's next exchange on this instance
	// returns; instances must not close with tagged sends still queued.
	SendTagged(to int, data Packet, count, modelWords int)
}

// ScratchHolder is implemented by exchangers that keep slots for their
// program's working memory, which the engine never looks inside and keeps
// from New to Close in the Network's buffer set (see netBuffers).
type ScratchHolder interface {
	// ScratchSlot returns the slot of the executor the program runs on (a
	// node's coroutine under Run, a sweep worker under RunRounds, a Mux
	// instance's path on its node), for that program only, while it runs.
	ScratchSlot() *any
	// NodeSlot returns the physical node's slot, the same under Run and
	// RunRounds and shared by its Mux instances: a value kept there across
	// exchanges is taken out meanwhile.
	NodeSlot() *any
}

// SharedKey identifies one shared deterministic computation without string
// formatting: Label scopes the protocol instance, Path encodes the
// algorithm's call path as packed step codes, and Group discriminates
// concurrent groups of the same step (-1 when the step is instance-wide).
type SharedKey struct {
	Label string
	Path  uint64
	Group int32
}

// failure boxes the first engine-level error so it can live in an
// atomic.Pointer.
type failure struct{ err error }

// payloadRingDepth is the number of per-receiver payload arenas cycled
// through by delivery. Words received in round r are only overwritten when
// round r+payloadRingDepth is delivered, so received payloads stay readable
// for payloadGraceRounds further barriers — enough for the paper's
// constant-round primitives (for example Corollary 3.4: two announcement
// rounds before re-sending received words) to re-send received words without
// cloning. Retention beyond the grace window requires Packet.Clone.
const payloadRingDepth = 4

// PayloadGraceRounds is the number of additional Exchange calls a received
// packet's words are guaranteed to stay valid for (see payloadRingDepth).
const PayloadGraceRounds = payloadRingDepth - 1

// Network is an in-process simulation of a congested clique of n nodes (the
// package documentation describes the engine at length).
//
// It has one run loop (see run). In each round k sweep workers walk contiguous
// ranges of the nodes and execute every live node's compute phase — a StepFunc
// call under RunRounds, the resumption of the node's blocking program, a
// coroutine suspended inside Exchange, under Run — during which the node
// appends to a private outbox with no synchronisation at all; the worker then
// publishes the outbox. Once all workers have reported the loop delivers the
// round, so delivery runs while no node computes: the outboxes are read-only,
// each receiver's arena and load counters belong to exactly one of the
// receiver ranges (deliveryShard) the loop and its helper goroutines fill, and
// no lock is ever held while a node computes or a packet is delivered. Every
// packet becomes a [from, len, payload...] record in its receiver's arena,
// cycled on a payloadRingDepth-round ring; a boxed Inbox is a view the
// receiver builds over those records (see inboxView).
type Network struct {
	n   int
	cfg config

	// buffers is the buffer set backing the slices below and the
	// ScratchHolder slots; it is owned by the Network from New to Close.
	buffers *netBuffers

	// running doubles as the mutual-exclusion latch for Run/RunRounds/Close:
	// at most one of them holds it at a time, so a Network supports an
	// unbounded sequence of runs but never two concurrently. closed marks the
	// Network permanently unusable once Close has released the buffers.
	running atomic.Bool
	closed  atomic.Bool
	// runs counts completed calls to Run/RunRounds; the per-run state reset
	// happens lazily at the start of every run after the first.
	runs int

	round atomic.Int64
	fail  atomic.Pointer[failure]

	// The run in progress: its node program in one of its two shapes, its
	// number of sweep workers, and what the loop and the workers talk through
	// — errs[i] is node i's own error, starts[w] hands worker w the round to
	// sweep, acks takes the workers' reports — sized on first use and kept.
	step     StepFunc
	program  func(*Node) error
	sweepers int
	errs     []error
	starts   []chan int
	acks     chan sweepAck
	// coros[i] is the coroutine node i's blocking programs run on, nil until
	// the first Run: an engine that only ever steps carries none. idle[i]
	// pools node i's parked coroutines for the instances of its Muxes (see
	// Mux.Run); like coros they live until Close.
	coros []nodeCoro
	idle  [][]*nodeCoro

	// outboxes[i] is published by the worker that ran node i's compute phase
	// and consumed (and nilled) by delivery. A departed node — its program
	// returned, or its step said done — is swept no more, and delivery drops
	// what is still addressed to it. An outbox of at least sortMin packets is
	// published sorted by receiver, with its receiver index in outOffs[i]
	// (nil otherwise): receiver t's packets are
	// outboxes[i][outOffs[i][t]:outOffs[i][t+1]]. The two are apart so that
	// a sparse round at large n touches no more than an outbox header per
	// node.
	outboxes [][]pendingPacket
	outOffs  [][]int32
	departed []bool
	sortMin  int

	// wordArena[r%payloadRingDepth][t] holds the records delivered to node t
	// in round r. The slot is resliced to empty (keeping capacity) when node
	// t's compute phase of round r ends, so after delivery it holds exactly
	// that round's traffic; the ring keeps received words valid for
	// PayloadGraceRounds further barriers. Growth is append-only, so views
	// created before a reallocation stay valid.
	wordArena [payloadRingDepth][][]Word

	// loads is the sender-major loop's scratch, indexed densely by receiver
	// id (so each entry is written by the one shard owning that receiver) and
	// re-zeroed through the shard's recvTouch list.
	loads []recvLoad

	// The round being delivered: receiverMajor says all of its non-empty
	// outboxes were sorted, and then sources lists them in ascending sender
	// order (see deliverRound).
	sources       []source
	receiverMajor bool

	// procs is GOMAXPROCS as of the start of the run and maxShards the run's
	// widest delivery fan-out, min(workers, GOMAXPROCS, n) (see shardCount);
	// forceShards, when positive, fixes the fan-out of every round instead,
	// and forceSenderMajor keeps every round on the sender-major loop (tests
	// pin the independence of both with them). shardWG joins a round's shards
	// before the round is folded into the metrics.
	procs            int
	maxShards        int
	forceShards      int
	forceSenderMajor bool
	shardWG          sync.WaitGroup

	// Fault injection and round watchdog (see fault.go). pendingFaults is
	// armed by SetFaultPlan and consumed into faults by the next beginRun;
	// failCh, allocated only for runs whose plan contains a stall, is closed
	// by the first failure so injected stalls are interruptible. executing[w]
	// is the node worker w is running right now, as id+1, or 0 — what the
	// watchdog names when it fires (nil without a deadline); the wd* channels
	// drive the persistent watchdog goroutine, which exists from the first
	// deadline-enabled run until Close.
	pendingFaults *FaultPlan
	faults        *FaultPlan

	// pendingSeed is a shared-computation snapshot armed by ArmSharedSeed
	// and consumed by the next beginRun: its entries pre-populate sharedK
	// after resetRun has cleared it, so a validated plan-cache hit can reuse
	// colorings without weakening the per-run scoping invariant (the seed is
	// applied once, for exactly the run it was armed for).
	pendingSeed SharedSnapshot
	failCh      chan struct{}
	executing   []atomic.Int32
	wdKick      chan struct{}
	wdHalt      chan struct{}
	wdAck       chan struct{}
	wdStarted   bool

	metricsMu sync.Mutex
	metrics   Metrics
	cum       Cumulative

	sharedMu sync.Mutex
	sharedK  map[SharedKey]interface{}
	// sharedSeeded is the seed this run's cache started from, and
	// sharedCaptured says whether CaptureShared has snapshotted it: values
	// that either one names outlive the run, so resetRun releases only the
	// others.
	sharedSeeded   map[SharedKey]interface{}
	sharedCaptured bool

	// steps[i] and memory[i] are node i's self-reported accounting, copied
	// out of the Node structs when a run ends.
	stepsMu sync.Mutex
	steps   []int64
	memory  []int64
}

// netBuffers is everything a Network keeps warm: its delivery state and its
// programs' ScratchHolder slots, owned by the Network from New to Close and
// then released for the next New (see lastReleased), so one-shot calls and
// long-lived sessions alike amortise it. Recycling is what bounds the
// documented packet lifetime: once the next run starts (or Close returns),
// the arenas may be overwritten.
type netBuffers struct {
	n         int
	outboxes  [][]pendingPacket
	outOffs   [][]int32
	departed  []bool
	wordArena [payloadRingDepth][][]Word
	loads     []recvLoad
	// shards is the per-shard delivery scratch (see deliveryShard), grown to
	// the widest fan-out any Network holding this set has used.
	shards []*deliveryShard
	// nodes, pending, spare and offs recycle the per-run node state — the
	// Node structs, each node's two outbox backing arrays (handed back by
	// finishSweep pinning no payload memory) and its receiver index (see
	// Node.sortOutbox; the Node keeps only its current outbox, since a node
	// that never sorts never needs the other two) — so a run on a warm engine
	// allocates none. views recycles the boxed receive views: views[i]
	// belongs to node i under Run (an Inbox stays valid until the node's next
	// Exchange) and to worker i under RunRounds (whose nodes share it, one
	// step at a time), is filled on its owner's first boxed receive (so
	// flat-only engines never carry one) and is reset by the owner before it
	// lets go.
	nodes   []Node
	pending [][]pendingPacket
	spare   [][]pendingPacket
	offs    [][]int32
	views   []inboxView
	// The ScratchHolder slots: slots[i] is the ScratchSlot of node i under
	// Run and of worker i under RunRounds, nodeSlots[i] the NodeSlot of node
	// i under both, and instances[i] the memory of node i's Mux instances,
	// one entry per instance path (see instanceMem).
	slots     []any
	nodeSlots []any
	instances [][]*instanceMem
}

// lastReleased points weakly at the released buffer sets, most recent last:
// the one way a set is handed out, whatever processor New runs on (a lone
// sync.Pool Put lands in its processor's private slot, out of reach of a Get
// on another). releasedSets, which nothing takes from, keeps each released
// set alive as long as a sync.Pool would.
var (
	releasedSets sync.Pool
	lastReleased struct {
		sync.Mutex
		b []weak.Pointer[netBuffers]
	}
)

// acquireNetBuffers returns a buffer set for n nodes — the most recently
// released one if it is still alive — reallocating the dense arrays only
// when that set is too small.
func acquireNetBuffers(n int) *netBuffers {
	var b *netBuffers
	lastReleased.Lock()
	for k := len(lastReleased.b) - 1; k >= 0 && b == nil; k-- {
		b = lastReleased.b[k].Value()
		lastReleased.b = lastReleased.b[:k]
	}
	lastReleased.Unlock()
	if b == nil {
		b = new(netBuffers)
	}
	if b.n < n {
		b.outboxes = make([][]pendingPacket, n)
		b.outOffs = make([][]int32, n)
		b.departed = make([]bool, n)
		for p := range b.wordArena {
			b.wordArena[p] = make([][]Word, n)
		}
		b.loads = make([]recvLoad, n)
		b.nodes = make([]Node, n)
		b.pending = make([][]pendingPacket, n)
		b.spare = make([][]pendingPacket, n)
		b.offs = make([][]int32, n)
		b.views = make([]inboxView, n)
		b.slots = make([]any, n)
		b.nodeSlots = make([]any, n)
		b.instances = make([][]*instanceMem, n)
		b.n = n
	}
	for i := 0; i < n; i++ {
		b.loads[i] = recvLoad{}
		b.departed[i] = false
		b.outboxes[i] = nil
		b.outOffs[i] = nil
	}
	return b
}

// releaseBuffers cleans the delivery state left over from the final rounds
// and releases the set. It is called by Close; after this point any
// packet views previously handed out may be overwritten by a future Network.
func (nw *Network) releaseBuffers() {
	b := nw.buffers
	if b == nil {
		return
	}
	nw.buffers = nil
	n := nw.n
	for t := 0; t < n; t++ {
		// A run that failed between publish and delivery (injected
		// cancellation, watchdog fire, delivery panic) leaves published
		// outboxes unconsumed; their pendingPacket entries reference
		// caller-owned payload memory, which a pooled buffer set must never
		// pin. Clear the full backing arrays, not just the live prefixes.
		if out := b.outboxes[t]; out != nil {
			clear(out[:cap(out)])
			b.outboxes[t] = nil
		}
		b.outOffs[t] = nil
		for p := range b.wordArena {
			b.wordArena[p][t] = b.wordArena[p][t][:0]
		}
	}
	for _, sh := range b.shards {
		sh.nw = nil // a released shard must not pin its last Network
	}
	releasedSets.Put(b)
	lastReleased.Lock()
	lastReleased.b = append(lastReleased.b, weak.Make(b))
	lastReleased.Unlock()
}

// New creates a congested clique with n >= 1 nodes. The Network supports an
// unbounded sequence of (non-overlapping) Run/RunRounds calls; call Close
// when done to release its buffer set.
func New(n int, opts ...Option) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("clique: need at least one node, got %d", n)
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	b := acquireNetBuffers(n)
	nw := &Network{
		n:         n,
		cfg:       cfg,
		buffers:   b,
		outboxes:  b.outboxes,
		outOffs:   b.outOffs,
		departed:  b.departed,
		sortMin:   max(1, n/sortMinShare),
		wordArena: b.wordArena,
		loads:     b.loads,
		sharedK:   make(map[SharedKey]interface{}),
		steps:     make([]int64, n),
		memory:    make([]int64, n),
	}
	return nw, nil
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.n }

// beginRun takes the run latch and, for every run after the first, resets the
// per-run engine state. It fails when another run is in flight or the Network
// has been closed.
func (nw *Network) beginRun() error {
	if !nw.running.CompareAndSwap(false, true) {
		return errors.New("clique: Run called while another run is in progress")
	}
	if nw.closed.Load() {
		nw.running.Store(false)
		return errors.New("clique: Run called on closed Network")
	}
	if nw.runs > 0 {
		nw.resetRun()
	}
	nw.runs++
	nw.procs = runtime.GOMAXPROCS(0)
	nw.maxShards = min(nw.workerCount(), nw.procs)
	runningNetworks.Add(1)
	// Consume the armed fault plan (if any): it applies to this run only.
	// The failure-broadcast channel is allocated only when the plan stalls a
	// node, keeping the fault-free path allocation-free.
	nw.faults = nw.pendingFaults
	nw.pendingFaults = nil
	nw.failCh = nil
	if nw.faults.hasStall() {
		nw.failCh = make(chan struct{})
	}
	// Apply the armed shared-computation seed (if any) after resetRun has
	// cleared the cache: the seed belongs to exactly this run.
	if nw.pendingSeed.keyed != nil {
		nw.sharedMu.Lock()
		for k, v := range nw.pendingSeed.keyed {
			nw.sharedK[k] = v
		}
		nw.sharedSeeded = nw.pendingSeed.keyed
		nw.sharedMu.Unlock()
		nw.pendingSeed = SharedSnapshot{}
	}
	return nil
}

// endRun releases the run latch and, if the run completed without error,
// folds its metrics into the cumulative totals — failed or cancelled runs
// are not counted as completed operations (their per-run Metrics stay
// readable until the next run starts, but the session aggregate only speaks
// for runs that finished). completed is false for error returns.
func (nw *Network) endRun(completed bool) {
	if completed {
		m := nw.Metrics()
		nw.metricsMu.Lock()
		nw.cum.accumulate(m)
		nw.metricsMu.Unlock()
	}
	runningNetworks.Add(-1)
	nw.running.Store(false)
}

// resetRun restores every piece of per-run state — failure slot, round
// counter, metrics, delivery arenas, shared-computation cache and step
// accounting — so the next run starts from the same state a fresh Network
// would, while keeping the allocated capacity of every buffer and map. The
// shared cache must not survive a run: the memoised values are colorings of
// this run's demand matrices, which depend on the instance data, not only on
// n. The one sanctioned way to carry values across runs is ArmSharedSeed,
// which re-populates the cleared cache for exactly one run — and only after
// the session's plan cache has verified the new run executes the identical
// instance (validate-on-hit). The last run's values that nothing outside it
// holds — it was not snapshotted and did not seed them — are released (see
// Exchanger.SharedComputeKeyed), so a coloring's storage serves the next
// run's colorings.
func (nw *Network) resetRun() {
	b := nw.buffers
	for t := 0; t < nw.n; t++ {
		for p := range b.wordArena {
			b.wordArena[p][t] = b.wordArena[p][t][:0]
		}
		b.loads[t] = recvLoad{}
		b.departed[t] = false
		b.outboxes[t] = nil
		b.outOffs[t] = nil
	}
	nw.round.Store(0)
	nw.fail.Store(nil)

	nw.releaseShared()

	nw.stepsMu.Lock()
	clear(nw.steps)
	clear(nw.memory)
	nw.stepsMu.Unlock()

	nw.metricsMu.Lock()
	nw.metrics = Metrics{PerRound: nw.metrics.PerRound[:0]}
	nw.metricsMu.Unlock()
}

// releaseShared empties the last run's shared-computation cache, releasing
// each value with a Release method that neither CaptureShared nor
// ArmSharedSeed holds (see Exchanger.SharedComputeKeyed).
func (nw *Network) releaseShared() {
	nw.sharedMu.Lock()
	defer nw.sharedMu.Unlock()
	if !nw.sharedCaptured {
		for k, v := range nw.sharedK {
			if _, seeded := nw.sharedSeeded[k]; !seeded {
				if r, ok := v.(interface{ Release() }); ok {
					r.Release()
				}
			}
		}
	}
	clear(nw.sharedK)
	nw.sharedSeeded, nw.sharedCaptured = nil, false
}

// Close ends the Network's coroutines and watchdog, releases its buffer set
// and marks it unusable. After a blocking run a Network keeps
// one parked goroutine per node until Close, so every Network must be closed
// (never while a run is in progress). Close is idempotent; any packet views
// handed out by previous runs expire at the latest here (a future Network may
// recycle the buffers).
func (nw *Network) Close() error {
	if !nw.running.CompareAndSwap(false, true) {
		return errors.New("clique: Close called while a run is in progress")
	}
	defer nw.running.Store(false)
	if nw.closed.Load() {
		return nil
	}
	nw.closed.Store(true)
	nw.closeWatchdog()
	// Between runs every live coroutine is parked where its program returned;
	// stop resumes it there and it exits.
	for i := range nw.coros {
		if stop := nw.coros[i].stop; stop != nil {
			stop()
		}
	}
	for _, idle := range nw.idle {
		for _, co := range idle {
			co.stop()
		}
	}
	nw.coros, nw.idle = nil, nil
	nw.releaseShared()
	nw.releaseBuffers()
	return nil
}

// Metrics returns a copy of the execution metrics of the current (or most
// recently completed) run. It is normally called after Run has returned and
// before the next run starts; the per-run metrics reset at the start of
// every run. Use CumulativeMetrics for the across-run session totals.
func (nw *Network) Metrics() Metrics {
	nw.metricsMu.Lock()
	m := nw.metrics.clone()
	nw.metricsMu.Unlock()

	nw.stepsMu.Lock()
	for _, s := range nw.steps {
		if s > m.MaxStepsPerNode {
			m.MaxStepsPerNode = s
		}
	}
	for _, w := range nw.memory {
		if w > m.MaxMemoryWordsPerNode {
			m.MaxMemoryWordsPerNode = w
		}
	}
	nw.stepsMu.Unlock()
	return m
}

// CumulativeMetrics returns the aggregated cost of every successfully
// completed run on this Network: totals summed across runs, maxima taken
// over runs. A run in progress is not included until it completes, and runs
// that failed or were cancelled are never counted.
func (nw *Network) CumulativeMetrics() Cumulative {
	nw.metricsMu.Lock()
	defer nw.metricsMu.Unlock()
	return nw.cum
}

// Rounds returns the number of completed rounds of the current run.
func (nw *Network) Rounds() int { return int(nw.round.Load()) }

// StepsPerNode returns the self-reported computation steps of every node.
func (nw *Network) StepsPerNode() map[int]int64 {
	nw.stepsMu.Lock()
	defer nw.stepsMu.Unlock()
	out := make(map[int]int64, len(nw.steps))
	for id, s := range nw.steps {
		out[id] = s
	}
	return out
}

// Run is RunContext with a background context.
func (nw *Network) Run(program func(*Node) error) error {
	return nw.RunContext(context.Background(), program)
}

// RunContext executes program once per node, as blocking code: nd.Exchange
// ends the node's round and returns what the node received in it. Under the
// engine's one run loop (see run) each program is a coroutine of the sweep
// worker its node belongs to — resumed once per round, suspended by Exchange,
// created on the node's first blocking run and kept, parked, until Close.
// Runs on one Network may follow each other without limit (the session API
// builds on this; each starts from a fully reset engine and reuses every
// buffer of the last) but never overlap: a concurrent call fails at once.
//
// A run fails when ctx is cancelled (checked before every round; the error
// wraps ctx.Err()), when WithRoundDeadline's watchdog sees a round take too
// long (ErrRoundDeadline, naming the nodes being executed), by a fault armed
// with SetFaultPlan, by a strict edge budget, or by a panicking node —
// injected or real, a crash, recorded at once as the run's root cause. A
// failed run delivers no further round, not even the one in progress; every
// program suspended in Exchange is resumed once to be handed the failure (and
// gets it again, without suspending, from every Exchange it still tries), and
// the Network stays usable. A program that merely returns before its peers,
// with or without an error, departs gracefully: the others keep running, and
// sends it queued after its last Exchange are discarded.
//
// Error reporting is deterministic: the error of the lowest-numbered node
// that returned one (or panicked) wins, whenever it happened; the run's
// failure is returned if no program reported an error of its own, or when the
// winning error merely wraps it (see firstError). What a program returns
// after being handed the failure at the end of the run is not recorded.
func (nw *Network) RunContext(ctx context.Context, program func(*Node) error) error {
	return nw.run(ctx, nil, program)
}

// firstError implements the documented deterministic error rule: lowest
// failing node id first, engine failure only if no program failed. When that
// node's error merely wraps the engine's root-cause failure — it was told of
// it by its next Exchange — the root cause itself is returned: which protocol
// step a bystander happened to be in when it noticed depends on goroutine
// scheduling, and a failed run's error must replay identically.
func (nw *Network) firstError(errs []error) error {
	var root error
	if f := nw.fail.Load(); f != nil {
		root = f.err
	}
	for _, err := range errs {
		if err != nil {
			if root != nil && errors.Is(err, root) {
				return root
			}
			return err
		}
	}
	return root
}

// workerCount resolves WithWorkers for this Network: the configured bound,
// GOMAXPROCS when unset, never more than n.
func (nw *Network) workerCount() int {
	k := nw.cfg.workers
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	return min(k, nw.n)
}

// StepFunc is one node's program under RunRounds. It is invoked once per
// round; inbox holds what the node received at the end of the previous round
// (nil in round 0) and is only valid for the duration of the call. Packets
// queued with nd.Send during the call are delivered at the end of the round.
// Returning done = true retires the node: its final sends are still delivered
// to nodes that remain active, but the retired node itself can no longer
// receive — packets addressed to it in its final round or later are dropped
// (and counted in DroppedToDeparted), since there is no future step call to
// hand them to. If every remaining node retires in the same round, that
// round's sends are discarded without delivery or accounting.
type StepFunc func(nd *Node, round int, inbox Inbox) (done bool, err error)

// RunRounds is RunRoundsContext with a background context.
func (nw *Network) RunRounds(step StepFunc) error {
	return nw.RunRoundsContext(context.Background(), step)
}

// RunRoundsContext executes step for every node in synchronous rounds: the
// run loop (see run) calls it once per live node per round. A step program
// keeps no stack between rounds, so this is the shape for very large cliques:
// n >= 10^4 logical nodes run on the k sweep workers alone. Delivery, metrics,
// failures, cancellation and error reporting are those of RunContext, for any
// worker count, with two differences: a step that returns an error ends the
// run at that round, and Exchange returns an error — the engine ends the
// round when step returns.
func (nw *Network) RunRoundsContext(ctx context.Context, step StepFunc) error {
	return nw.run(ctx, step, nil)
}

// sweepAck is one worker's report on a sweep: how many of its nodes departed,
// and whether a step returned an error.
type sweepAck struct {
	left   int
	failed bool
}

// run is the engine's one run loop, behind both entry points: exactly one of
// step and program is set. Each round it has the run's k workers — goroutines
// that live as long as the run — sweep their node ranges and then, unless the
// run is over, delivers what they published. The loop itself sweeps nothing:
// parking right after the kick is what lets every worker start at once (a
// goroutine readied by one that keeps running waits to be stolen).
func (nw *Network) run(ctx context.Context, step StepFunc, program func(*Node) error) (err error) {
	if err := nw.beginRun(); err != nil {
		return err
	}
	defer func() { nw.endRun(err == nil) }()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("clique: run cancelled: %w", err)
	}
	nw.step, nw.program = step, program
	nw.prepareSweep(nw.workerCount())
	watching := nw.startWatchdogRun()
	for w := 0; w < nw.sweepers; w++ {
		go nw.work(w)
	}

	remaining := nw.n
	for round := 0; remaining > 0; round++ {
		if err := ctx.Err(); err != nil {
			nw.setFailure(fmt.Errorf("clique: run cancelled: %w", err))
			break
		}
		a := nw.sweepAll(round)
		remaining -= a.left
		// A failed run never delivers: a crashed program's published outbox
		// may reference buffers it released while unwinding. And when the
		// last nodes depart together their final sends have no live receiver:
		// there is nothing to deliver or account.
		if a.failed || remaining == 0 || nw.fail.Load() != nil {
			break
		}
		if nw.faults.cancelAt(round) {
			// The injected cancellation lands at the exact turn-over, after
			// the last node has published and before delivery.
			nw.setFailure(fmt.Errorf("clique: run cancelled at round %d turn-over: %w", round, ErrFaultInjected))
			break
		}
		nw.deliverRound()
		if nw.fail.Load() != nil {
			break
		}
	}
	nw.sweepAll(-1)
	if watching {
		nw.stopWatchdogRun()
	}
	nw.finishSweep()
	return nw.firstError(nw.errs)
}

// prepareSweep sets the run's nodes and scheduling scratch up for k workers.
// A blocking program's node owns its view and coroutine slots; a step inbox is
// only alive during one step call, so the step nodes of worker w share
// views[w]: O(traffic + workers·n) memory.
func (nw *Network) prepareSweep(k int) {
	if nw.errs == nil {
		nw.errs = make([]error, nw.n)
	}
	clear(nw.errs)
	if len(nw.starts) < k { // first run, or GOMAXPROCS has grown since
		nw.starts = make([]chan int, k)
		for w := range nw.starts {
			nw.starts[w] = make(chan int, 1)
		}
		nw.acks = make(chan sweepAck, k)
	}
	nw.sweepers = k
	if nw.program != nil && nw.coros == nil {
		nw.coros = make([]nodeCoro, nw.n)
		nw.idle = make([][]*nodeCoro, nw.n)
	}
	b := nw.buffers
	for w := 0; w < k; w++ {
		for i := w * nw.n / k; i < (w+1)*nw.n/k; i++ {
			nd := Node{nw: nw, id: i, pending: b.pending[i], view: &b.views[w], scratch: &b.slots[w]}
			if nw.program != nil {
				nd.view, nd.scratch, nd.co = &b.views[i], &b.slots[i], &nw.coros[i]
			}
			b.nodes[i] = nd
		}
	}
}

// finishSweep is the end-of-run pass over the nodes: it copies the
// self-reported accounting out and hands both outbox arrays back with no
// packet reference left in them, so the pooled buffers never pin payload
// memory. The references of delivered sends stay behind until here (clearing
// every round costs a full-load run 24 bytes per packet); beyond sent, the
// most the node published in any round, and the sends it queued after its
// last publish, an array is clear already — a run that staged little sweeps
// little, whatever an earlier dense run left behind.
func (nw *Network) finishSweep() {
	b := nw.buffers
	nw.stepsMu.Lock()
	for i := range b.nodes[:nw.n] {
		nd := &b.nodes[i]
		clear(nd.pending[:max(nd.sent, len(nd.pending))])
		clear(b.spare[i][:min(nd.sent, cap(b.spare[i]))])
		b.pending[i], b.spare[i] = nd.pending[:0], b.spare[i][:0]
		nd.pending, nd.scratch = nil, nil // pin nothing between runs
		nw.steps[i], nw.memory[i] = nd.steps, nd.memory
	}
	nw.stepsMu.Unlock()
	nw.step, nw.program = nil, nil
}

// sweepAll has every worker sweep its nodes for the given round and adds
// their reports up. A negative round is the last sweep of the run (see
// sweep); the workers exit after it.
func (nw *Network) sweepAll(round int) sweepAck {
	for _, ch := range nw.starts[:nw.sweepers] {
		ch <- round
	}
	var a sweepAck
	for range nw.starts[:nw.sweepers] {
		b := <-nw.acks
		a.left += b.left
		a.failed = a.failed || b.failed
	}
	return a
}

// work is the body of a sweep worker.
func (nw *Network) work(w int) {
	for round := 0; round >= 0; {
		round = <-nw.starts[w]
		nw.acks <- nw.sweep(w, round)
	}
}

// sweep runs one round's compute phase of worker w's nodes. The final sweep
// (round < 0) only concerns blocking programs: a failed run leaves them
// suspended in Exchange, and each is resumed once more — its Exchange, and
// every later one, now returns the failure without suspending — so that the
// program returns and its coroutine is parked for the next run.
func (nw *Network) sweep(w, round int) (a sweepAck) {
	lo, hi := w*nw.n/nw.sweepers, (w+1)*nw.n/nw.sweepers
	var executing *atomic.Int32
	if nw.executing != nil {
		executing = &nw.executing[w]
		defer executing.Store(0)
	}
	if nw.program != nil {
		return nw.sweepPrograms(lo, hi, round < 0, executing)
	}
	if round < 0 {
		return a
	}
	return nw.sweepSteps(lo, hi, round, &nw.buffers.views[w], executing)
}

// sweepSteps calls the run's StepFunc for the live nodes in [lo, hi).
func (nw *Network) sweepSteps(lo, hi, round int, view *inboxView, executing *atomic.Int32) (a sweepAck) {
	nodes := nw.buffers.nodes
	for id := lo; id < hi; id++ {
		if nw.departed[id] {
			continue
		}
		nd := &nodes[id]
		var inbox Inbox
		if round > 0 {
			if flat := nw.wordArena[(round-1)%payloadRingDepth][id]; len(flat) > 0 {
				inbox = view.build(nw.n, flat, noTag)
			}
		}
		nd.pending = nd.pending[:0] // last round's sends have been delivered
		if executing != nil {
			executing.Store(int32(id) + 1)
		}
		done, err := nw.runStep(nd, round, inbox)
		view.reset()
		nd.publish()
		if err != nil {
			nw.errs[id] = err
			a.failed = true
			done = true
		}
		if done {
			nw.departed[id] = true
			a.left++
		}
	}
	return a
}

// sweepPrograms resumes the blocking programs of the live nodes in [lo, hi),
// each up to its next Exchange or its return. The worker builds no inbox and
// leaves the node's view alone: the program reads the round's records itself
// when Exchange returns, and its Inbox must stay valid until its next one.
// In the final sweep the programs are bystanders being told of the failure:
// what they return is not an error of their own and is not recorded.
func (nw *Network) sweepPrograms(lo, hi int, final bool, executing *atomic.Int32) (a sweepAck) {
	nodes := nw.buffers.nodes
	for id := lo; id < hi; id++ {
		if nw.departed[id] {
			continue
		}
		nd := &nodes[id]
		nd.pending = nd.pending[:0] // last round's sends have been delivered
		if executing != nil {
			executing.Store(int32(id) + 1)
		}
		returned, err := nw.resume(nd)
		if !returned {
			nd.publish()
			continue
		}
		// Sends queued after the last Exchange are never published;
		// finishSweep drops them.
		if !final {
			nw.errs[id] = err
		}
		nd.view.reset()
		nw.departed[id] = true
		a.left++
	}
	return a
}

// runStep calls the run's StepFunc for nd behind a crash barrier: a panic
// becomes that node's error and the run's root-cause failure. Injected faults
// fire here, before the step, so an injected crash is a panic like any other.
func (nw *Network) runStep(nd *Node, round int, inbox Inbox) (done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			done, err = true, nodePanicError(nd.id, r)
			nw.setFailure(err)
		}
	}()
	if f := nw.faults.at(nd.id, round); f != nil {
		switch f.Kind {
		case FaultPanic:
			panic(&injectedPanic{node: nd.id, round: round})
		case FaultStall:
			nw.stallNode(f.Stall)
		}
	}
	return nw.step(nd, round, inbox)
}

// nodeCoro is a coroutine blocking programs run on: a node's own, resumed by
// the sweep, or one of the node's pooled coroutines, nested in it and resumed
// by Mux.Run for a Mux instance. next resumes it, yield suspends it from
// inside an exchange, stop ends it. It outlives the program — creating one
// costs ten times a resume — parked where the program returned, and runs
// prog(ex) from the top when it is next resumed. A node's next is nil before
// its first blocking run and after a panic has killed the coroutine.
type nodeCoro struct {
	next  func() (suspension, bool)
	stop  func()
	yield func(suspension) bool
	prog  func(Exchanger) error
	ex    Exchanger
}

// instanceMem is the memory of one Mux instance path on a node (see
// netBuffers.instanceMem): the instance's ScratchSlot, its send queue and the
// tag buffer SendFramed copies frames into. VNode.clearMem clears the queue's
// whole backing when the instance ends, so it pins no frame.
type instanceMem struct {
	tag     Word
	pending []pendingPacket
	tagged  []Word
	scratch any
}

// instanceMem returns the memory of node id's Mux instance with the given
// tag, the one the instance path used last, made on its first use. Tags are
// distinct among the instances live on a node, so no two share one.
func (b *netBuffers) instanceMem(id int, tag Word) *instanceMem {
	for _, m := range b.instances[id] {
		if m.tag == tag {
			return m
		}
	}
	m := &instanceMem{tag: tag}
	b.instances[id] = append(b.instances[id], m)
	return m
}

// start makes co a coroutine that runs prog(ex) whenever it is resumed at
// rest.
func (co *nodeCoro) start() {
	co.next, co.stop = iter.Pull(func(yield func(suspension) bool) {
		co.yield = yield
		for {
			err := co.prog(co.ex)
			if !yield(suspension{returned: true, err: err}) {
				return // stopped
			}
		}
	})
}

// suspension is what a coroutine hands the sweep when it yields: either the
// node is inside Exchange (the zero value) or its program has returned err.
type suspension struct {
	returned bool
	err      error
}

// resume runs nd's program on the node's coroutine — from the top on the
// first resume of a run, else from the Exchange it is suspended in — until it
// suspends again or returns. It is the blocking programs' crash barrier, Mux
// instances included: a panic unwinds the program, ends the coroutine and
// surfaces here, to be treated exactly as in runStep.
func (nw *Network) resume(nd *Node) (returned bool, err error) {
	co := nd.co
	defer func() {
		if r := recover(); r != nil {
			co.next, co.stop = nil, nil
			returned, err = true, nodePanicError(nd.id, r)
			nw.setFailure(err)
		}
	}()
	if co.next == nil {
		// nd is the node's slot of the Network's buffers, run after run.
		co.prog, co.ex = func(Exchanger) error { return nw.program(nd) }, nd
		co.start()
	}
	s, _ := co.next()
	return s.returned, s.err
}

// Node is one physical node of the clique. A Node must only be used from the
// goroutine running its program.
type Node struct {
	nw      *Network
	id      int
	round   int
	pending []pendingPacket
	sent    int
	// view boxes the records of this node's Exchange calls and step inboxes;
	// it is a slot of the pooled netBuffers.views — the node's own under Run,
	// its worker's (shared with the worker's other nodes) under RunRounds.
	view    *inboxView
	scratch *any // its ScratchSlot in netBuffers.slots, owned like view
	// co is the coroutine the node's blocking program runs on; a node without
	// one is being stepped.
	co     *nodeCoro
	steps  int64
	memory int64
}

var _ Exchanger = (*Node)(nil)

// ScratchSlot implements ScratchHolder: the slot of the node under Run, of
// the sweep worker stepping it under RunRounds.
func (nd *Node) ScratchSlot() *any { return nd.scratch }

// NodeSlot implements ScratchHolder: the node's own slot, under Run and
// RunRounds alike.
func (nd *Node) NodeSlot() *any { return &nd.nw.buffers.nodeSlots[nd.id] }

// ID returns the node identifier (0-based).
func (nd *Node) ID() int { return nd.id }

// N returns the clique size.
func (nd *Node) N() int { return nd.nw.n }

// Round returns the number of rounds this node has completed.
func (nd *Node) Round() int { return nd.round }

// Send queues a packet for node to; it is delivered at the next barrier. The
// engine copies the payload during delivery, so the caller may reuse or
// recycle data after its next Exchange returns, and a packet received this
// round may be forwarded verbatim without cloning.
func (nd *Node) Send(to int, data Packet) {
	if to < 0 || to >= nd.nw.n {
		panic(fmt.Sprintf("clique: node %d sent to invalid destination %d (n=%d)", nd.id, to, nd.nw.n))
	}
	nd.pending = append(nd.pending, queued(to, data, 1, len(data)))
}

// SendFramed queues one physical packet carrying count logical messages with
// a total model cost of modelWords words (see Exchanger).
func (nd *Node) SendFramed(to int, data Packet, count, modelWords int) {
	if to < 0 || to >= nd.nw.n {
		panic(fmt.Sprintf("clique: node %d sent to invalid destination %d (n=%d)", nd.id, to, nd.nw.n))
	}
	// The model cost may exceed len(data): every Mux level charges a tag
	// word per logical message, and a frame carries one tag for all of them.
	if count < 1 || modelWords < 0 {
		panic(fmt.Sprintf("clique: node %d framed send with count %d, model %d", nd.id, count, modelWords))
	}
	nd.pending = append(nd.pending, queued(to, data, count, modelWords))
}

// Broadcast queues the same packet for every node, including the sender.
func (nd *Node) Broadcast(data Packet) {
	for to := 0; to < nd.nw.n; to++ {
		nd.Send(to, data)
	}
}

// CountSteps adds k self-reported computation steps.
func (nd *Node) CountSteps(k int) {
	if k > 0 {
		nd.steps += int64(k)
	}
}

// ReportMemory records a self-reported resident word count; the maximum over
// the execution is kept.
func (nd *Node) ReportMemory(words int) {
	if int64(words) > nd.memory {
		nd.memory = int64(words)
	}
}

// SharedSnapshot is an immutable copy of a run's keyed shared-computation
// cache (colorings, balance plans), taken by CaptureShared after a run and
// re-applied to a later run by ArmSharedSeed. Snapshots may be shared across
// engines and goroutines: the map is never mutated after capture and the
// values it holds are the engine's memoised deterministic computations,
// which every consumer treats as read-only.
type SharedSnapshot struct {
	keyed map[SharedKey]interface{}
}

// Len returns the number of captured entries (for tests and introspection).
func (s SharedSnapshot) Len() int { return len(s.keyed) }

// Filter returns the snapshot of the entries whose key keep accepts (s
// itself when it keeps them all).
func (s SharedSnapshot) Filter(keep func(SharedKey) bool) SharedSnapshot {
	var m map[SharedKey]interface{}
	for k := range s.keyed {
		if !keep(k) {
			m = make(map[SharedKey]interface{}, len(s.keyed))
			break
		}
	}
	if m == nil {
		return s
	}
	for k, v := range s.keyed {
		if keep(k) {
			m[k] = v
		}
	}
	return SharedSnapshot{keyed: m}
}

// CaptureShared copies the keyed shared-computation cache of the engine's
// most recent run. Memoised error values are skipped — a snapshot must only
// carry reusable results. Call it between runs (after RunContext returns).
// The snapshot's values are never released (see resetRun).
func (nw *Network) CaptureShared() SharedSnapshot {
	nw.sharedMu.Lock()
	defer nw.sharedMu.Unlock()
	nw.sharedCaptured = true
	if len(nw.sharedK) == 0 {
		return SharedSnapshot{}
	}
	m := make(map[SharedKey]interface{}, len(nw.sharedK))
	for k, v := range nw.sharedK {
		if _, isErr := v.(error); isErr {
			continue
		}
		m[k] = v
	}
	return SharedSnapshot{keyed: m}
}

// ArmSharedSeed arms snap for this Network's next run: beginRun applies it
// after clearing the per-run cache, so exactly one run starts with the
// snapshot's entries pre-memoised. Passing an empty SharedSnapshot disarms.
// Like SetFaultPlan it must be called by the goroutine that starts the run,
// between runs. The caller is responsible for only seeding a run that
// executes the identical instance the snapshot was captured from — the
// session's plan cache establishes that via validate-on-hit.
func (nw *Network) ArmSharedSeed(snap SharedSnapshot) {
	nw.pendingSeed = snap
}

// SharedComputeKeyed memoises a deterministic computation across nodes under
// a structured key (see Exchanger).
func (nd *Node) SharedComputeKeyed(key SharedKey, f func() interface{}) interface{} {
	if !nd.nw.cfg.sharedCache {
		return f()
	}
	nw := nd.nw
	nw.sharedMu.Lock()
	if v, ok := nw.sharedK[key]; ok {
		nw.sharedMu.Unlock()
		return v
	}
	nw.sharedMu.Unlock()
	// Compute outside the lock: colorings can be expensive and the value is
	// deterministic, so racing computations produce identical results.
	v := f()
	nw.sharedMu.Lock()
	if prev, ok := nw.sharedK[key]; ok {
		v = prev
	} else {
		nw.sharedK[key] = v
	}
	nw.sharedMu.Unlock()
	return v
}

// publish ends the node's compute phase of the round, on the worker that ran
// it: it empties the arena slot about to be written (only that one ring slot,
// which is what keeps received payloads valid for PayloadGraceRounds barriers;
// an empty slot is how delivery recognises a receiver's first packet),
// publishes the outbox — sorted by receiver when it holds at least sortMin
// packets — and counts the round.
func (nd *Node) publish() {
	nw := nd.nw
	p := nd.round % payloadRingDepth
	nw.wordArena[p][nd.id] = nw.wordArena[p][nd.id][:0]
	if len(nd.pending) >= nw.sortMin {
		nw.outOffs[nd.id] = nd.sortOutbox()
	}
	nw.outboxes[nd.id] = nd.pending
	nd.sent = max(nd.sent, len(nd.pending))
	nd.round++
}

// sortMinShare sets the outbox size from which publish sorts an outbox by
// receiver: n/sortMinShare packets. The receiver-major loop visits every
// (receiver, sender) pair of the round, so it only pays off once a sender's
// packets cover most receivers. On the 2-core reference host (n=256, one
// packet of 1, 5 or 16 words per edge) receiver-major delivery, sort
// included, took 45-56 ns per packet against sender-major's 33-55 at n/4
// packets per sender, 35-40 against 30-38 at n/2 and 26-37 against 25-80 at
// n. The full-load protocols publish at least 0.8n packets per sender in
// almost every round of Thm 3.7 and Algorithm 4 and under 0.46n in the rest,
// so any cut in between sends the same rounds down each loop.
const sortMinShare = 2

// sortOutbox sorts the node's outbox stably by receiver, counting sort into
// the node's spare array, which becomes pending while the unsorted array
// becomes the spare, and returns the receiver index: receiver t's packets are
// pending[offs[t]:offs[t+1]]. It runs on the sweep worker that has just run
// the node, while the outbox is still in its cache.
func (nd *Node) sortOutbox() []int32 {
	n, b := nd.nw.n, nd.nw.buffers
	offs := b.offs[nd.id]
	if cap(offs) < n+1 {
		offs = make([]int32, n+1)
	}
	offs = offs[:n+1]
	b.offs[nd.id] = offs
	clear(offs)
	out := nd.pending
	for i := range out {
		offs[out[i].to+1]++
	}
	for t := 1; t <= n; t++ {
		offs[t] += offs[t-1]
	}
	// offs[t] is now where receiver t's packets start; the scatter advances
	// it to where they end, which is where t+1's start.
	sorted := b.spare[nd.id]
	if cap(sorted) < len(out) {
		sorted = make([]pendingPacket, len(out), cap(out))
	}
	sorted = sorted[:len(out)]
	for i := range out {
		t := out[i].to
		sorted[offs[t]] = out[i]
		offs[t]++
	}
	copy(offs[1:], offs[:n])
	offs[0] = 0
	nd.pending, b.spare[nd.id] = sorted, out
	return offs
}

// Exchange ends the node's round and returns what the node received in it.
// The returned Inbox is the node's own view over the round's records (nil
// when nothing was received): its structure is valid until this node's next
// Exchange call, the payload words for PayloadGraceRounds further barriers.
func (nd *Node) Exchange() (Inbox, error) {
	flat, err := nd.ExchangeFlat()
	if err != nil {
		return nil, err
	}
	if len(flat) == 0 {
		nd.view.reset() // InboxSenders must not name last round's senders
		return nil, nil
	}
	return nd.view.build(nd.nw.n, flat, noTag), nil
}

// InboxSenders implements Exchanger over the node's view.
func (nd *Node) InboxSenders() []int32 { return nd.view.touched }

// ExchangeFlat is Exchange returning the round's records as delivery wrote
// them, without building the boxed view over them.
func (nd *Node) ExchangeFlat() (FlatInbox, error) {
	// The round the packets are delivered in is nd.round as of now; the
	// worker counts the round while the program is suspended.
	slot := nd.round % payloadRingDepth
	if err := nd.suspend(); err != nil {
		return nil, err
	}
	return FlatInbox(nd.nw.wordArena[slot][nd.id]), nil
}

// suspend is the blocking programs' round barrier: it yields the node's
// coroutine to the sweep worker, which publishes the node's outbox and moves
// on, and returns when the worker resumes the program — after the round has
// been delivered, or because the run has failed.
func (nd *Node) suspend() error {
	nw := nd.nw
	if nd.co == nil {
		return errors.New("clique: Exchange is driven by the engine in RunRounds mode")
	}
	if f := nw.fail.Load(); f != nil {
		return f.err
	}
	if nw.departed[nd.id] {
		return errors.New("clique: Exchange called after node program returned")
	}

	// Injected faults fire here, at the end of the node's compute phase: a
	// panic crashes the node before it publishes (its queued sends are lost,
	// like a real crash), a stall delays the publication.
	if f := nw.faults.at(nd.id, nd.round); f != nil {
		switch f.Kind {
		case FaultPanic:
			panic(&injectedPanic{node: nd.id, round: nd.round})
		case FaultStall:
			nw.stallNode(f.Stall)
			if f := nw.fail.Load(); f != nil {
				return f.err
			}
		}
	}

	nd.co.yield(suspension{})
	if f := nw.fail.Load(); f != nil {
		return f.err
	}
	return nil
}

// shardMinPackets is the number of published packets from which a round's
// delivery is spread over the run's shards; a smaller round is delivered by
// the deliverer alone. Starting and joining a helper costs a few µs, what
// delivery spends on some fifty packets: on the 2-core reference host a step
// round of 4-word all-to-all packets gained nothing from a second shard at
// 256 packets, 3% at 576, 6% at 1024 and 18% at 16384, so below this mark a
// second core would be woken for a gain inside the noise.
const shardMinPackets = 1024

// edgeLoad names one directed edge and the model words it carried in a round.
type edgeLoad struct{ words, from, to int }

// heavier reports whether e outranks o as the round's worst edge: most words,
// then lowest sender, then lowest receiver — a total order, so the edge the
// strict-budget error names does not depend on how the round was sharded or
// which loop delivered it.
func (e edgeLoad) heavier(o edgeLoad) bool {
	if e.words != o.words {
		return e.words > o.words
	}
	if e.from != o.from {
		return e.from < o.from
	}
	return e.to < o.to
}

// source is one non-empty outbox of the round being delivered: its sender,
// its packets and, when publish sorted it, its receiver index (see
// Network.outboxes).
type source struct {
	from int32
	out  []pendingPacket
	offs []int32
}

// recvLoad is what the sender-major loop keeps per receiver while a round is
// delivered: the edge it is summing — the sender, as from+1, and that edge's
// model words and messages so far — and the receiver's model words in total.
// A stamp naming another sender means the edge starts at zero.
type recvLoad struct {
	from, words, msgs, total int32
}

// deliveryShard is one contiguous receiver range [lo, hi) of a round's
// delivery together with everything its goroutine writes besides the
// receivers' own arena and loads slots: the range's statistics and the touch
// list that re-zeroes the loads in O(traffic). Shards are pooled with their
// netBuffers; helper, bound once to run, is what lets a warm round start its
// helper goroutines without allocating a closure.
type deliveryShard struct {
	nw     *Network
	lo, hi int

	// stats covers the packets addressed into the range; MaxNodeSentWords is
	// left to the merge, which sums sent — the model words each active sender
	// delivered into the range — across shards. worst is the range's heaviest
	// edge.
	stats RoundStats
	worst edgeLoad
	sent  []int32

	recvTouch []int32

	panicked interface{}
	helper   func()
}

// runningNetworks counts the Networks of this process that are inside a run.
// It only ever steers how many goroutines a round's delivery is spread over,
// never what is delivered: results are identical for any shard count.
var runningNetworks atomic.Int32

// shardCount picks the fan-out of a round of the given number of packets: the
// cores this run may count on — GOMAXPROCS shared evenly among the Networks
// currently running, since k pooled engines under load already keep k cores
// busy and a helper would only queue behind another engine's nodes — bounded
// by WithWorkers and n, and 1 for a round below shardMinPackets.
func (nw *Network) shardCount(packets int) int {
	if nw.forceShards > 0 {
		return min(nw.forceShards, nw.n)
	}
	k := min(nw.maxShards, nw.procs/int(runningNetworks.Load()))
	if k < 2 || packets < shardMinPackets {
		return 1
	}
	return k
}

// deliveryShards returns the first k shards of the buffer set, created on
// first need, with the receivers split evenly among them.
func (nw *Network) deliveryShards(k int) []*deliveryShard {
	b := nw.buffers
	for len(b.shards) < k {
		sh := new(deliveryShard)
		sh.helper = sh.run
		b.shards = append(b.shards, sh)
	}
	shards := b.shards[:k]
	for s, sh := range shards {
		sh.nw = nw
		sh.lo, sh.hi = s*nw.n/k, (s+1)*nw.n/k
		if len(sh.sent) < nw.n {
			sh.sent = make([]int32, nw.n)
		}
	}
	return shards
}

// run delivers the shard and reports to the round's join. A panic is kept
// for the deliverer to turn into the run's failure: a helper has no caller to
// unwind into, and the deliverer's own shard must not skip the join.
func (sh *deliveryShard) run() {
	defer func() {
		sh.panicked = recover()
		sh.nw.shardWG.Done()
	}()
	if sh.nw.receiverMajor {
		sh.nw.deliverReceivers(sh)
	} else {
		sh.nw.deliverSenders(sh)
	}
}

// deliverRound appends every published packet to its receiver's arena as one
// [from, len, payload...] record — the only receive format there is — and
// folds the round statistics into the metrics. One pass over the outboxes
// counts the packets and, as long as every outbox met is sorted, lists them;
// the round is delivered receiver-major when all of them were sorted at
// publish, sender-major otherwise, and the two loops write identical records
// and statistics. The receivers are split into shards delivered concurrently
// (one shard, on this goroutine, for a round below shardMinPackets); all of
// them are joined before anything else happens. A panic in any shard fails
// the run with a delivery-panic error instead of folding the round.
func (nw *Network) deliverRound() {
	sources, packets, sorted := nw.sources[:0], 0, true
	for from, out := range nw.outboxes[:nw.n] {
		if len(out) == 0 {
			continue
		}
		packets += len(out)
		if sorted = sorted && nw.outOffs[from] != nil; sorted {
			sources = append(sources, source{int32(from), out, nw.outOffs[from]})
		}
	}
	nw.sources = sources
	nw.receiverMajor = sorted && packets > 0 && !nw.forceSenderMajor

	shards := nw.deliveryShards(nw.shardCount(packets))
	nw.shardWG.Add(len(shards))
	for _, sh := range shards[1:] {
		go sh.helper()
	}
	shards[0].run()
	nw.shardWG.Wait()
	clear(sources) // pins no outbox between rounds

	var stats RoundStats
	var worst edgeLoad
	var panicked interface{}
	for _, sh := range shards {
		if panicked == nil {
			panicked = sh.panicked
		}
		sh.panicked = nil
		stats.mergeShard(sh.stats)
		if sh.worst.heavier(worst) {
			worst = sh.worst
		}
	}
	if panicked != nil {
		nw.setFailure(fmt.Errorf("clique: delivery panicked: %v", panicked))
		return
	}
	stats.MaxEdgeWords = worst.words
	// The outboxes are consumed: a node that departs never publishes again,
	// and its last outbox must not be delivered twice.
	for from, out := range nw.outboxes[:nw.n] {
		if len(out) == 0 {
			continue
		}
		nw.outboxes[from], nw.outOffs[from] = nil, nil
		sentWords := 0
		for _, sh := range shards {
			sentWords += int(sh.sent[from])
		}
		stats.MaxNodeSentWords = max(stats.MaxNodeSentWords, sentWords)
	}

	round := int(nw.round.Load())
	if nw.cfg.maxWordsPerEdge > 0 && worst.words > nw.cfg.maxWordsPerEdge {
		nw.setFailure(fmt.Errorf(
			"clique: round %d: edge %d->%d carried %d words, budget %d: %w",
			round, worst.from, worst.to, worst.words, nw.cfg.maxWordsPerEdge, ErrBandwidthExceeded))
	}

	nw.metricsMu.Lock()
	nw.metrics.merge(stats)
	nw.metricsMu.Unlock()

	nw.round.Store(int64(round + 1))
}

// roundArenas returns the arena ring slot the current round is delivered into
// and the previous round's, nil in round 0, which presizes a slot the first
// time it is written.
func (nw *Network) roundArenas() (arena, prev [][]Word) {
	round := int(nw.round.Load())
	if round > 0 {
		prev = nw.wordArena[(round-1)%payloadRingDepth]
	}
	return nw.wordArena[round%payloadRingDepth], prev
}

// presize gives receiver t's ring slot wa, when it is written for the first
// time, the capacity of the previous round's volume, skipping the geometric
// growth re-runs in the first payloadRingDepth rounds.
func presize(wa []Word, prevArena [][]Word, t int) []Word {
	if wa != nil || prevArena == nil {
		return wa
	}
	if prev := len(prevArena[t]); prev > 0 {
		return make([]Word, 0, prev+prev/4)
	}
	return wa
}

// deliverReceivers is the receiver-major loop, for a round whose outboxes are
// all sorted by receiver: for each receiver t of sh's range it appends, in
// ascending sender order, every active sender's segment for t, so each
// receiver's records are written as one sequential stream. A segment is one
// edge, so the per-edge statistics are summed per segment and need no scratch
// state.
func (nw *Network) deliverReceivers(sh *deliveryShard) {
	arena, prevArena := nw.roundArenas()
	departed, sources := nw.departed, nw.sources
	var stats RoundStats
	var worst edgeLoad
	sent := sh.sent
	for i := range sources {
		sent[sources[i].from] = 0
	}
	for t := sh.lo; t < sh.hi; t++ {
		if departed[t] {
			for i := range sources {
				src := &sources[i]
				for _, pp := range src.out[src.offs[t]:src.offs[t+1]] {
					stats.Dropped += int(pp.count)
				}
			}
			continue
		}
		wa := arena[t]
		recv := 0
		for i := range sources {
			src := &sources[i]
			a, b := src.offs[t], src.offs[t+1]
			if a == b {
				continue
			}
			seg, from := src.out[a:b], src.from
			wa = presize(wa, prevArena, t)
			words, msgs := 0, 0
			for i := range seg {
				pp := &seg[i]
				wa = append(wa, Word(from), Word(pp.len))
				wa = append(wa, pp.payload()...)
				words += int(pp.model)
				msgs += int(pp.count)
			}
			if e := (edgeLoad{words, int(from), t}); e.heavier(worst) {
				worst = e
			}
			stats.MaxEdgeMessages = max(stats.MaxEdgeMessages, msgs)
			stats.Messages += msgs
			sent[from] += int32(words)
			recv += words
		}
		arena[t] = wa
		stats.Words += recv
		stats.MaxNodeRecvWords = max(stats.MaxNodeRecvWords, recv)
	}
	sh.stats, sh.worst = stats, worst
}

// deliverSenders is the sender-major loop: it scans every outbox in
// ascending sender order and delivers the packets addressed into sh's
// receiver range. Per-edge and per-receiver loads are tracked in the dense
// loads scratch — O(1) per packet, no hashing — and the worst edge is folded
// in packet by packet (an edge's load only grows within the round, so its
// last packet leaves the same result as its total would).
func (nw *Network) deliverSenders(sh *deliveryShard) {
	arena, prevArena := nw.roundArenas()
	lo, span := sh.lo, uint(sh.hi-sh.lo)
	var stats RoundStats
	var worst edgeLoad

	// Hoisted views of the dense scratch state: this loop is the engine's
	// hottest path on sparse rounds, so keeping these in locals (written back
	// at the end) saves a pointer chase per access.
	departed := nw.departed
	loads := nw.loads
	recvTouch := sh.recvTouch

	for from, out := range nw.outboxes[:nw.n] {
		if len(out) == 0 {
			continue
		}
		stamp := int32(from) + 1
		sentWords := 0
		for i := range out {
			pp := &out[i]
			to := int(pp.to)
			if uint(to-lo) >= span {
				continue
			}
			if departed[to] {
				stats.Dropped += int(pp.count)
				continue
			}
			// All statistics are kept in model currency: a framed packet counts
			// as pp.count logical messages of pp.model total words, so batching
			// logical messages into frames never changes the reported per-edge
			// load (only the physically copied pp.len words include the frame
			// bookkeeping).
			w := pp.model

			// Every live receiver emptied this slot when it arrived (see
			// publish), so an empty arena marks its first packet of the round.
			// Growth is append-only, so views created before a reallocation
			// keep reading valid memory.
			wa := arena[to]
			if len(wa) == 0 {
				recvTouch = append(recvTouch, int32(to))
				wa = presize(wa, prevArena, to)
			}
			wa = append(wa, Word(from), Word(pp.len))
			arena[to] = append(wa, pp.payload()...)

			ld := &loads[to]
			if ld.from != stamp {
				ld.from, ld.words, ld.msgs = stamp, 0, 0
			}
			ld.words += w
			ld.msgs += pp.count
			ld.total += w
			if e := (edgeLoad{int(ld.words), int(from), to}); e.heavier(worst) {
				worst = e
			}
			stats.MaxEdgeMessages = max(stats.MaxEdgeMessages, int(ld.msgs))
			sentWords += int(w)
			stats.Messages += int(pp.count)
			stats.Words += int(w)
		}
		sh.sent[from] = int32(sentWords)
	}

	for _, t := range recvTouch {
		stats.MaxNodeRecvWords = max(stats.MaxNodeRecvWords, int(loads[t].total))
		loads[t] = recvLoad{}
	}
	sh.recvTouch = recvTouch[:0]
	sh.stats, sh.worst = stats, worst
}

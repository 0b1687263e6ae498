// Package clique implements the congested-clique execution substrate used by
// every algorithm in this repository.
//
// The model (Section 2 of Lenzen, PODC 2013) is a fully connected system of n
// nodes with unique identifiers, computing in synchronous rounds. In each
// round every node performs arbitrary local computation and sends one message
// of O(log n) bits along each of its n-1 incident edges (nodes also "send to
// themselves" for uniformity). The package simulates this model in-process:
//
//   - a node program is either blocking code that calls Exchange to end its
//     round (Network.Run) or a function the engine calls once per round
//     (Network.RunRounds); either way k sweep workers (WithWorkers) execute
//     the n logical nodes, so very large cliques need no goroutine per node,
//   - Exchange() is the synchronous round barrier,
//   - messages are slices of 64-bit words; the O(log n)-bit budget of the
//     model corresponds to a small constant number of words per directed edge
//     per round, which the engine records (and can enforce strictly),
//   - per-round metrics capture message counts, word counts and the maximum
//     load on any directed edge, the observables the paper's bounds speak to.
//
// # Execution engine
//
// The engine has one run loop, Network.run, behind both entry points. A run
// is a sequence of rounds, and a round is a sweep followed by a delivery. In
// the sweep the run's k workers — goroutines the loop starts for the run and
// parks beside while they work — each walk a contiguous range of the nodes
// and execute every live node's compute phase: under RunRounds one call of
// the StepFunc with last round's inbox; under Run the resumption of the
// node's program, a coroutine (iter.Pull) of its worker, from where its last
// Exchange suspended it to its next Exchange or its return. The coroutines
// belong to the Network: made on a node's first blocking run, parked between
// runs where the program returned, ended by Close. A computing node appends
// to a private outbox with no synchronisation at all; when its compute phase
// ends the worker empties the node's arena slot for the round, publishes the
// outbox — counting-sorted by receiver first when it holds at least
// n/sortMinShare packets — and counts the node's round. When every worker has
// reported, the loop checks that the run goes on — no failure recorded,
// somebody left to receive, no cancellation injected at this turn-over — and
// delivers. Delivery is a fan-out over receiver ranges: the outboxes are
// read-only by now and each receiver's arena and load counters belong to one
// range, so the loop and up to min(workers, GOMAXPROCS, n)-1 helper
// goroutines each deliver their own range and are joined before the next
// sweep starts; their statistics merge commutatively, and a round of fewer
// than shardMinPackets packets stays on the loop's goroutine. A round whose
// outboxes were all sorted is delivered receiver-major (deliverReceivers):
// each receiver's records are written as one stream, each sender's segment
// for it read through the outbox's receiver index. Any other round is
// delivered sender-major (deliverSenders): every shard scans every outbox and
// keeps the packets addressed into its range. No lock is held while a node
// computes or a packet is delivered, and a steady-state round allocates
// nothing: loads are accounted per segment or in dense scratch slices, arenas
// and both outbox arrays are reused round over round, and sender-side buffers
// (the Mux's tagged packets) are recycled through a sync.Pool.
//
// A run fails through one slot, which records the first of: a node's panic
// (converted by the sweep's crash barrier), a panic in a delivery shard, a
// strict budget violation, a cancelled context, the round watchdog, an
// injected fault. A failed run delivers nothing more; blocking programs still
// suspended are resumed once so that their Exchange hands them the failure,
// and every coroutine is back at rest when the run returns.
//
// # One record format, three readers
//
// Delivery writes exactly one format: every packet becomes a [from, len,
// payload...] record appended to its receiver's arena (FlatInbox), in
// ascending sender order, whoever the receiver is and however it will read.
// ExchangeFlat hands those records out as they are — the path of the
// flat-frame protocol layer. A boxed Inbox is never delivered; it is a view
// (sender table + packet headers) the receiver builds over the records on its
// own goroutine, by one builder with three callers: Node.Exchange (the node's
// view, pooled with the Network's buffers), the sweep of step programs (one
// view per worker, rebuilt for each stepping node) and VNode.Exchange (the
// instance's view over the node's records, filtered by the instance's tag on
// a Mux of the node and on one nested in an instance alike). The builder also lists the senders it met; Exchanger.InboxSenders hands that
// list out, so a receiver that heard from a handful of nodes visits those
// table entries and not all n.
// Lifetimes: the Inbox structure is valid until the receiver's next exchange
// (the end of the step call under RunRounds); the payload words, boxed or
// flat, for PayloadGraceRounds further barriers.
//
// Executions are deterministic: both delivery loops write a receiver's records
// in ascending sender order (the sort at publish is stable), so node programs
// see identical inboxes and metrics on every run of the same workload, for
// every worker and shard count and either loop, and a strict-budget failure
// names the same edge (most words, then lowest sender, then lowest receiver).
//
// # Sessions
//
// One Network supports an unbounded sequence of (non-overlapping) runs —
// the substrate of the public session API. Every run after the first starts
// from a fully reset engine (failure slot, round counter, metrics, arenas,
// strict-budget accounting, step accounting, shared-computation cache) while
// retaining the allocated capacity of every buffer, Node struct and outbox
// array, and the coroutines, so a run on a warm engine performs no
// construction work. The shared cache is deliberately scoped per run: the
// memoised values are colorings of the run's demand matrices, which depend
// on the instance data, not only on n. The next run releases those with a
// Release method (the colorings hand their arrays to later ones) unless
// CaptureShared snapshotted the run or ArmSharedSeed supplied them, since
// the plan cache keeps both beyond the run. Metrics is the per-run view and
// CumulativeMetrics the across-run aggregate; Close ends the coroutines,
// releases the last run's values under the same rule and returns the pooled
// delivery buffers, so every Network must be closed.
//
// RunContext and RunRoundsContext accept a context: the loop checks it before
// every round, and a cancellation fails the run like any other failure — no
// goroutine is ever stranded, and the Network remains usable for further
// runs.
//
// # Engine-local vs shared state (concurrent Networks)
//
// Multiple Networks may run concurrently in one process (the public session
// API pools them behind one handle). The locality rules:
//
//   - Engine-local, by ownership: the netBuffers delivery state (arenas,
//     receive views, outboxes, Node structs) is checked out of the process-wide
//     netBufPool at New and owned exclusively by that Network until Close —
//     two live Networks never share a buffer set. So is execMem, the opaque
//     ScratchHolder slots of the executors and the Mux instances' send
//     queues and tag buffers, which Close hands to the set for the next
//     Network on it (a one-shot call's too). The shared-computation cache,
//     metrics, cumulative totals and step accounting are plain fields of the
//     Network, guarded by its own mutexes.
//   - Shared, by design: netBufPool itself, execMemPool and the colorings'
//     pool in package bipartite are process-wide sync.Pools. They exchange
//     only quiescent buffers — a buffer is either owned by exactly one run
//     or sitting in the pool — so concurrent Networks recycle through them
//     without coordination beyond the Pool's own. New first
//     tries the released buffer sets, most recent first (weak pointers
//     beside netBufPool, so none outlives the pool's hold on its set): a
//     lone sync.Pool Put is only visible to Gets on its own processor, and
//     the next Network would otherwise miss it about half the time.
//
// Nothing else is process-global; running k Networks costs k times the
// engine-local state plus whatever the pools currently cache.
//
// Node programs are written against the Exchanger interface so that the same
// algorithm code can run either directly on a physical Node or on a virtual
// node provided by a Mux, which multiplexes several logical protocol
// instances onto one physical node in lockstep rounds (used by the
// non-square-n construction of Theorem 3.7 and by Step 6 of Algorithm 4).
// The Mux adds no scheduler of its own: each instance is a coroutine nested
// in its node's — one of the node's pooled coroutines, kept like the node's
// own until Close — and Mux.Run is a small run loop of the engine's shape,
// resuming the instances up to their exchanges and then exchanging once for
// all of them. A panic in an instance is a panic of the node's program.
package clique

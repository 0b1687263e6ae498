// Package core implements the algorithms of Lenzen, "Optimal Deterministic
// Routing and Sorting on the Congested Clique" (PODC 2013).
//
// The package provides, as functions executed by every node of a simulated
// congested clique (package internal/clique):
//
//   - the Information Distribution Task of Problem 3.1 solved by Algorithm 1
//     and Algorithm 2 in 16 rounds (Theorem 3.7), including the non-square-n
//     construction,
//   - the low-computation variant of Section 5 (Theorem 5.4) in 10 rounds,
//     two under the theorem's 12 (its proportional rule needs no set
//     totals),
//   - the sorting algorithm of Problem 4.1 solved by Algorithms 3 and 4 in 37
//     rounds (Theorem 4.5), and in 31 with Theorem 5.4 as Step 6's router
//     (LowComputeSort),
//   - the rank-in-union variant, selection and mode (Corollary 4.6), as
//     epilogues on any sorter's SortResult,
//   - the small-key counting protocol of Section 6.3,
//   - the demand-aware routing planner (planner.go, not part of the paper):
//     PlanRoute classifies an instance and AutoRoute dispatches it to a
//     direct-send, scatter/broadcast or zero-round fast path when demand is
//     sparse or one-to-many, and to the 10-round Theorem 5.4 pipeline
//     otherwise. The dispatch rule is specified in ARCHITECTURE.md.
//
// The building blocks mirror the paper's structure: Corollary 3.3 (two-round
// routing with publicly known demands, relayRoute) and Corollary 3.4
// (four-round routing with unknown demands inside a group, groupRouteUnknown)
// are implemented once and reused by every algorithm, exactly as in the
// paper. All schedule computations (edge colorings of demand matrices) are
// deterministic, so nodes agree on them without communication.
//
// # Flat-frame wire format
//
// All protocol communication goes through the flat-frame pipeline: every
// logical model message a node sends to one neighbor in one round is staged
// into a log (the stager of frame.go, held by a comm or by a presorted step
// program's node) and flushed as a single physical packet per busy edge, the
// frame
//
//	[count, len_1, msg_1 words..., ..., len_count, msg_count words...]
//
// The count and len_i words are simulator bookkeeping, not model traffic:
// frames are handed to the engine with SendFramed(count, Σ len_i), so all
// engine statistics (Stats.MaxEdgeWords, MaxEdgeMessages, TotalMessages,
// TotalWords, the strict bandwidth budget) are identical to sending the
// count messages as individual packets. Batching is an encoding, never an
// algorithmic change — the stats_invariants tests in the root package pin
// this against goldens captured from the per-parcel implementation.
//
// The receive side of a comm is the engine's one receive format
// (clique.Exchanger.ExchangeFlat, on physical nodes and the Mux's virtual
// nodes alike): the round's traffic as the raw [from, len, payload...]
// records delivery wrote, which comm.exchange decodes in one sweep. A comm
// never asks for a boxed Inbox, so no view is ever built for it.
//
// # Arena ownership and lifetime rules
//
// Four kinds of memory back what protocol code touches; retaining a
// decoded slice beyond its window is a bug:
//
//   - Engine receive memory. Messages decoded from an exchange (rxBuf views,
//     the units relayRoute delivers, announceFixed payloads,
//     spreadBroadcast packets) point into the engine's receive arena. They
//     are valid for clique.PayloadGraceRounds further barriers of the
//     instance that received them; every constant-round primitive re-stages
//     or decodes them within that window. The relay primitives stage each
//     unit from where it lies: a held parcel received one round before
//     Corollary 3.4 is staged after the two announcement barriers, inside
//     the window, with no copy in between. Concurrently multiplexed
//     instances keep advancing the physical barrier, so a sub-instance that
//     finishes early must not hand engine-backed views upward.
//
//   - Instance arena memory. comm.arenaAppend copies words into the
//     instance-owned arena for the three things a comm encodes itself:
//     a router's input parcels (routeMessages), Algorithm 4's key bundles
//     (bundleBuckets) and the deliveries a V1/V2/corner sub-instance of
//     Theorem 3.7's decomposition copies up into its parent's arena, since
//     it finishes while its siblings keep running. Views stay valid across
//     appends (growth is append-only) until comm.release hands the arena
//     back; arenaReset truncates it at pipeline points where no views are
//     live. The parcels a router delivers (routeHeld) are engine-backed
//     views, decoded by the comm's creator right away.
//
//   - Int and key arena memory. The count matrices, balance plans and
//     cursors an instance builds are carved from its comm's int arena
//     (intMatrix, intVec), and the key sets of a sort (Algorithm 4's sorted
//     input, samples, delimiters and routed keys, Algorithm 3's selections,
//     samples, delimiters and bucket, the small-domain arm's counting sort)
//     from its key arena (keyVec); both live until comm.release. A presorted
//     step program, which builds no comm, readies the two arenas of the set
//     it borrows (readyArenas) and carves its sorted copy and rank marker
//     from them for the one step. Algorithm 4's Step 6 router runs on a
//     sub-comm released before anyone reads the keys it delivered, so it
//     carves them from the sort's own comm. Algorithm 3 (groupSort) sorts
//     the slice it is handed in place, so a caller hands it one it owns:
//     sortTiny copies the caller's row into the key arena first. What a schedule capture
//     keeps for later runs is cloned at the capture site (cloneIntMatrix,
//     slices.Clone), and a sort's result batch is a fresh slice.
//
//   - Staging memory. The staging log and frame buffer are recycled every
//     round; the engine copies frame contents at delivery, so nothing may
//     retain them across an exchange — and nothing may overwrite them before
//     it, which is why a step program's node keeps its stager across steps
//     (taken from rankLogs, the one pool left on this path).
//
// All of it but the engine's receive memory is the buffer set at the comm's
// depth on its executor's stack (scratchStack), which newComm takes and
// comm.release hands back: only once the instance's results have been copied
// into caller-owned values (or into its parent's arena, as the V1/V2/corner
// routers of Theorem 3.7's decomposition do), and only after every comm
// taken after it on the executor.
package core

// Package core implements the algorithms of Lenzen, "Optimal Deterministic
// Routing and Sorting on the Congested Clique" (PODC 2013).
//
// The package provides, as functions executed by every node of a simulated
// congested clique (package internal/clique):
//
//   - the Information Distribution Task of Problem 3.1 solved by Algorithm 1
//     and Algorithm 2 in 16 rounds (Theorem 3.7), including the non-square-n
//     construction,
//   - the low-computation 12-round variant of Section 5 (Theorem 5.4),
//   - the sorting algorithm of Problem 4.1 solved by Algorithms 3 and 4 in 37
//     rounds (Theorem 4.5),
//   - the rank-in-union variant, selection and mode (Corollary 4.6),
//   - the small-key counting protocol of Section 6.3,
//   - the demand-aware routing planner (planner.go, not part of the paper):
//     PlanRoute classifies an instance and AutoRoute dispatches it to a
//     direct-send, scatter/broadcast or zero-round fast path when demand is
//     sparse or one-to-many, and to the 12-round Theorem 5.4 pipeline
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
// Three kinds of memory back the words protocol code touches; retaining a
// decoded slice beyond its window is a bug:
//
//   - Engine receive memory. Messages decoded from an exchange (rxBuf views,
//     relayRoute items, announceFixed payloads, spreadBroadcast packets)
//     point into the engine's receive arena. They are valid for
//     clique.PayloadGraceRounds further barriers of the instance that
//     received them; every constant-round primitive re-stages or decodes
//     them within that window. Concurrently multiplexed instances keep
//     advancing the physical barrier, so a sub-instance that finishes early
//     must not hand engine-backed views upward.
//
//   - Instance arena memory. comm.arenaAppend/arenaHeld copy words into the
//     instance-owned arena. Views stay valid across appends (growth is
//     append-only) until comm.release hands the arena to the pool; arenaReset
//     truncates it at pipeline points where no views are live. Parcels
//     returned by routeParcels are arena-backed for exactly this reason:
//     they outlive the engine's grace window, and the comm's creator
//     consumes them before releasing the comm.
//
//   - Staging memory. The staging log and frame buffer are recycled every
//     round; the engine copies frame contents at delivery, so nothing may
//     retain them across an exchange — and nothing may overwrite them before
//     it, which is why a step program's node keeps its stager across steps.
//
// comm.release returns all of it to process-wide pools; it is only legal
// once the instance's results have been copied into caller-owned values.
// Sub-instances whose arena-backed parcels flow upward (the V1/V2/corner
// routers of Theorem 3.7's decomposition) are never released and fall to the
// garbage collector instead.
package core

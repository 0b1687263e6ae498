// Package service is the network front-end of the congested-clique library:
// a long-running server (cmd/cliqued) exposing Route, Sort, SortKeys and the
// corollary operations over a length-prefixed binary wire protocol, and the
// matching client used by cliquebench's load and record subcommands and
// the tests.
//
// The wire protocol reuses the flat [count, len, msg...] frame layout of
// internal/core: every request and response is one such frame, carried as a
// 64-bit word count followed by the frame's words in big-endian byte order.
// The package streams its frames with its own writer (beginBody/endBody open
// and close each message, appendFrameBytes adds the prefix and the byte
// order) and decodes them with core.DecodeFrame. Instance payloads (message rows,
// value rows) and result payloads (delivered rows, sorted batches) are the
// frame's logical messages, so the same decoder discipline that protects the
// engine's receive path — truncated or malformed frames error, never panic —
// protects the network boundary (pinned by FuzzWireDecode).
//
// The server fronts one pooled session handle (congestedclique.New with
// WithMaxConcurrency): requests pass a bounded admission queue (shed-on-full
// with the named ErrOverloaded; see Config.QueueDepth), compatible small
// Route instances are batched into one engine run where the demand-aware
// planner permits, per-request deadlines ride the existing context plumbing,
// transient engine failures retry via WithRetry, and SIGTERM-style shutdown
// drains gracefully: accepting stops, in-flight requests complete
// bit-identically, late arrivals are rejected with the named ErrDraining.
//
// See docs/SERVICE.md for the wire format specification, the admission,
// batching and deadline semantics, and the SLO measurement methodology.
package service

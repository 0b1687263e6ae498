package service

import (
	"context"
	"time"

	cc "congestedclique"

	"congestedclique/internal/core"
)

// Server-side batching merges several small Route requests into one engine
// run when the demand-aware planner would still pick a sub-pipeline strategy
// for the merged instance. Each request's messages keep their source rows;
// sequence numbers are densely remapped per source so merged messages stay
// distinguishable, and a reverse reference table splits the merged delivery
// back into per-request results with the original sequence numbers restored.
// Combined with the canonical (Src, Seq) response order, a batched request's
// delivered rows are bit-identical to what an unbatched run would have
// produced. Its reported strategy is the merged run's, which under
// AlgorithmAuto can differ from the request's solo plan: an empty request
// batched with others reports direct, and requests that are each direct
// merge into broadcast once one (src, dst) pair passes the direct arm's
// multiplicity cap.

// batchable reports whether a request may join a merged Route run: Route
// only, not opted out, not carrying an injected fault (a fault must hit
// exactly the run of the request that asked for it), and with per-source
// sequence numbers the session layer would accept. The last check keeps the
// batched and unbatched paths indistinguishable: merging remaps sequence
// numbers, which would otherwise let a duplicate-Seq instance — rejected
// with ErrInvalidInstance when run alone — slip through inside a batch.
func batchable(p *pending) bool {
	return p.req.Op == OpRoute && !p.req.NoBatch && p.req.FaultCancelRound < 0 &&
		seqsUnique(p.req.Msgs)
}

// seqsUnique reports whether every source row uses distinct sequence
// numbers (the session validator's per-row rule).
func seqsUnique(msgs [][]cc.Message) bool {
	for _, row := range msgs {
		if len(row) < 2 {
			continue
		}
		seen := make(map[int]struct{}, len(row))
		for _, m := range row {
			if _, dup := seen[m.Seq]; dup {
				return false
			}
			seen[m.Seq] = struct{}{}
		}
	}
	return true
}

// batchLoad is the per-source and per-destination message count of a
// request, used to keep a merged instance inside the engine's per-row caps.
type batchLoad struct {
	src []int
	dst []int
}

func newBatchLoad(n int) *batchLoad {
	return &batchLoad{src: make([]int, n), dst: make([]int, n)}
}

// add merges p's load, or reports false (leaving the load unchanged) if any
// per-source or per-destination count would exceed n — the engine's validity
// cap for a single Route instance.
func (l *batchLoad) add(p *pending, n int) bool {
	for i, row := range p.req.Msgs {
		if l.src[i]+len(row) > n {
			return false
		}
		for _, m := range row {
			if m.Dst < 0 || m.Dst >= n || l.dst[m.Dst]+1 > n {
				return false
			}
		}
	}
	for i, row := range p.req.Msgs {
		l.src[i] += len(row)
		for _, m := range row {
			l.dst[m.Dst]++
		}
	}
	return true
}

// collectBatch gathers further batchable requests behind first, up to
// BatchMaxOps and the merged-load caps, waiting at most BatchWait for
// stragglers. It returns the batch and, when a pulled request could not
// join, that request as the worker's carry.
func (s *Server) collectBatch(first *pending) (batch []*pending, carry *pending) {
	n := s.cfg.N
	load := newBatchLoad(n)
	load.add(first, n)
	batch = []*pending{first}
	var waitCh <-chan time.Time
	if s.cfg.BatchWait > 0 {
		t := time.NewTimer(s.cfg.BatchWait)
		defer t.Stop()
		waitCh = t.C
	}
	for len(batch) < s.cfg.BatchMaxOps {
		var p *pending
		var ok bool
		if waitCh != nil {
			select {
			case p, ok = <-s.queue:
			case <-waitCh:
				return batch, nil
			}
		} else {
			select {
			case p, ok = <-s.queue:
			default:
				return batch, nil
			}
		}
		if !ok {
			return batch, nil
		}
		if !batchable(p) || !load.add(p, n) {
			return batch, p
		}
		batch = append(batch, p)
	}
	return batch, nil
}

// seqRef locates one merged message's origin: request batch[k], original
// sequence number seq.
type seqRef struct {
	k   int
	seq int
}

// runBatch serves a collected batch. Singleton batches take the ordinary
// path. A merged instance the planner would push into the full-load pipeline
// is not worth fusing — the pipeline's cost is the full 16 rounds either
// way — so the batch falls back to individual runs; so does a batch whose
// merged run fails, keeping per-request deadlines and error mapping exact.
func (s *Server) runBatch(batch []*pending) {
	// Requests whose deadline already passed while queued fail now and drop
	// out of the merge.
	live := batch[:0]
	for _, p := range batch {
		if !p.deadline.IsZero() && !time.Now().Before(p.deadline) {
			s.finish(p, errResponse(p.req.ID, context.DeadlineExceeded))
			continue
		}
		live = append(live, p)
	}
	batch = live
	if len(batch) == 0 {
		return
	}
	if len(batch) == 1 {
		s.finish(batch[0], s.execute(batch[0]))
		return
	}

	n := s.cfg.N
	merged := make([][]cc.Message, n)
	refs := make([][]seqRef, n)
	for k, p := range batch {
		for i, row := range p.req.Msgs {
			for _, m := range row {
				seq := len(refs[i])
				refs[i] = append(refs[i], seqRef{k: k, seq: m.Seq})
				merged[i] = append(merged[i], cc.Message{Src: i, Dst: m.Dst, Seq: seq, Payload: m.Payload})
			}
		}
	}
	if plan := core.PlanRoute(n, merged); plan.Strategy == core.StrategyPipeline {
		for _, p := range batch {
			s.finish(p, s.execute(p))
		}
		return
	}

	// The merged run races the earliest member deadline; on any failure each
	// member re-runs individually under its own deadline, so a tight
	// deadline on one request cannot fail its batchmates.
	ctx := context.Background()
	var earliest time.Time
	for _, p := range batch {
		if !p.deadline.IsZero() && (earliest.IsZero() || p.deadline.Before(earliest)) {
			earliest = p.deadline
		}
	}
	var cancel context.CancelFunc
	if !earliest.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, earliest)
		defer cancel()
	}
	var opts []cc.Option
	if s.cfg.Algorithm != 0 {
		opts = append(opts, cc.WithAlgorithm(s.cfg.Algorithm))
	}
	if s.cfg.Retries > 0 {
		opts = append(opts, cc.WithRetry(s.cfg.Retries, s.cfg.RetryBackoff))
	}
	res, err := s.cl.Route(ctx, merged, opts...)
	if err != nil {
		for _, p := range batch {
			s.finish(p, s.execute(p))
		}
		return
	}
	s.batchedRuns.Add(1)
	s.batchedOps.Add(int64(len(batch)))

	// Split the merged delivery: each delivered message's (Src, Seq) keys
	// the reference table back to its request and original sequence number.
	perReq := make([][][]cc.Message, len(batch))
	for k := range perReq {
		perReq[k] = make([][]cc.Message, n)
	}
	for dst, row := range res.Delivered {
		for _, m := range row {
			ref := refs[m.Src][m.Seq]
			perReq[ref.k][dst] = append(perReq[ref.k][dst],
				cc.Message{Src: m.Src, Dst: dst, Seq: ref.seq, Payload: m.Payload})
		}
	}
	// The remapped Seqs order each row by position in the merged row, not
	// by the request's own Seqs, so the split rows are put back into
	// canonical order.
	for k, p := range batch {
		for _, row := range perReq[k] {
			canonicalizeRow(row)
		}
		s.finish(p, routeResponse(p.req.ID, perReq[k], res.Strategy))
	}
}

package core

import (
	"fmt"
	"slices"

	"congestedclique/internal/clique"
)

// This file implements Sort's empty and presorted arms as the per-node step
// program sortProgram, and SparseSortRun, its adapter to the engine-driven
// scheduler (see sparse.go for the two drivers).
//
// The presorted arm is the one fast path that exists twice, on purpose. The
// step program below stages through frameStager, whose state is proportional
// to the node's own traffic — what a run at n=16384 needs. AutoSort's
// presortedSort (planner_sort.go) runs the same two dealByRank rounds through
// the pooled dense comm scratch, which is several times cheaper per key once
// every node holds ~n keys: forcing this program at full load read the
// benchmark's auto_mix workload (n=256, n² keys) at 383.9k allocs/op against
// 23.9k and 2.64 against 1.75 op_p50_cal. Each wins on one benchmark
// workload, so both stay and the session picks from what it already knows:
// the step program iff plan.TotalKeys ≤ FastPathMaxTotal(n). Both put the
// same ranked bundles and rank records into the same flat frames (one frame
// per busy destination per round, first-touch order, identical SendFramed
// accounting), so results and Stats are bit-identical;
// TestSparseSortRunMatchesDense pins that.
//
// Round mapping (with the census armed, SparseSortRun prepends its
// SortCensusRounds rounds):
//
//	presorted  round 0: ranked bundles out   round 1: forward by rank
//	           round 2: assemble batch, done
//	empty      round 0: done
type sortProgram struct {
	stager frameStager
	result *SortResult // non-nil once the program is done
}

// step executes strategy round `round` of plan for the node holding row.
func (p *sortProgram) step(ex clique.Exchanger, plan *SortPlan, row []Key, round int, inbox clique.Inbox) (bool, error) {
	switch plan.Strategy {
	case SortStrategyEmpty:
		if len(row) != 0 {
			return true, fmt.Errorf("core: empty sort plan but node %d holds %d keys", ex.ID(), len(row))
		}
		p.result = &SortResult{}
		return true, nil
	case SortStrategyPresorted:
		return p.presortedStep(ex, plan, row, round, inbox)
	default:
		return true, fmt.Errorf("core: unknown sort strategy %v", plan.Strategy)
	}
}

// presortedStep is presortedSort (and the dealByRank/dealDeliver pair behind
// it) as a step program.
func (p *sortProgram) presortedStep(ex clique.Exchanger, plan *SortPlan, myKeys []Key, round int, inbox clique.Inbox) (bool, error) {
	const context = "presorted.rank"
	n, id := ex.N(), ex.ID()
	total := 0
	if len(plan.StartRanks) > 0 {
		total = plan.StartRanks[len(plan.StartRanks)-1]
	}
	perNode := ceilDiv(total, n)
	if perNode == 0 {
		perNode = 1
	}
	switch round {
	case 0:
		if len(plan.StartRanks) != n+1 {
			return true, fmt.Errorf("core: presorted plan carries %d start ranks for n=%d", len(plan.StartRanks), n)
		}
		if got, want := len(myKeys), plan.StartRanks[id+1]-plan.StartRanks[id]; got != want {
			return true, fmt.Errorf("core: presorted plan expected %d keys at node %d, got %d (plan does not match the instance)", want, id, got)
		}
		keys := append([]Key(nil), myKeys...)
		sortKeys(keys)
		// Round 1 of dealByRank: deal (rank,key) pairs, bundled, round-robin.
		start := plan.StartRanks[id]
		packetIdx := 0
		for lo := 0; lo < len(keys); lo += keysPerBundle {
			hi := min(lo+keysPerBundle, len(keys))
			p.stager.open((id + packetIdx) % n)
			p.stager.words(clique.Word(hi - lo))
			for t := lo; t < hi; t++ {
				k := keys[t]
				p.stager.words(clique.Word(start+t), k.Value, clique.Word(k.Origin), clique.Word(k.Seq))
			}
			p.stager.close()
			packetIdx++
		}
		p.stager.flush(ex)
		return false, nil
	case 1:
		// Decode the ranked bundles and forward every key to the node owning
		// its rank range (round 2 of dealDeliver).
		var relayed []rankedKey
		for from := 0; from < len(inbox); from++ {
			for _, frame := range inbox[from] {
				records, err := appendFrameMessages(nil, frame)
				if err != nil {
					return true, fmt.Errorf("%s deal: %w", context, err)
				}
				for _, rec := range records {
					if len(rec) < 1 {
						continue
					}
					count := int(rec[0])
					if count < 0 || len(rec) < 1+count*(keyWords+1) {
						return true, fmt.Errorf("%s deal: malformed ranked bundle", context)
					}
					for i := 0; i < count; i++ {
						base := 1 + i*(keyWords+1)
						k, decErr := decodeKey(rec[base+1:])
						if decErr != nil {
							return true, fmt.Errorf("%s deal: %w", context, decErr)
						}
						relayed = append(relayed, rankedKey{rank: int(rec[base]), key: k})
					}
				}
			}
		}
		for _, rk := range relayed {
			dst := min(rk.rank/perNode, n-1)
			p.stager.open(dst)
			p.stager.words(clique.Word(rk.rank), rk.key.Value, clique.Word(rk.key.Origin), clique.Word(rk.key.Seq))
			p.stager.close()
		}
		p.stager.flush(ex)
		return false, nil
	default:
		// Assemble the contiguous batch.
		var mine []rankedKey
		for from := 0; from < len(inbox); from++ {
			for _, frame := range inbox[from] {
				records, err := appendFrameMessages(nil, frame)
				if err != nil {
					return true, fmt.Errorf("%s deliver: %w", context, err)
				}
				for _, rec := range records {
					if len(rec) < 1+keyWords {
						continue
					}
					k, decErr := decodeKey(rec[1:])
					if decErr != nil {
						return true, fmt.Errorf("%s deliver: %w", context, decErr)
					}
					mine = append(mine, rankedKey{rank: int(rec[0]), key: k})
				}
			}
		}
		slices.SortFunc(mine, func(a, b rankedKey) int { return a.rank - b.rank })
		res := &SortResult{Total: total}
		if len(mine) > 0 {
			res.Start = mine[0].rank
			res.Batch = make([]Key, 0, len(mine))
		} else {
			res.Start = min(id*perNode, total)
		}
		for i, rk := range mine {
			if i > 0 && mine[i-1].rank+1 != rk.rank {
				return true, fmt.Errorf("%s deliver: node %d received non-contiguous ranks %d and %d", context, id, mine[i-1].rank, rk.rank)
			}
			res.Batch = append(res.Batch, rk.key)
		}
		p.result = res
		return true, nil
	}
}

// SparseSortRun drives one sortProgram per node on the engine's step
// scheduler (RunRounds): with the census armed, step rounds 0..1 carry its
// two exchanges and the strategy starts in the round that verifies it.
type SparseSortRun struct {
	plan  SortPlan
	keys  [][]Key
	progs []sortProgram
}

// NewSparseSortRun prepares a step-mode execution of plan over keys (indexed
// by node, rows beyond len(keys) empty). The plan must be PlanSort of the
// same instance and its strategy must be SparseSortStepCapable.
func NewSparseSortRun(n int, keys [][]Key, plan SortPlan) (*SparseSortRun, error) {
	if !SparseSortStepCapable(plan.Strategy) {
		return nil, fmt.Errorf("core: sparse sort: strategy %v requires the blocking scheduler", plan.Strategy)
	}
	if plan.N != n {
		return nil, fmt.Errorf("core: sort plan computed for n=%d executed on n=%d", plan.N, n)
	}
	return &SparseSortRun{plan: plan, keys: keys, progs: make([]sortProgram, n)}, nil
}

// Result returns node's sort result, valid after the run completes
// successfully; it is non-nil for every node.
func (run *SparseSortRun) Result(node int) *SortResult { return run.progs[node].result }

// Step is the clique.StepFunc of the run.
func (run *SparseSortRun) Step(nd *clique.Node, round int, inbox clique.Inbox) (bool, error) {
	var row []Key
	if nd.ID() < len(run.keys) {
		row = run.keys[nd.ID()]
	}
	if run.plan.Census {
		if round <= SortCensusRounds {
			if err := sortCensusStep(nd, &run.plan, row, round, inbox); err != nil || round < SortCensusRounds {
				return err != nil, err
			}
		}
		round -= SortCensusRounds
	}
	return run.progs[nd.ID()].step(nd, &run.plan, row, round, inbox)
}

// frameStager is the comm staging log (stageOpen/stageClose/flushFrames in
// types.go) re-implemented without dense per-node tables: the destination
// load map, first-touch order and record log are all proportional to the
// traffic actually staged this round. flush emits byte-identical frames in
// the identical first-touch destination order with the identical SendFramed
// accounting, so a step-mode round is indistinguishable on the wire from the
// blocking comm's round.
type frameStager struct {
	stage    []clique.Word // [dst, len, words...] records in staging order
	lastOpen int           // stage offset of the open record's dst slot
	touched  []int32       // destinations in first-touch order
	load     map[int32]*stagerDst
	frameBuf []clique.Word
}

// stagerDst is the per-destination accounting of one staging round.
type stagerDst struct {
	words int32 // payload plus length slots
	count int32 // records staged
	start int32 // first record's offset in stage (count==1: served in place)
	off   int32 // multi-record assembly cursor into frameBuf
}

// open starts a record bound for dst.
func (s *frameStager) open(dst int) {
	if s.load == nil {
		s.load = make(map[int32]*stagerDst)
	}
	s.lastOpen = len(s.stage)
	s.stage = append(s.stage, clique.Word(dst), 0)
}

// words appends payload words to the open record.
func (s *frameStager) words(ws ...clique.Word) {
	s.stage = append(s.stage, ws...)
}

// close finishes the open record, fixing its length slot and the
// destination's frame accounting.
func (s *frameStager) close() {
	hdr := s.lastOpen
	l := int32(len(s.stage) - hdr - 2)
	s.stage[hdr+1] = clique.Word(l)
	d := int32(s.stage[hdr])
	ds := s.load[d]
	if ds == nil {
		ds = &stagerDst{start: int32(hdr)}
		s.load[d] = ds
		s.touched = append(s.touched, d)
	}
	ds.words += l + 1
	ds.count++
}

// flush assembles one frame per busy destination — in first-touch order,
// single-record frames served straight from the log, multi-record frames
// copied into frameBuf — and hands them to the engine with the logical
// message count and model word cost, exactly like comm.flushFrames.
func (s *frameStager) flush(ex clique.Exchanger) {
	if len(s.touched) == 0 {
		return
	}
	total := 0
	multi := false
	for _, d := range s.touched {
		ds := s.load[d]
		if ds.count > 1 {
			multi = true
			ds.start = int32(total)
			ds.off = int32(total + 1) // write cursor, past the count slot
			total += 1 + int(ds.words)
		}
	}
	if multi {
		if cap(s.frameBuf) < total {
			s.frameBuf = make([]clique.Word, total, total+total/2)
		} else {
			s.frameBuf = s.frameBuf[:total]
		}
		for i := 0; i < len(s.stage); {
			d := int32(s.stage[i])
			l := int(s.stage[i+1])
			if ds := s.load[d]; ds.count > 1 {
				cur := int(ds.off)
				copy(s.frameBuf[cur:cur+1+l], s.stage[i+1:i+2+l])
				ds.off = int32(cur + 1 + l)
			}
			i += 2 + l
		}
	}
	for _, d := range s.touched {
		ds := s.load[d]
		count := int(ds.count)
		size := 1 + int(ds.words) // count slot plus records
		start := int(ds.start)
		if count == 1 {
			frame := s.stage[start : start+size : start+size]
			frame[0] = 1
			ex.SendFramed(int(d), clique.Packet(frame), 1, size-2)
		} else {
			s.frameBuf[start] = clique.Word(count)
			ex.SendFramed(int(d), clique.Packet(s.frameBuf[start:start+size:start+size]), count, size-1-count)
		}
		delete(s.load, d)
	}
	s.touched = s.touched[:0]
	s.stage = s.stage[:0]
}

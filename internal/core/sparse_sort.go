package core

import (
	"fmt"
	"slices"

	"congestedclique/internal/clique"
)

// This file implements Sort's empty and presorted arms as the per-node step
// program sortProgram, and SparseSortRun, its adapter to RunRounds (see
// sparse.go for the two drivers).
//
// The presorted arm is Step 8 of Algorithm 4 run alone: the three pieces of
// the rank redistribution in sorting.go, driven from the step inbox where
// dealRanked drives them around a comm's exchanges. A node's keys take the
// consecutive ranks from StartRanks[id], so round 0 stages them with that
// start rank — straight from the caller's row when it is sorted, from a
// sorted copy otherwise — and the last round writes every received key to
// its slot of the batch. All a node keeps between rounds is its stager from
// rankLogs (the log must outlive the step: the engine copies frames at
// delivery), and only once it has a key to stage; the sorted copy, the
// batch's rank marker, the receive buffers and the destination tables of the
// flush are the executor's scratch, borrowed for the one step.
//
// Round mapping (with the census armed, SparseSortRun prepends its
// SortCensusRounds rounds; a cache hit's row check adds nothing, except to
// the empty arm, which it gives one round — see hitRound):
//
//	presorted  round 0: ranked bundles out   round 1: forward by rank
//	           round 2: assemble batch, done
//	empty      round 0: done
type sortProgram struct {
	staged *stager     // from rankLogs, held from the first staged key until done
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
		stack := stackOf(ex)
		set := stack.push()
		set.readyArenas()
		done, err := p.presortedStep(ex, plan, row, round, inbox, &set.commScratch)
		stack.pop(set)
		if (done || err != nil) && p.staged != nil {
			p.staged.stage = p.staged.stage[:0] // a failed step may leave its log staged
			rankLogs.Put(p.staged)
			p.staged = nil
		}
		return done, err
	default:
		return true, fmt.Errorf("core: unknown sort strategy %v", plan.Strategy)
	}
}

// presortedStep is the skip-redistribution arm: the plan certifies that the
// rows partition the global order, so after a free local sort this node's
// run occupies the contiguous global ranks starting at StartRanks[id] and the
// two redistribution rounds of Algorithm 4's Step 8 finish the job alone.
func (p *sortProgram) presortedStep(ex clique.Exchanger, plan *SortPlan, myKeys []Key, round int, inbox clique.Inbox, scratch *commScratch) (bool, error) {
	const context = "presorted.rank"
	n, id := ex.N(), ex.ID()
	if len(plan.StartRanks) != n+1 {
		return true, fmt.Errorf("core: presorted plan carries %d start ranks for n=%d", len(plan.StartRanks), n)
	}
	total := plan.StartRanks[n]
	perNode := ranksPerNode(total, n)

	switch round {
	case 0:
		if got, want := len(myKeys), plan.StartRanks[id+1]-plan.StartRanks[id]; got != want {
			return true, fmt.Errorf("core: presorted plan expected %d keys at node %d, got %d (plan does not match the instance)", want, id, got)
		}
		if len(myKeys) == 0 {
			return false, nil
		}
		keys := myKeys
		if !slices.IsSortedFunc(keys, compareKeys) {
			// The caller's row is borrowed, so the free local sort runs on
			// a copy.
			keys = append(scratch.keyVec(len(myKeys)), myKeys...)
			sortKeys(keys)
		}
		p.staged = rankLogs.Get().(*stager)
		stageRankedBundles(p.staged, id, n, keys, []int{len(keys)}, []int{plan.StartRanks[id]})
	case 1:
		bundles, err := scratch.rx.decodeInbox(ex.InboxSenders(), inbox)
		if err != nil {
			return true, fmt.Errorf("%s deal: %w", context, err)
		}
		if len(bundles) == 0 {
			return false, nil
		}
		if p.staged == nil {
			p.staged = rankLogs.Get().(*stager)
		}
		if err := forwardByRank(p.staged, bundles, perNode, n, context); err != nil {
			return true, err
		}
	default:
		records, err := scratch.rx.decodeInbox(ex.InboxSenders(), inbox)
		if err != nil {
			return true, fmt.Errorf("%s deliver: %w", context, err)
		}
		p.result, err = assembleBatch(records, scratch.intVec(rankMarkWords(len(records))), id, perNode, total, context)
		return true, err
	}
	scratch.dst.grow(n)
	p.staged.flush(&scratch.dst, ex, nil)
	return false, nil
}

// SparseSortRun drives one sortProgram per node as a step program
// (RunRounds): with the census armed, step rounds 0..1 carry its
// two exchanges and the strategy starts in the round that verifies it. A
// cache hit's plan runs the row check of hit.go instead; an abort ends the
// run with ErrHitAborted, as in SparseRouteRun, and the caller completes the
// operation with AutoSort on the same plan.
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
	if nd.N() == 1 {
		// Mirror AutoSort's single-node shortcut: no census, no rounds.
		run.progs[0].result = sortAlone(row)
		return true, nil
	}
	switch plan := &run.plan; {
	case plan.Census && plan.hitRows != nil:
		// Only round 0 reads the row check.
		matches := round > 0 || plan.hitRows[nd.ID()] == rowSig{len(row), sortRowHash(row)}
		var err error
		if round, err = hitRound(nd, matches, plan.Strategy == SortStrategyEmpty, round, inbox); round < 0 {
			return err != nil, err
		}
	case plan.Census:
		if round <= SortCensusRounds {
			if err := sortCensusStep(nd, &run.plan, row, round, inbox); err != nil || round < SortCensusRounds {
				return err != nil, err
			}
		}
		round -= SortCensusRounds
	}
	return run.progs[nd.ID()].step(nd, &run.plan, row, round, inbox)
}

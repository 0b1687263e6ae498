package congestedclique

import (
	"context"
	"fmt"
)

// RouteResult is the outcome of one Information Distribution Task execution.
type RouteResult struct {
	// Delivered[i] lists the messages node i received, sorted by
	// (Src, Dst, Seq).
	Delivered [][]Message
	// Strategy is the delivery strategy the demand-aware planner selected.
	// It is set only when the operation ran under AlgorithmAuto; under an
	// explicitly chosen algorithm it is the zero value ("unplanned").
	Strategy RouteStrategy
	// Stats describes the execution cost.
	Stats Stats
}

// Route solves the Information Distribution Task (Problem 3.1) on a clique
// of n nodes. It is the one-shot convenience form of Clique.Route: it builds
// a throwaway session handle, runs the single operation with a background
// context and closes the handle again; results and statistics are identical
// to the session path. Services issuing many operations should hold a
// Clique handle instead.
func Route(n int, msgs [][]Message, opts ...Option) (*RouteResult, error) {
	// Validate the instance shape before building (and immediately closing)
	// an engine for it — malformed inputs never pay construction.
	if err := validateNodeCount(n); err != nil {
		return nil, err
	}
	if err := validateRoute(n, msgs); err != nil {
		return nil, err
	}
	c, err := New(n, opts...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Route(context.Background(), msgs)
}

// NewUniformMessages is a convenience constructor: it labels payloads[i][j]
// as message j of node i destined to dsts[i][j], filling in Src and Seq.
func NewUniformMessages(dsts [][]int, payloads [][]int64) ([][]Message, error) {
	if len(dsts) != len(payloads) {
		return nil, fmt.Errorf("%w: %d destination rows but %d payload rows", ErrInvalidInstance, len(dsts), len(payloads))
	}
	msgs := make([][]Message, len(dsts))
	for i := range dsts {
		if len(dsts[i]) != len(payloads[i]) {
			return nil, fmt.Errorf("%w: node %d has %d destinations but %d payloads", ErrInvalidInstance, i, len(dsts[i]), len(payloads[i]))
		}
		row := make([]Message, len(dsts[i]))
		for j := range dsts[i] {
			row[j] = Message{Src: i, Dst: dsts[i][j], Seq: j, Payload: payloads[i][j]}
		}
		msgs[i] = row
	}
	return msgs, nil
}

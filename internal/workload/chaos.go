package workload

import (
	"fmt"
	"time"

	"congestedclique/internal/clique"
)

// ChaosOp names the session operation a chaos scenario drives. The catalog
// describes faults abstractly (engine-level clique.Fault values plus session
// retry/deadline knobs); cliquebench chaos translates each scenario into the
// public option set and executes it, so this package stays importable from
// the root package's own tests without an import cycle.
type ChaosOp string

// The operations the chaos catalog exercises.
const (
	// ChaosRoute drives Clique.Route on the uniform-full routing workload.
	ChaosRoute ChaosOp = "route"
	// ChaosSort drives Clique.Sort on the uniform sorting workload.
	ChaosSort ChaosOp = "sort"
)

// ChaosScenario is one named deterministic fault-injection run. Faults is a
// pure function of n, so every scenario replays bit-identically; the driver
// cross-checks recovered runs element by element against a fault-free golden
// on the identical instance.
type ChaosScenario struct {
	// Name is the registry key printed in the chaos table.
	Name string
	// Description is a one-line summary listed by cliquebench chaos.
	Description string
	// Op selects the session operation under test.
	Op ChaosOp
	// Sparse runs the operation on the sparse scale-out instance
	// (ScaleSparseRoute) under AlgorithmAuto instead of the uniform
	// full-load workload, so the catalog also exercises the fault paths of
	// step programs, the shape the planner's fast strategies run in.
	Sparse bool
	// Deadline, when positive, arms the round watchdog (WithRoundDeadline)
	// for every attempt of the run.
	Deadline time.Duration
	// Retries and Backoff configure WithRetry for the run. With Retries > 0
	// an injected fault is transient: the plan is consumed by the first
	// attempt and the re-run executes fault-free.
	Retries int
	Backoff time.Duration
	// Faults builds the injection schedule for a clique of n nodes.
	Faults func(n int) []clique.Fault
	// WantRecover marks scenarios whose run must ultimately succeed — either
	// because the fault is absorbed (a stall without a deadline) or because
	// WithRetry re-runs it — with output bit-identical to the golden.
	WantRecover bool
	// WantError is the sentinel the surviving error must wrap when the
	// scenario is expected to fail (ignored when WantRecover is set).
	WantError error
}

// ChaosScenarios returns the chaos catalog in its canonical order. The slice
// is freshly allocated; callers may reorder it.
func ChaosScenarios() []ChaosScenario {
	return []ChaosScenario{
		{
			Name:        "panic-at-round-k",
			Description: "node n/4 panics at round 2 of a route; one retry re-runs the op fault-free and must reproduce the golden delivery",
			Op:          ChaosRoute,
			Retries:     1,
			Faults: func(n int) []clique.Fault {
				return []clique.Fault{{Kind: clique.FaultPanic, Node: n / 4, Round: 2}}
			},
			WantRecover: true,
		},
		{
			Name:        "panic-no-retry",
			Description: "node n/4 panics at round 2 of a route with retries disabled; the error must name the node and round and wrap ErrFaultInjected",
			Op:          ChaosRoute,
			Faults: func(n int) []clique.Fault {
				return []clique.Fault{{Kind: clique.FaultPanic, Node: n / 4, Round: 2}}
			},
			WantError: clique.ErrFaultInjected,
		},
		{
			Name:        "straggler-mid-sort",
			Description: "node n/2 stalls 5ms at round 3 of a sort with no deadline armed; the barrier absorbs the stall and the batches stay bit-identical",
			Op:          ChaosSort,
			Faults: func(n int) []clique.Fault {
				return []clique.Fault{{Kind: clique.FaultStall, Node: n / 2, Round: 3, Stall: 5 * time.Millisecond}}
			},
			WantRecover: true,
		},
		{
			Name:        "cancel-during-delivery",
			Description: "the run is cancelled at round 1's barrier turn-over; one retry re-runs the route fault-free and must reproduce the golden delivery",
			Op:          ChaosRoute,
			Retries:     1,
			Faults: func(n int) []clique.Fault {
				return []clique.Fault{{Kind: clique.FaultCancel, Node: -1, Round: 1}}
			},
			WantRecover: true,
		},
		{
			Name:        "deadline-exceeded",
			Description: "node 1 stalls 30s at round 1 of a sort under a 150ms watchdog with retries disabled; the watchdog must fail the run naming the straggler instead of hanging",
			Op:          ChaosSort,
			Deadline:    150 * time.Millisecond,
			Faults: func(n int) []clique.Fault {
				return []clique.Fault{{Kind: clique.FaultStall, Node: 1, Round: 1, Stall: 30 * time.Second}}
			},
			WantError: clique.ErrRoundDeadline,
		},
		{
			Name:        "sparse-panic-retry",
			Description: "node n/4 panics at round 1 of a sparse direct route (step scheduler); one retry re-runs the op fault-free and must reproduce the golden delivery",
			Op:          ChaosRoute,
			Sparse:      true,
			Retries:     1,
			Faults: func(n int) []clique.Fault {
				return []clique.Fault{{Kind: clique.FaultPanic, Node: n / 4, Round: 1}}
			},
			WantRecover: true,
		},
		{
			Name:        "sparse-straggler-absorbed",
			Description: "node n/2 stalls 5ms at round 0 of a sparse direct route under a 5s watchdog; the step scheduler absorbs the stall and the delivery stays bit-identical",
			Op:          ChaosRoute,
			Sparse:      true,
			Deadline:    5 * time.Second,
			Faults: func(n int) []clique.Fault {
				return []clique.Fault{{Kind: clique.FaultStall, Node: n / 2, Round: 0, Stall: 5 * time.Millisecond}}
			},
			WantRecover: true,
		},
		{
			Name:        "deadline-then-retry",
			Description: "node 1 stalls past a 150ms watchdog at round 1 of a route; the deadline failure is transient, so one retry recovers the golden delivery",
			Op:          ChaosRoute,
			Deadline:    150 * time.Millisecond,
			Retries:     1,
			Faults: func(n int) []clique.Fault {
				return []clique.Fault{{Kind: clique.FaultStall, Node: 1, Round: 1, Stall: 30 * time.Second}}
			},
			WantRecover: true,
		},
	}
}

// ChaosScenarioNames lists the chaos catalog's names in canonical order.
func ChaosScenarioNames() []string {
	scenarios := ChaosScenarios()
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	return names
}

// ChaosScenarioByName looks a chaos scenario up in the catalog.
func ChaosScenarioByName(name string) (ChaosScenario, bool) {
	for _, s := range ChaosScenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return ChaosScenario{}, false
}

// ValidateChaosScenario checks a scenario's schedule against a clique of n
// nodes using the engine's own plan validation, so a catalog entry that
// drifts out of range fails fast in the driver instead of erroring mid-run.
func ValidateChaosScenario(sc ChaosScenario, n int) error {
	if sc.Op != ChaosRoute && sc.Op != ChaosSort {
		return fmt.Errorf("workload: chaos scenario %q has unknown op %q", sc.Name, sc.Op)
	}
	if sc.Faults == nil {
		return fmt.Errorf("workload: chaos scenario %q has no fault schedule", sc.Name)
	}
	plan := clique.FaultPlan{Faults: sc.Faults(n)}
	if err := plan.Validate(n); err != nil {
		return fmt.Errorf("workload: chaos scenario %q: %w", sc.Name, err)
	}
	if !sc.WantRecover && sc.WantError == nil {
		return fmt.Errorf("workload: chaos scenario %q expects neither recovery nor a sentinel error", sc.Name)
	}
	return nil
}

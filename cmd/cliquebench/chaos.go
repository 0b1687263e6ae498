package main

// The chaos subcommand: every scenario of the chaos catalog injects a
// deterministic fault plan (node panic, straggler stall, cancellation at a
// barrier turn-over) through the public option set, runs twice to confirm
// the replay is deterministic, and cross-checks every surviving run bit for
// bit against a fault-free golden on the identical instance.

import (
	"context"
	"errors"
	"flag"
	"fmt"

	cc "congestedclique"

	"congestedclique/internal/clique"
	"congestedclique/internal/tables"
	"congestedclique/internal/workload"
)

// chaosRow is one rendered result of the chaos catalog: what was injected,
// how the run ended, how many retries the recovery took, and whether the
// surviving output matched the fault-free golden bit for bit.
type chaosRow struct {
	Scenario     string
	Op           string
	Faults       string
	Outcome      string
	Retries      int64
	BitIdentical string
	Detail       string
}

func chaosCmd(fs *flag.FlagSet) func([]string) error {
	n := fs.Int("n", 256, "number of clique nodes")
	names := scenarioFlag(fs)
	return func([]string) error {
		t, err := runChaos(*n, *names)
		if err != nil {
			return err
		}
		emit(t)
		return nil
	}
}

// runChaos executes the chaos catalog against a fresh session handle and
// tabulates it. Every scenario runs twice: once to classify the outcome and
// once to confirm the replay is deterministic (recovered runs must match the
// fault-free golden bit for bit; failed runs must reproduce the identical
// error string).
func runChaos(n int, names string) (*tables.Table, error) {
	scenarios, err := selectNamed(names, workload.ChaosScenarios(),
		func(s workload.ChaosScenario) (string, string) { return s.Name, s.Description })
	if err != nil {
		return nil, err
	}
	cl, err := cc.New(n)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	ctx := context.Background()
	msgs, err := protocolRoute(n)
	if err != nil {
		return nil, err
	}
	values := workload.ProtocolBenchSortValues(n)

	goldenRoute, err := cl.Route(ctx, msgs)
	if err != nil {
		return nil, fmt.Errorf("fault-free route golden: %w", err)
	}
	goldenSort, err := cl.Sort(ctx, values)
	if err != nil {
		return nil, fmt.Errorf("fault-free sort golden: %w", err)
	}

	// Sparse scenarios run on the O(n) scale-out instance, which AlgorithmAuto
	// serves with a step program (RunRounds); their golden
	// is the same run fault-free.
	sparse, err := workload.ScaleSparseRoute(n, 1)
	if err != nil {
		return nil, err
	}
	goldenSparse, err := cl.Route(ctx, sparse.Msgs, cc.WithAlgorithm(cc.AlgorithmAuto))
	if err != nil {
		return nil, fmt.Errorf("fault-free sparse route golden: %w", err)
	}

	var rows []chaosRow
	for _, sc := range scenarios {
		if err := workload.ValidateChaosScenario(sc, n); err != nil {
			return nil, err
		}
		scMsgs, scGoldenRoute := msgs, goldenRoute
		if sc.Sparse {
			scMsgs, scGoldenRoute = sparse.Msgs, goldenSparse
		}
		row, err := runChaosScenario(ctx, cl, sc, n, scMsgs, values, scGoldenRoute, goldenSort)
		if err != nil {
			return nil, fmt.Errorf("chaos scenario %s: %w", sc.Name, err)
		}
		rows = append(rows, row)
	}

	t := tables.New(
		fmt.Sprintf("Chaos catalog, n=%d (deterministic fault injection, watchdog, session retry)", n),
		"scenario", "op", "faults", "outcome", "retries", "bit-identical", "detail",
	)
	for _, r := range rows {
		t.AddRow(r.Scenario, r.Op, r.Faults, r.Outcome, r.Retries, r.BitIdentical, r.Detail)
	}
	return t, nil
}

// chaosOptions translates a scenario's abstract schedule into the public
// option set of one call.
func chaosOptions(sc workload.ChaosScenario, n int) ([]cc.Option, error) {
	var opts []cc.Option
	if sc.Retries > 0 {
		opts = append(opts, cc.WithRetry(sc.Retries, sc.Backoff))
	}
	for _, f := range sc.Faults(n) {
		switch f.Kind {
		case clique.FaultPanic:
			opts = append(opts, cc.WithInjectedPanic(f.Node, f.Round))
		case clique.FaultStall:
			opts = append(opts, cc.WithInjectedStall(f.Node, f.Round, f.Stall))
		case clique.FaultCancel:
			opts = append(opts, cc.WithInjectedCancel(f.Round))
		default:
			return nil, fmt.Errorf("unknown fault kind %v", f.Kind)
		}
	}
	return opts, nil
}

// runChaosScenario drives one scenario twice and classifies the outcome
// against its expectation.
func runChaosScenario(ctx context.Context, cl *cc.Clique, sc workload.ChaosScenario, n int, msgs [][]cc.Message, values [][]int64, goldenRoute *cc.RouteResult, goldenSort *cc.SortResult) (chaosRow, error) {
	opts, err := chaosOptions(sc, n)
	if err != nil {
		return chaosRow{}, err
	}
	// The watchdog deadline is handle-scoped, so scenarios using it run on
	// their own short-lived handle instead of re-arming the shared one.
	runCl := cl
	if sc.Deadline > 0 {
		runCl, err = cc.New(n, cc.WithRoundDeadline(sc.Deadline))
		if err != nil {
			return chaosRow{}, err
		}
		defer runCl.Close()
	}
	if sc.Sparse {
		opts = append(opts, cc.WithAlgorithm(cc.AlgorithmAuto))
	}

	var routeRes *cc.RouteResult
	var sortRes *cc.SortResult
	var runErr error
	runOnce := func() error {
		switch sc.Op {
		case workload.ChaosRoute:
			routeRes, runErr = runCl.Route(ctx, msgs, opts...)
		case workload.ChaosSort:
			sortRes, runErr = runCl.Sort(ctx, values, opts...)
		default:
			return fmt.Errorf("unknown chaos op %q", sc.Op)
		}
		return nil
	}
	if err := runOnce(); err != nil {
		return chaosRow{}, err
	}
	firstErr := runErr
	// Retries of the second (replay) run only, so the cell reads as
	// retries-per-run rather than a total across the determinism check.
	before := runCl.CumulativeStats()
	if err := runOnce(); err != nil {
		return chaosRow{}, err
	}
	after := runCl.CumulativeStats()

	row := chaosRow{
		Scenario:     sc.Name,
		Op:           string(sc.Op),
		Faults:       describeFaults(sc.Faults(n)),
		Retries:      after.Retries - before.Retries,
		BitIdentical: "-",
	}
	if sc.WantRecover {
		if runErr != nil {
			return chaosRow{}, fmt.Errorf("expected recovery, got error: %w", runErr)
		}
		switch sc.Op {
		case workload.ChaosRoute:
			if err := sameDelivery(routeRes, goldenRoute); err != nil {
				return chaosRow{}, fmt.Errorf("recovered delivery diverges from golden: %w", err)
			}
		case workload.ChaosSort:
			if err := sameBatches(sortRes, goldenSort); err != nil {
				return chaosRow{}, fmt.Errorf("recovered batches diverge from golden: %w", err)
			}
		}
		row.Outcome = "recovered"
		row.BitIdentical = "yes"
		row.Detail = "matches fault-free golden"
		return row, nil
	}
	if runErr == nil {
		return chaosRow{}, fmt.Errorf("expected an error wrapping %v, run succeeded", sc.WantError)
	}
	if !errors.Is(runErr, sc.WantError) {
		return chaosRow{}, fmt.Errorf("error %v does not wrap expected sentinel %v", runErr, sc.WantError)
	}
	if firstErr == nil || firstErr.Error() != runErr.Error() {
		return chaosRow{}, fmt.Errorf("error is not deterministic across replays: %q vs %q", firstErr, runErr)
	}
	row.Outcome = "failed (deterministic)"
	row.Detail = runErr.Error()
	return row, nil
}

// describeFaults renders a schedule as a compact cell, e.g.
// "panic@(n3,r2)" or "stall@(n1,r1,30s)".
func describeFaults(faults []clique.Fault) string {
	out := ""
	for i, f := range faults {
		if i > 0 {
			out += " "
		}
		switch f.Kind {
		case clique.FaultStall:
			out += fmt.Sprintf("stall@(n%d,r%d,%v)", f.Node, f.Round, f.Stall)
		case clique.FaultCancel:
			out += fmt.Sprintf("cancel@(r%d)", f.Round)
		default:
			out += fmt.Sprintf("%v@(n%d,r%d)", f.Kind, f.Node, f.Round)
		}
	}
	if out == "" {
		return "-"
	}
	return out
}

// Command cliquebench measures the protocols on the simulated congested
// clique. Every subcommand verifies what it measures before it reports, and
// prints its results as tables:
//
//	cliquebench [tables] [-max-n N]   E1-E8: each claim of the paper next to the measured rounds and per-edge bandwidth
//	cliquebench scen [-n N]           the scenario catalog through AlgorithmAuto vs the deterministic pipeline and the randomized baseline
//	cliquebench temporal [-n N]       bursty instance sequences through WithPlanCache vs a cache-off handle
//	cliquebench chaos [-n N]          deterministic fault injection, each scenario replayed twice
//	cliquebench scaling [-max-n N]    the sparse scale-out frontier up to n=16384, every point checked by internal/verify
//	cliquebench load -addr HOST:PORT  closed- or open-loop load against a running cliqued
//	cliquebench record [-max-n N] FILE
//	                                  regenerate the whole of BENCH_protocol.json
//
// Every subcommand takes -markdown (render markdown tables) and -out FILE
// (also write the tables to FILE; a JSON document when FILE ends in .json,
// the format of CI's BENCH_ci.json artifact). -h after a subcommand lists
// its flags.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	cc "congestedclique"

	"congestedclique/internal/tables"
	"congestedclique/internal/workload"
)

// subcommands maps each subcommand to its setup: setup registers the
// subcommand's flags and returns the body, which runs on the positional
// arguments once the flags are parsed.
var subcommands = map[string]func(fs *flag.FlagSet) func(args []string) error{
	"tables":   tablesCmd,
	"scen":     scenCmd,
	"temporal": temporalCmd,
	"chaos":    chaosCmd,
	"scaling":  scalingCmd,
	"load":     loadCmd,
	"record":   recordCmd,
}

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:]); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run(args []string) error {
	name := "tables"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	setup, ok := subcommands[name]
	if !ok {
		return fmt.Errorf("unknown subcommand %q (tables, scen, temporal, chaos, scaling, load, record)", name)
	}
	fs := flag.NewFlagSet("cliquebench "+name, flag.ExitOnError)
	fs.BoolVar(&markdown, "markdown", false, "render tables as markdown")
	fs.StringVar(&outPath, "out", "", "also write the tables to this file (a JSON document when it ends in .json)")
	body := setup(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := body(fs.Args()); err != nil {
		return err
	}
	return writeOut(fs)
}

// The emitter every subcommand reports through: emit prints a table to
// stdout and keeps it for -out.
var (
	markdown  bool
	outPath   string
	collected []*tables.Table
)

func render(t *tables.Table) string {
	if markdown {
		return t.Markdown()
	}
	return t.String()
}

func emit(t *tables.Table) {
	collected = append(collected, t)
	fmt.Println(render(t))
}

// writeOut writes the emitted tables to -out: as a tables.Document carrying
// the subcommand's flag values when the file ends in .json, else as
// rendered.
func writeOut(fs *flag.FlagSet) error {
	if outPath == "" {
		return nil
	}
	var data []byte
	if strings.HasSuffix(outPath, ".json") {
		doc := &tables.Document{Tool: fs.Name(), Args: map[string]string{}, Tables: collected}
		fs.VisitAll(func(f *flag.Flag) { doc.Args[f.Name] = f.Value.String() })
		var err error
		if data, err = doc.JSON(); err != nil {
			return fmt.Errorf("render json: %w", err)
		}
	} else {
		for _, t := range collected {
			data = append(data, render(t)+"\n"...)
		}
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", outPath, err)
	}
	return nil
}

// scenarioFlag registers the -scenarios selector of a catalog subcommand.
func scenarioFlag(fs *flag.FlagSet) *string {
	return fs.String("scenarios", "all", "comma-separated scenario names, or all; an unknown name (say, help) lists the catalog")
}

// selectNamed resolves a -scenarios list against a catalog whose entries
// describe returns as (name, one-line description): "all" keeps every
// entry, otherwise the named entries are kept in catalog order, and an
// unknown name is an error that lists the catalog.
func selectNamed[S any](list string, catalog []S, describe func(S) (string, string)) ([]S, error) {
	if list == "all" || list == "" {
		return catalog, nil
	}
	want := make(map[string]bool)
	for _, s := range strings.Split(list, ",") {
		want[strings.TrimSpace(s)] = true
	}
	var out []S
	var known strings.Builder
	for _, s := range catalog {
		name, desc := describe(s)
		fmt.Fprintf(&known, "\n  %-26s %s", name, desc)
		if want[name] {
			out = append(out, s)
			delete(want, name)
		}
	}
	for s := range want {
		return nil, fmt.Errorf("unknown scenario %q; the catalog:%s", s, known.String())
	}
	return out, nil
}

// protocolRoute is the deterministic full-load routing instance of the
// protocol benchmarks and the stats-invariant goldens
// (workload.ProtocolBenchRoute).
func protocolRoute(n int) ([][]cc.Message, error) {
	return cc.NewUniformMessages(workload.ProtocolBenchRoute(n))
}

// sameDelivery compares two route results message by message (both are
// sorted by (Src, Dst, Seq), so equality is positional).
func sameDelivery(a, b *cc.RouteResult) error {
	if len(a.Delivered) != len(b.Delivered) {
		return fmt.Errorf("delivered to %d vs %d nodes", len(a.Delivered), len(b.Delivered))
	}
	for i := range a.Delivered {
		if len(a.Delivered[i]) != len(b.Delivered[i]) {
			return fmt.Errorf("node %d received %d vs %d messages", i, len(a.Delivered[i]), len(b.Delivered[i]))
		}
		for j := range a.Delivered[i] {
			if a.Delivered[i][j] != b.Delivered[i][j] {
				return fmt.Errorf("node %d message %d: %+v vs %+v", i, j, a.Delivered[i][j], b.Delivered[i][j])
			}
		}
	}
	return nil
}

// sameBatches compares two sort results batch by batch.
func sameBatches(a, b *cc.SortResult) error {
	if a.Total != b.Total || len(a.Batches) != len(b.Batches) {
		return fmt.Errorf("total %d over %d batches vs total %d over %d batches",
			a.Total, len(a.Batches), b.Total, len(b.Batches))
	}
	for i := range a.Batches {
		if a.Starts[i] != b.Starts[i] || len(a.Batches[i]) != len(b.Batches[i]) {
			return fmt.Errorf("node %d batch start %d len %d vs start %d len %d",
				i, a.Starts[i], len(a.Batches[i]), b.Starts[i], len(b.Batches[i]))
		}
		for j := range a.Batches[i] {
			if a.Batches[i][j] != b.Batches[i][j] {
				return fmt.Errorf("node %d key %d: %+v vs %+v", i, j, a.Batches[i][j], b.Batches[i][j])
			}
		}
	}
	return nil
}

// Command bench is the repository's benchmark: six calibrated workloads, one
// timed pass for the end-to-end metrics and one traced pass for the per-layer
// ladder. See README.md in this directory.
//
// The driver form runs one workload and prints one JSON object last:
//
//	bash bench/run.sh --workload route_full --seed 1 --seconds 15 --trace 0
//
// Without --workload it runs the whole suite, each workload in a child
// process of its own, timed then traced, and prints every metric as
// "workload metric value unit"; -aa runs the timed suite twice and compares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the driver's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	short    bool
	aa       bool
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's JSON line; empty runs the suite")
	flag.Int64Var(&o.seed, "seed", 1, "the only source of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured pass")
	flag.IntVar(&o.trace, "trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.BoolVar(&o.short, "short", false, "smoke sizes (n=16/64, two ops per pass)")
	flag.BoolVar(&o.aa, "aa", false, "run the timed suite twice (second time in reverse order) and fail if a metric moved by more than its bound")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace-<workload>.json and latest.json")
	flag.Parse()

	var err error
	switch {
	case o.workload != "":
		err = runOne(o)
	case o.aa:
		err = runAA(o)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure sets the workload up and runs the pass o selects.
func measure(o options) (*report, error) {
	s := specByName(o.workload)
	if s == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	n, minOps := s.n, 3
	if o.short {
		n, minOps = s.shortN, 2
	}
	cal := newCalibrator()
	cal.run() // first touch of the arrays is not a sample
	e, setupS, err := timedSetUp(s, n, o.seed, o.short, cal)
	if err != nil {
		return nil, err
	}
	defer e.close()

	var metrics map[string]metric
	if o.trace == 0 {
		smp, c, err := timedPass(e, cal, o.seconds, minOps)
		if err != nil {
			return nil, err
		}
		metrics = endToEnd(e, smp, c, setupS)
	} else if metrics, err = tracedPass(e, cal, o.seconds, o.short, o.outDir); err != nil {
		return nil, err
	}
	if e.failed > 0 {
		fmt.Fprintln(os.Stderr, "bench: first failure:", e.firstFailure)
	}
	return &report{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: metrics}, nil
}

func runOne(o options) error {
	r, err := measure(o)
	if err != nil {
		return err
	}
	printMetrics(o.workload, r.Metrics)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or returned a wrong result", o.workload, r.Failed, r.Attempted)
	}
	return nil
}

func printMetrics(workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s %s %.6g %s\n", workload, name, m[name].Value, m[name].Unit)
	}
}

// child runs one workload in a process of its own (one load-generating
// process at a time) and parses its result line.
func child(o options, workload string, trace int) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", workload, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
		"--trace", fmt.Sprint(trace), "--out", o.outDir}
	if o.short {
		args = append(args, "--short")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s (trace %d): result line: %w", workload, trace, err)
	}
	return &r, nil
}

// runSuite runs every workload timed, then every workload traced, and writes
// the numbers to <out>/latest.json.
func runSuite(o options) error {
	latest := map[string]map[string]metric{}
	for trace := 0; trace <= 1; trace++ {
		for _, s := range specs {
			r, err := child(o, s.name, trace)
			if err != nil {
				return err
			}
			printMetrics(s.name, r.Metrics)
			fmt.Printf("%s verified %d of %d (trace %d)\n", s.name, r.Attempted-r.Failed, r.Attempted, trace)
			if latest[s.name] == nil {
				latest[s.name] = map[string]metric{}
			}
			for name, v := range r.Metrics {
				latest[s.name][name] = v
			}
		}
	}
	data, err := json.MarshalIndent(latest, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, "latest.json"), append(data, '\n'), 0o644)
}

// declared is the part of BENCHMARK.json the benchmark itself reads.
type declared struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []declaredMetric             `json:"end_to_end"`
	PerLayer  []declaredMetric             `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readDeclared loads BENCHMARK.json from the working directory (the checkout
// root) or its parent (when run from this directory).
func readDeclared() (*declared, error) {
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var d declared
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &d, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

// runAA runs the timed suite twice, the second time in reverse order, and
// reports for every metric how far the second run is on the worse side of the
// first, against the metric's bound.
func runAA(o options) error {
	d, err := readDeclared()
	if err != nil {
		return err
	}
	first := map[string]*report{}
	for _, s := range specs {
		if first[s.name], err = child(o, s.name, 0); err != nil {
			return err
		}
	}
	outside := 0
	for i := len(specs) - 1; i >= 0; i-- {
		name := specs[i].name
		second, err := child(o, name, 0)
		if err != nil {
			return err
		}
		for _, dm := range d.EndToEnd {
			a, b := first[name].Metrics[dm.Name].Value, second.Metrics[dm.Name].Value
			worse := (b - a) / a
			if dm.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > dm.Bound {
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Printf("%s %s first %.6g second %.6g worse-by %+.4f bound %.4f %s\n", name, dm.Name, a, b, worse, dm.Bound, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d metric(s) moved by more than their bound between two runs of the same code", outside)
	}
	return nil
}

package main

import (
	"regexp"
	"sort"
	"testing"
)

// exact lists the metrics that are counts of model work: identical on every
// run of the same seed. svc_mixed's rounds and words are left out because
// they depend on which requests the server happened to batch together.
var exact = map[int][]string{
	0: {"rounds_per_op", "words_per_op", "max_edge_words", "ok_share"},
	1: {"engine.rounds", "engine.messages", "engine.words", "planner.hit_share", "planner.census_rounds_per_op"},
}

// TestSmoke runs every workload at smoke size, timed and traced, twice, and
// checks the output against the declaration in BENCHMARK.json.
func TestSmoke(t *testing.T) {
	d, err := readDeclared()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	want := map[int]map[string]declaredMetric{0: {}, 1: {}}
	for trace, list := range [][]declaredMetric{d.EndToEnd, d.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("declared metric name %q does not match %v", m.Name, nameRE)
			}
			if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("declared metric %q needs a unit and a direction, has %q and %q", m.Name, m.Unit, m.Better)
			}
			if _, dup := want[trace][m.Name]; dup {
				t.Errorf("metric %q declared twice", m.Name)
			}
			want[trace][m.Name] = m
		}
	}
	if len(d.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(specs))
	}
	for i, w := range d.Workloads {
		if i < len(specs) && w.Name != specs[i].name {
			t.Errorf("workload %d is declared as %q, the benchmark calls it %q", i, w.Name, specs[i].name)
		}
		if w.Why == "" {
			t.Errorf("workload %q has no reason recorded", w.Name)
		}
	}

	out := t.TempDir()
	for _, s := range specs {
		for trace := 0; trace <= 1; trace++ {
			o := options{workload: s.name, seed: 1, seconds: 0.2, trace: trace, short: true, outDir: out}
			var runs [2]*report
			for i := range runs {
				r, err := measure(o)
				if err != nil {
					t.Fatalf("%s trace %d: %v", s.name, trace, err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", s.name, trace, r.Correct, r.Attempted, r.Failed)
				}
				runs[i] = r
			}
			var got, declared []string
			for name, m := range runs[0].Metrics {
				got = append(got, name)
				if dm, ok := want[trace][name]; ok && dm.Unit != m.Unit {
					t.Errorf("%s %s: emitted in %q, declared in %q", s.name, name, m.Unit, dm.Unit)
				}
			}
			for name := range want[trace] {
				declared = append(declared, name)
			}
			sort.Strings(got)
			sort.Strings(declared)
			if len(got) != len(declared) {
				t.Errorf("%s trace %d: emitted %d metrics %v, declared %d %v", s.name, trace, len(got), got, len(declared), declared)
			} else {
				for i := range got {
					if got[i] != declared[i] {
						t.Errorf("%s trace %d: emitted %q where %q is declared", s.name, trace, got[i], declared[i])
					}
				}
			}
			for _, name := range exact[trace] {
				if s.service && (name == "rounds_per_op" || name == "words_per_op") {
					continue
				}
				if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
					t.Errorf("%s %s: %v then %v on the same seed, want identical", s.name, name, a, b)
				}
			}
		}
	}
}

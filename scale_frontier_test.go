//go:build !race

// The scale-out frontier guard runs at n=16384 and pins the step programs'
// memory discipline with a hard allocation budget, so it is excluded from
// race builds (the race runtime's shadow memory would dominate the budget);
// the non-race tier-1 run and the CI large-n smoke job execute it.

package congestedclique

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"congestedclique/internal/verify"
	"congestedclique/internal/workload"
)

// readVmHWM returns the process's peak resident set size in bytes from
// /proc/self/status, or 0 when unavailable (non-Linux).
func readVmHWM() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// TestScaleFrontier16k is the tentpole acceptance pin: full Route and Sort
// protocol runs complete at n=16384 as step programs, outputs verify
// against the paper's correctness conditions, and the whole exercise stays
// within a 256 MiB allocation budget — a dense O(n²) representation would
// need gigabytes (16384² words is 2 GiB for a single n×n matrix), so the
// budget fails loudly if a quadratic structure sneaks back in.
func TestScaleFrontier16k(t *testing.T) {
	const n = 16384
	ri, err := workload.ScaleSparseRoute(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	msgs := ri.Msgs
	values := workload.ScalePresortedValues(n)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	routeRes, err := Route(n, msgs, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatalf("route at n=%d: %v", n, err)
	}
	sortRes, err := Sort(n, values, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatalf("sort at n=%d: %v", n, err)
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	const budget = 256 << 20
	if allocated > budget {
		t.Errorf("route+sort at n=%d allocated %d MiB, budget %d MiB — a quadratic structure is back in the step programs",
			n, allocated>>20, int64(budget)>>20)
	}
	t.Logf("n=%d: route %v (%d rounds), sort %v (%d rounds), allocated %d MiB, peak RSS %d MiB",
		n, routeRes.Strategy, routeRes.Stats.Rounds, sortRes.Strategy, sortRes.Stats.Rounds,
		allocated>>20, readVmHWM()>>20)

	if routeRes.Strategy != StrategyDirect {
		t.Errorf("route strategy %v, want direct", routeRes.Strategy)
	}
	if sortRes.Strategy != SortStrategyPresorted {
		t.Errorf("sort strategy %v, want presorted", sortRes.Strategy)
	}

	// Full paper-invariant verification of both outputs.
	if err := verify.Routing(msgs, routeRes.Delivered); err != nil {
		t.Errorf("route output: %v", err)
	}
	if err := verifySortOutput(n, values, sortRes); err != nil {
		t.Errorf("sort output: %v", err)
	}
}

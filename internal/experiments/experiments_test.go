package experiments

import (
	"testing"

	"congestedclique/internal/workload"
)

func TestMeasureRoutingAllAlgorithms(t *testing.T) {
	t.Parallel()
	for _, alg := range RoutingAlgorithms() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			m, err := MeasureRouting(16, 16, workload.RoutingUniform, alg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if m.Rounds == 0 || m.MaxEdgeWords == 0 {
				t.Fatalf("degenerate measurement: %+v", m)
			}
			if m.N != 16 || m.Algorithm != alg {
				t.Fatalf("measurement metadata wrong: %+v", m)
			}
		})
	}
	if _, err := MeasureRouting(16, 16, workload.RoutingUniform, "bogus", 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestMeasureSortingAndCorollaries(t *testing.T) {
	t.Parallel()
	m, err := MeasureSorting(16, 16, workload.KeysDuplicateHeavy, "deterministic", 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds > 37 {
		t.Fatalf("sorting took %d rounds", m.Rounds)
	}
	if m, err := MeasureSorting(16, 16, workload.KeysUniform, "randomized", 2); err != nil || m.Rounds == 0 {
		t.Fatalf("randomized sample sort: %+v, %v", m, err)
	}
	if _, err := MeasureSorting(16, 16, workload.KeysUniform, "bogus", 1); err == nil {
		t.Fatal("unknown sorting algorithm accepted")
	}
	if _, err := MeasureRank(16, 16, workload.KeysDuplicateHeavy, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureSelect(16, 16, workload.KeysUniform, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureMode(16, 16, workload.KeysDuplicateHeavy, 5); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureSmallKeys(t *testing.T) {
	t.Parallel()
	m, err := MeasureSmallKeys(128, 128, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 2 {
		t.Fatalf("small keys used %d rounds", m.Rounds)
	}
}

func TestMeasureColoring(t *testing.T) {
	t.Parallel()
	for _, method := range []string{"exact", "greedy", "exact-expanded"} {
		m, err := MeasureColoring(8, 32, method, 1)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if m.Colors < 32 {
			t.Fatalf("%s: %d colors for degree 32", method, m.Colors)
		}
		if method != "greedy" && m.Colors != 32 {
			t.Fatalf("%s: exact methods must use exactly 32 colors, got %d", method, m.Colors)
		}
	}
	if _, err := MeasureColoring(8, 8, "bogus", 1); err == nil {
		t.Fatal("unknown coloring method accepted")
	}
}

func TestWorkloadDemandIsRegular(t *testing.T) {
	t.Parallel()
	d := workloadDemand(8, 5, 3)
	for i := 0; i < 8; i++ {
		rowSum, colSum := 0, 0
		for j := 0; j < 8; j++ {
			rowSum += d[i][j]
			colSum += d[j][i]
		}
		if rowSum != 5 || colSum != 5 {
			t.Fatalf("row/col %d sums %d/%d, want 5/5", i, rowSum, colSum)
		}
	}
}

package bipartite

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomBalancedDemand builds a square demand matrix whose row and column
// sums all equal exactly d, by overlaying d random permutation matrices.
func randomBalancedDemand(s, d int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	m := make([][]int, s)
	for i := range m {
		m[i] = make([]int, s)
	}
	for k := 0; k < d; k++ {
		perm := rng.Perm(s)
		for i, j := range perm {
			m[i][j]++
		}
	}
	return m
}

// randomBoundedDemand builds a square demand matrix whose row and column sums
// are all at most d.
func randomBoundedDemand(s, d int, seed int64) [][]int {
	m := randomBalancedDemand(s, d, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range m {
		for j := range m[i] {
			if m[i][j] > 0 && rng.Intn(3) == 0 {
				m[i][j] -= rng.Intn(m[i][j] + 1)
			}
		}
	}
	return m
}

func TestRowColSums(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		demand [][]int
		want   int
	}{
		{[][]int{{1, 2}, {3, 4}}, 7}, // rows 3, 7; columns 4, 6
		{[][]int{{4, 0}, {0, 1}}, 4}, // a row and a column tie
		{[][]int{{3, 0}, {3, 0}}, 6}, // the column maximum wins
		{nil, 0},
	} {
		if got := MaxRowColSum(tc.demand); got != tc.want {
			t.Fatalf("MaxRowColSum(%v) = %d, want %d", tc.demand, got, tc.want)
		}
	}
}

func TestColorDemandMatrixExactBalanced(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ s, d int }{{1, 1}, {2, 3}, {4, 4}, {8, 20}, {16, 16}, {32, 33}} {
		demand := randomBalancedDemand(tc.s, tc.d, int64(tc.s*1000+tc.d))
		dc, err := ColorDemandMatrix(demand, tc.d)
		if err != nil {
			t.Fatalf("s=%d d=%d: %v", tc.s, tc.d, err)
		}
		if dc.NumColors != tc.d {
			t.Fatalf("s=%d d=%d: %d colors", tc.s, tc.d, dc.NumColors)
		}
		if err := dc.Validate(demand); err != nil {
			t.Fatalf("s=%d d=%d: %v", tc.s, tc.d, err)
		}
	}
}

func TestColorDemandMatrixBounded(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ s, d int }{{3, 4}, {5, 7}, {8, 12}, {16, 40}} {
		demand := randomBoundedDemand(tc.s, tc.d, int64(tc.s*31+tc.d))
		dc, err := ColorDemandMatrix(demand, tc.d)
		if err != nil {
			t.Fatalf("s=%d d=%d: %v", tc.s, tc.d, err)
		}
		if err := dc.Validate(demand); err != nil {
			t.Fatalf("s=%d d=%d: %v", tc.s, tc.d, err)
		}
	}
}

func TestColorDemandMatrixErrors(t *testing.T) {
	t.Parallel()
	if _, err := ColorDemandMatrix(nil, 2); err == nil {
		t.Fatal("empty demand accepted")
	}
	if _, err := ColorDemandMatrix([][]int{{1, 0}}, 2); err == nil {
		t.Fatal("non-square demand accepted")
	}
	if _, err := ColorDemandMatrix([][]int{{3}}, 2); err == nil {
		t.Fatal("demand exceeding color budget accepted")
	}
}

func TestColorOfUnit(t *testing.T) {
	t.Parallel()
	demand := [][]int{
		{2, 1},
		{1, 2},
	}
	dc, err := ColorDemandMatrix(demand, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every unit maps to a distinct color within its row and column.
	type rc struct{ row, col, color int }
	seen := map[rc]bool{}
	for i := range demand {
		for j := range demand[i] {
			for k := 0; k < demand[i][j]; k++ {
				c, err := dc.ColorOfUnit(i, j, k)
				if err != nil {
					t.Fatal(err)
				}
				if seen[rc{i, -1, c}] || seen[rc{-1, j, c}] {
					t.Fatalf("color %d repeated in row %d or column %d", c, i, j)
				}
				seen[rc{i, -1, c}] = true
				seen[rc{-1, j, c}] = true
			}
		}
	}
	if _, err := dc.ColorOfUnit(0, 0, 5); err == nil {
		t.Fatal("out-of-range unit accepted")
	}
}

func TestExpandDemandMatchesColoring(t *testing.T) {
	t.Parallel()
	demand := randomBalancedDemand(6, 9, 42)
	g, err := ExpandDemand(demand)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 6*9 {
		t.Fatalf("expanded edges = %d, want %d", len(g.Edges), 6*9)
	}
	checkRegular(t, g, 9)
	// Cross-check: the expanded graph colored by ColorExact and the demand
	// matrix colored by ColorDemandMatrix both use exactly 9 colors.
	ce, err := ColorExact(g)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := ColorDemandMatrix(demand, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ce.NumColors != cd.NumColors {
		t.Fatalf("exact coloring %d colors, demand coloring %d colors", ce.NumColors, cd.NumColors)
	}
	if _, err := ExpandDemand(nil); err == nil {
		t.Fatal("empty demand accepted")
	}
}

// TestColorDemandMatrixProperty is the property-based analogue of König's
// theorem on the demand-matrix representation: any doubly-bounded matrix can
// be properly colored with max(row,col) colors.
func TestColorDemandMatrixProperty(t *testing.T) {
	t.Parallel()
	f := func(sRaw, dRaw uint8, seed int64) bool {
		s := int(sRaw)%10 + 1
		d := int(dRaw)%15 + 1
		demand := randomBoundedDemand(s, d, seed)
		need := MaxRowColSum(demand)
		if need == 0 {
			need = 1
		}
		dc, err := ColorDemandMatrix(demand, need)
		if err != nil {
			return false
		}
		return dc.Validate(demand) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestReleasedColoringsRecolorIdentically checks that colorings carved from
// the storage of released ones equal colorings computed from scratch, for
// both constructors and for matrices of different sizes in turn.
func TestReleasedColoringsRecolorIdentically(t *testing.T) {
	colorers := map[string]func([][]int) (*DemandColoring, error){
		"exact":  func(d [][]int) (*DemandColoring, error) { return ColorDemandMatrix(d, MaxRowColSum(d)) },
		"greedy": ColorDemandGreedy,
	}
	for name, color := range colorers {
		for i, s := range []int{12, 5, 16, 3, 12} {
			demand := randomBoundedDemand(s, 9, int64(i))
			want, err := color(demand)
			if err != nil {
				t.Fatal(err)
			}
			wantRuns, wantColors := cloneRuns(want.Runs), want.NumColors
			want.Release()
			got, err := color(demand)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Runs, wantRuns) || got.NumColors != wantColors {
				t.Fatalf("%s, s=%d: a coloring on released storage differs from a fresh one", name, s)
			}
			if err := got.Validate(demand); err != nil {
				t.Fatalf("%s, s=%d: %v", name, s, err)
			}
			got.Release()
		}
	}
}

func cloneRuns(runs [][][]ColorRun) [][][]ColorRun {
	out := make([][][]ColorRun, len(runs))
	for i, row := range runs {
		out[i] = make([][]ColorRun, len(row))
		for j, cell := range row {
			out[i][j] = append([]ColorRun(nil), cell...)
		}
	}
	return out
}

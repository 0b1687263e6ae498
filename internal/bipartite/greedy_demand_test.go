package bipartite

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestColorDemandGreedyBalanced(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ s, d int }{{1, 1}, {2, 3}, {4, 4}, {8, 20}, {16, 16}, {32, 40}} {
		demand := randomBalancedDemand(tc.s, tc.d, int64(tc.s*997+tc.d))
		dc, err := ColorDemandGreedy(demand)
		if err != nil {
			t.Fatalf("s=%d d=%d: %v", tc.s, tc.d, err)
		}
		if dc.NumColors > 2*tc.d-1 {
			t.Fatalf("s=%d d=%d: %d colors exceeds greedy bound %d", tc.s, tc.d, dc.NumColors, 2*tc.d-1)
		}
		if err := dc.Validate(demand); err != nil {
			t.Fatalf("s=%d d=%d: %v", tc.s, tc.d, err)
		}
	}
}

func TestColorDemandGreedyBounded(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ s, d int }{{3, 4}, {5, 7}, {8, 12}, {16, 40}} {
		demand := randomBoundedDemand(tc.s, tc.d, int64(tc.s*13+tc.d))
		dc, err := ColorDemandGreedy(demand)
		if err != nil {
			t.Fatalf("s=%d d=%d: %v", tc.s, tc.d, err)
		}
		if err := dc.Validate(demand); err != nil {
			t.Fatalf("s=%d d=%d: %v", tc.s, tc.d, err)
		}
	}
}

func TestColorDemandGreedyErrors(t *testing.T) {
	t.Parallel()
	if _, err := ColorDemandGreedy(nil); err == nil {
		t.Fatal("empty demand accepted")
	}
	if _, err := ColorDemandGreedy([][]int{{1, 0}}); err == nil {
		t.Fatal("non-square demand accepted")
	}
	dc, err := ColorDemandGreedy([][]int{{0, 0}, {0, 0}})
	if err != nil || dc.NumColors != 0 {
		t.Fatalf("zero demand should color trivially, got %v %v", dc, err)
	}
}

func TestUniformDemandShortcut(t *testing.T) {
	t.Parallel()
	// A constant matrix must be colored with exactly n*u colors (perfectly
	// tight) by both colorers, via the Latin-square shortcut.
	const n, u = 5, 3
	demand := make([][]int, n)
	for i := range demand {
		demand[i] = make([]int, n)
		for j := range demand[i] {
			demand[i][j] = u
		}
	}
	exact, err := ColorDemandMatrix(demand, n*u)
	if err != nil {
		t.Fatal(err)
	}
	if exact.NumColors != n*u {
		t.Fatalf("exact coloring uses %d colors, want %d", exact.NumColors, n*u)
	}
	if err := exact.Validate(demand); err != nil {
		t.Fatal(err)
	}
	greedy, err := ColorDemandGreedy(demand)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.NumColors != n*u {
		t.Fatalf("greedy coloring uses %d colors, want %d (uniform shortcut)", greedy.NumColors, n*u)
	}
	if err := greedy.Validate(demand); err != nil {
		t.Fatal(err)
	}
}

// TestColorDemandGreedyProperty: the greedy coloring is always proper and
// never uses more than 2Δ-1 colors.
func TestColorDemandGreedyProperty(t *testing.T) {
	t.Parallel()
	f := func(sRaw, dRaw uint8, seed int64) bool {
		s := int(sRaw)%10 + 1
		d := int(dRaw)%15 + 1
		demand := randomBoundedDemand(s, d, seed)
		dc, err := ColorDemandGreedy(demand)
		if err != nil {
			return false
		}
		delta := MaxRowColSum(demand)
		bound := 2*delta - 1
		if delta == 0 {
			bound = 0
		}
		// The uniform shortcut may use fewer colors than the general bound.
		return dc.NumColors <= maxInt(bound, delta) && dc.Validate(demand) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestFreeSetRemove(t *testing.T) {
	t.Parallel()
	f := &newFreeSets(1, 10)[0]
	f.remove(3, 4) // free: [0,3) [7,10)
	if len(f.intervals()) != 2 || f.intervals()[0] != (ColorRun{0, 3}) || f.intervals()[1] != (ColorRun{7, 3}) {
		t.Fatalf("unexpected intervals %v", f.intervals())
	}
	f.remove(0, 1) // free: [1,3) [7,10)
	f.remove(8, 1) // free: [1,3) [7,8) [9,10)
	if len(f.intervals()) != 3 {
		t.Fatalf("unexpected intervals %v", f.intervals())
	}
	f.remove(0, 10)
	if len(f.intervals()) != 0 {
		t.Fatalf("expected empty, got %v", f.intervals())
	}
}

// referenceGreedy is the greedy coloring written the obvious way: a fresh
// interval slice per free-set removal and a fresh run slice per cell. The
// pooled ColorDemandGreedy must assign exactly the same runs.
func referenceGreedy(demand [][]int) [][][]ColorRun {
	n := len(demand)
	numColors := 2*MaxRowColSum(demand) - 1
	free := make([][]ColorRun, 2*n)
	for k := range free {
		free[k] = []ColorRun{{Start: 0, Len: numColors}}
	}
	remove := func(set []ColorRun, start, end int) []ColorRun {
		var out []ColorRun
		for _, iv := range set {
			ivEnd := iv.Start + iv.Len
			if ivEnd <= start || iv.Start >= end {
				out = append(out, iv)
				continue
			}
			if iv.Start < start {
				out = append(out, ColorRun{Start: iv.Start, Len: start - iv.Start})
			}
			if ivEnd > end {
				out = append(out, ColorRun{Start: end, Len: ivEnd - end})
			}
		}
		return out
	}
	runs := emptyRuns(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for need := demand[i][j]; need > 0; {
				// The lowest color free in both row i and column j starts the
				// longest common run from there.
				lo, hi := -1, 0
				for _, ra := range free[i] {
					for _, rb := range free[n+j] {
						l, h := max(ra.Start, rb.Start), min(ra.Start+ra.Len, rb.Start+rb.Len)
						if l < h && (lo < 0 || l < lo) {
							lo, hi = l, h
						}
					}
				}
				take := min(hi-lo, need)
				runs[i][j] = append(runs[i][j], ColorRun{Start: lo, Len: take})
				free[i] = remove(free[i], lo, lo+take)
				free[n+j] = remove(free[n+j], lo, lo+take)
				need -= take
			}
		}
	}
	return runs
}

// TestColorDemandGreedyMatchesReference pins the pooled free sets and the
// flat run backing to the plain algorithm, run for run, on matrices
// fragmented enough to move free sets out of their first pool window.
func TestColorDemandGreedyMatchesReference(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ s, d int }{{3, 4}, {8, 12}, {16, 40}, {32, 100}, {64, 64}} {
		for seed := int64(0); seed < 4; seed++ {
			demand := randomBoundedDemand(tc.s, tc.d, seed*31+int64(tc.s))
			if uniformDemandColoring(demand) != nil || MaxRowColSum(demand) == 0 {
				continue
			}
			dc, err := ColorDemandGreedy(demand)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceGreedy(demand)
			for i := range want {
				for j := range want[i] {
					if !slices.Equal(dc.Runs[i][j], want[i][j]) {
						t.Fatalf("s=%d d=%d seed=%d cell (%d,%d): runs %v, reference %v", tc.s, tc.d, seed, i, j, dc.Runs[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestColorDemandGreedyAllocsFlat pins that a greedy coloring allocates a
// bounded number of objects — its result, the run and cell backings, the
// free-set pool and its few growths — at 64 cells and at 4096 alike, instead
// of a slice per cell and per free-set removal (hundreds at 8x8, tens of
// thousands at 64x64).
func TestColorDemandGreedyAllocsFlat(t *testing.T) {
	for _, s := range []int{8, 64} {
		demand := randomBoundedDemand(s, 2*s, int64(s))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ColorDemandGreedy(demand); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("%dx%d: a coloring allocates %.0f objects, want at most 16 whatever the cell count", s, s, allocs)
		}
	}
}

package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildRegular constructs a pseudo-random d-regular bipartite multigraph on
// s+s vertices by overlaying d random permutations.
func buildRegular(t *testing.T, s, d int, seed int64) *Multigraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := NewMultigraph(s, s)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < d; k++ {
		perm := rng.Perm(s)
		for u, v := range perm {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestNewMultigraphValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewMultigraph(0, 3); err == nil {
		t.Fatal("zero left side accepted")
	}
	if _, err := NewMultigraph(3, -1); err == nil {
		t.Fatal("negative right side accepted")
	}
}

// checkRegular fails the test unless every vertex of g on both sides has
// degree exactly d.
func checkRegular(t *testing.T, g *Multigraph, d int) {
	t.Helper()
	left, right := g.Degrees()
	for i, x := range left {
		if x != d {
			t.Fatalf("left vertex %d degree %d, want %d", i, x, d)
		}
	}
	for i, x := range right {
		if x != d {
			t.Fatalf("right vertex %d degree %d, want %d", i, x, d)
		}
	}
}

func TestDegreesAndRegularity(t *testing.T) {
	t.Parallel()
	g := buildRegular(t, 5, 3, 1)
	checkRegular(t, g, 3)
	if g.MaxDegree() != 3 {
		t.Fatalf("max degree %d, want 3", g.MaxDegree())
	}
}

func TestColorExactOnRegularGraphs(t *testing.T) {
	t.Parallel()
	cases := []struct {
		s, d int
	}{
		{1, 1}, {2, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 2}, {6, 7}, {8, 8}, {10, 13}, {16, 16}, {32, 9},
	}
	for _, tc := range cases {
		g := buildRegular(t, tc.s, tc.d, int64(tc.s*100+tc.d))
		col, err := ColorExact(g)
		if err != nil {
			t.Fatalf("s=%d d=%d: %v", tc.s, tc.d, err)
		}
		if col.NumColors != tc.d {
			t.Fatalf("s=%d d=%d: used %d colors, want exactly d (König)", tc.s, tc.d, col.NumColors)
		}
		if err := col.Validate(g); err != nil {
			t.Fatalf("s=%d d=%d: invalid coloring: %v", tc.s, tc.d, err)
		}
	}
}

func TestColorExactOnIrregularGraph(t *testing.T) {
	t.Parallel()
	g, err := NewMultigraph(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A lopsided graph: vertex 0 has degree 5 (with parallel edges), others less.
	edges := []Edge{{0, 0}, {0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 1}, {1, 0}, {2, 2}, {3, 3}, {3, 0}}
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	col, err := ColorExact(g)
	if err != nil {
		t.Fatal(err)
	}
	if col.NumColors != g.MaxDegree() {
		t.Fatalf("colors %d, want max degree %d", col.NumColors, g.MaxDegree())
	}
	if err := col.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestColorExactEmptyGraph(t *testing.T) {
	t.Parallel()
	g, err := NewMultigraph(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	col, err := ColorExact(g)
	if err != nil {
		t.Fatal(err)
	}
	if col.NumColors != 0 || len(col.Colors) != 0 {
		t.Fatalf("empty graph coloring: %+v", col)
	}
}

func TestColoringValidateCatchesBadColorings(t *testing.T) {
	t.Parallel()
	g, _ := NewMultigraph(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	bad := &Coloring{Colors: []int{0, 0}, NumColors: 2}
	if err := bad.Validate(g); err == nil {
		t.Fatal("shared left vertex with same color should be invalid")
	}
	tooFew := &Coloring{Colors: []int{0}, NumColors: 2}
	if err := tooFew.Validate(g); err == nil {
		t.Fatal("length mismatch should be invalid")
	}
	outOfRange := &Coloring{Colors: []int{0, 5}, NumColors: 2}
	if err := outOfRange.Validate(g); err == nil {
		t.Fatal("out-of-range color should be invalid")
	}
}

// TestColorExactPropertyRandomRegular is a property-based check: for random
// regular multigraphs, ColorExact always yields a proper coloring with
// exactly d colors (König's theorem).
func TestColorExactPropertyRandomRegular(t *testing.T) {
	t.Parallel()
	f := func(sRaw, dRaw uint8, seed int64) bool {
		s := int(sRaw)%12 + 1
		d := int(dRaw)%12 + 1
		rng := rand.New(rand.NewSource(seed))
		g, err := NewMultigraph(s, s)
		if err != nil {
			return false
		}
		for k := 0; k < d; k++ {
			perm := rng.Perm(s)
			for u, v := range perm {
				g.AddEdge(u, v)
			}
		}
		col, err := ColorExact(g)
		if err != nil {
			return false
		}
		return col.NumColors == d && col.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestColorExactPropertyArbitraryBipartite checks the Δ-coloring property on
// arbitrary (not necessarily regular) random bipartite multigraphs.
func TestColorExactPropertyArbitraryBipartite(t *testing.T) {
	t.Parallel()
	f := func(lRaw, rRaw, mRaw uint8, seed int64) bool {
		l := int(lRaw)%10 + 1
		r := int(rRaw)%10 + 1
		m := int(mRaw) % 60
		rng := rand.New(rand.NewSource(seed))
		g, err := NewMultigraph(l, r)
		if err != nil {
			return false
		}
		for k := 0; k < m; k++ {
			g.AddEdge(rng.Intn(l), rng.Intn(r))
		}
		col, err := ColorExact(g)
		if err != nil {
			return false
		}
		return col.NumColors == g.MaxDegree() && col.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g, _ := NewMultigraph(2, 2)
	g.AddEdge(2, 0)
}

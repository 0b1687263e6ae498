// Package bipartite provides the combinatorial substrate of the paper's
// routing primitives: edge colorings of bipartite multigraphs.
//
// Theorem 3.2 (König's line coloring theorem) states that every d-regular
// bipartite multigraph decomposes into d perfect matchings, i.e. admits a
// proper edge coloring with exactly d colors. Corollary 3.3 of the paper
// turns such a coloring into a two-round routing schedule; almost every step
// of Algorithms 1-4 reduces to computing such a coloring on public data.
//
// The package implements
//
//   - ColorDemandMatrix: a proper d-edge-coloring of a demand matrix in
//     run-length form (pad to exact d-regularity, then peel perfect
//     matchings) — the coloring the protocol layer computes,
//   - ColorDemandGreedy: the 2Δ-1 coloring of footnote 3, used by the
//     low-computation variant of Section 5,
//   - ColorExact on an explicit Multigraph (ExpandDemand): the
//     alternating-path constructive proof of König's theorem, kept as the
//     Theorem 3.2 reference the run-length coloring is checked against.
//
// All algorithms are deterministic: every node of the simulated clique that
// runs them on the same input obtains the same coloring, which is what lets
// the nodes agree on a routing schedule without communication.
package bipartite

import "fmt"

// Edge is one (multi-)edge of a bipartite multigraph. U indexes the left
// side, V the right side (both 0-based).
type Edge struct {
	U int
	V int
}

// Multigraph is a bipartite multigraph with NL left vertices and NR right
// vertices. Parallel edges are represented by repeated entries in Edges.
type Multigraph struct {
	NL    int
	NR    int
	Edges []Edge
}

// NewMultigraph validates the vertex counts and returns an empty multigraph.
func NewMultigraph(nl, nr int) (*Multigraph, error) {
	if nl <= 0 || nr <= 0 {
		return nil, fmt.Errorf("bipartite: sides must be positive, got %d and %d", nl, nr)
	}
	return &Multigraph{NL: nl, NR: nr}, nil
}

// AddEdge appends one edge. It panics on out-of-range endpoints; callers
// construct graphs from internally validated data.
func (g *Multigraph) AddEdge(u, v int) {
	if u < 0 || u >= g.NL || v < 0 || v >= g.NR {
		panic(fmt.Sprintf("bipartite: edge (%d,%d) out of range (%dx%d)", u, v, g.NL, g.NR))
	}
	g.Edges = append(g.Edges, Edge{U: u, V: v})
}

// Degrees returns the left and right degree sequences.
func (g *Multigraph) Degrees() (left, right []int) {
	left = make([]int, g.NL)
	right = make([]int, g.NR)
	for _, e := range g.Edges {
		left[e.U]++
		right[e.V]++
	}
	return left, right
}

// MaxDegree returns the maximum vertex degree Δ.
func (g *Multigraph) MaxDegree() int {
	left, right := g.Degrees()
	max := 0
	for _, d := range left {
		if d > max {
			max = d
		}
	}
	for _, d := range right {
		if d > max {
			max = d
		}
	}
	return max
}

// Coloring is a proper edge coloring: Colors[i] is the color of Edges[i],
// colors are 0-based and NumColors is the number of colors used.
type Coloring struct {
	Colors    []int
	NumColors int
}

// Validate checks that the coloring is proper for g (no two edges sharing a
// vertex have the same color) and uses colors in [0, NumColors).
func (c *Coloring) Validate(g *Multigraph) error {
	if len(c.Colors) != len(g.Edges) {
		return fmt.Errorf("bipartite: coloring has %d entries for %d edges", len(c.Colors), len(g.Edges))
	}
	seenL := make(map[[2]int]int)
	seenR := make(map[[2]int]int)
	for i, e := range g.Edges {
		col := c.Colors[i]
		if col < 0 || col >= c.NumColors {
			return fmt.Errorf("bipartite: edge %d has color %d outside [0,%d)", i, col, c.NumColors)
		}
		ku := [2]int{e.U, col}
		if j, ok := seenL[ku]; ok {
			return fmt.Errorf("bipartite: edges %d and %d share left vertex %d and color %d", j, i, e.U, col)
		}
		seenL[ku] = i
		kv := [2]int{e.V, col}
		if j, ok := seenR[kv]; ok {
			return fmt.Errorf("bipartite: edges %d and %d share right vertex %d and color %d", j, i, e.V, col)
		}
		seenR[kv] = i
	}
	return nil
}

// ColorExact computes a proper edge coloring of g with exactly Δ colors,
// where Δ is the maximum degree. This is the constructive form of König's
// line coloring theorem (Theorem 3.2 of the paper): for d-regular multigraphs
// the color classes are d perfect matchings.
//
// The algorithm inserts edges one at a time. For edge (u,v) it picks a color
// a free at u and a color b free at v; if a == b the edge is colored a,
// otherwise the alternating a/b path starting at v is flipped, freeing a at v
// so the edge can be colored a. Each insertion touches O(NL+NR) edges, giving
// O(|E|·(NL+NR)) worst-case time, which is ample for the simulator and, more
// importantly, deterministic.
func ColorExact(g *Multigraph) (*Coloring, error) {
	delta := g.MaxDegree()
	if delta == 0 {
		return &Coloring{Colors: []int{}, NumColors: 0}, nil
	}
	m := len(g.Edges)
	colors := make([]int, m)
	for i := range colors {
		colors[i] = -1
	}

	// colorAtL[u*delta+c] / colorAtR[v*delta+c] hold the edge index currently
	// colored c at that vertex, or -1.
	colorAtL := make([]int, g.NL*delta)
	colorAtR := make([]int, g.NR*delta)
	for i := range colorAtL {
		colorAtL[i] = -1
	}
	for i := range colorAtR {
		colorAtR[i] = -1
	}

	freeColor := func(table []int, vertex int) int {
		base := vertex * delta
		for c := 0; c < delta; c++ {
			if table[base+c] == -1 {
				return c
			}
		}
		return -1
	}

	for i, e := range g.Edges {
		a := freeColor(colorAtL, e.U)
		b := freeColor(colorAtR, e.V)
		if a == -1 || b == -1 {
			return nil, fmt.Errorf("bipartite: no free color at edge %d=(%d,%d); max degree computed as %d", i, e.U, e.V, delta)
		}
		if a != b {
			// Flip the alternating a/b path starting at v on the right side.
			// The path alternates edges colored a (entering from the right)
			// and b (entering from the left); it cannot return to u or v, so
			// after flipping, color a becomes free at v.
			flipAlternating(g, colors, colorAtL, colorAtR, delta, e.V, a, b)
		}
		colors[i] = a
		colorAtL[e.U*delta+a] = i
		colorAtR[e.V*delta+a] = i
	}
	return &Coloring{Colors: colors, NumColors: delta}, nil
}

// flipAlternating swaps colors a and b along the maximal alternating path
// that starts at right-vertex v with an edge of color a.
func flipAlternating(g *Multigraph, colors, colorAtL, colorAtR []int, delta, v, a, b int) {
	// Walk the path first, collecting edge indices, then flip. Walking and
	// flipping in one pass is possible but subtler; clarity wins here.
	var path []int
	side := 1 // 1 = currently at a right vertex looking for color a; 0 = left vertex looking for color b
	curR := v
	curL := -1
	want := a
	for {
		var idx int
		if side == 1 {
			idx = colorAtR[curR*delta+want]
		} else {
			idx = colorAtL[curL*delta+want]
		}
		if idx == -1 {
			break
		}
		path = append(path, idx)
		e := g.Edges[idx]
		if side == 1 {
			curL = e.U
			side = 0
		} else {
			curR = e.V
			side = 1
		}
		if want == a {
			want = b
		} else {
			want = a
		}
	}
	for _, idx := range path {
		e := g.Edges[idx]
		old := colors[idx]
		var next int
		if old == a {
			next = b
		} else {
			next = a
		}
		// Clear old registrations.
		if colorAtL[e.U*delta+old] == idx {
			colorAtL[e.U*delta+old] = -1
		}
		if colorAtR[e.V*delta+old] == idx {
			colorAtR[e.V*delta+old] = -1
		}
		colors[idx] = next
	}
	for _, idx := range path {
		e := g.Edges[idx]
		colorAtL[e.U*delta+colors[idx]] = idx
		colorAtR[e.V*delta+colors[idx]] = idx
	}
}

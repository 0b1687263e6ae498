package bipartite

import (
	"fmt"
	"sync"
)

// A demand matrix D is the compact form of a bipartite multigraph: D[i][j]
// parallel edges connect left vertex i to right vertex j. The paper's routing
// primitives all operate on such matrices ("node i holds D[i][j] messages for
// node j"), so coloring them directly — without expanding every parallel
// edge — is both faster and closer to the per-node computation bounds of
// Section 5.

// ColorRun is a contiguous block of colors assigned to one cell of a demand
// matrix: colors Start, Start+1, ..., Start+Len-1.
type ColorRun struct {
	Start int
	Len   int
}

// DemandColoring is a proper edge coloring of the multigraph described by a
// demand matrix, in run-length form. Runs[i][j] lists the color blocks given
// to the D[i][j] units of cell (i,j); the total length of the runs equals
// D[i][j], and no color appears twice in any row or column.
type DemandColoring struct {
	NumColors int
	Runs      [][][]ColorRun

	// cells and backing are the flat arrays ColorDemandMatrix and
	// ColorDemandGreedy carve Runs from (nil for a uniform or empty
	// coloring): Release hands them on.
	cells   [][]ColorRun
	backing []ColorRun
}

// coloringPool holds released colorings whose arrays the next results of
// ColorDemandMatrix and ColorDemandGreedy are carved from.
var coloringPool sync.Pool

// Release hands the storage of a coloring to later colorings; dc must not
// be used afterwards. Uniform and empty colorings are left to the garbage
// collector.
func (dc *DemandColoring) Release() {
	if dc.backing == nil {
		return
	}
	dc.Runs, dc.NumColors = dc.Runs[:0], 0
	coloringPool.Put(dc)
}

// pooledColoring returns a coloring of an n x n matrix with its cells empty
// and an empty backing with room for runs color runs, reusing a released
// coloring if it can.
func pooledColoring(n, runs int) *DemandColoring {
	dc, _ := coloringPool.Get().(*DemandColoring)
	if dc == nil {
		dc = new(DemandColoring)
	}
	if cap(dc.backing) < runs {
		dc.backing = make([]ColorRun, 0, runs)
	}
	dc.backing = dc.backing[:0]
	if cap(dc.cells) < n*n {
		dc.cells = make([][]ColorRun, n*n)
	}
	dc.cells = dc.cells[:n*n]
	clear(dc.cells)
	if cap(dc.Runs) < n {
		dc.Runs = make([][][]ColorRun, n)
	}
	dc.Runs = dc.Runs[:n]
	return dc
}

// ColorOfUnit returns the color of the k-th unit (0-based) of cell (i,j).
func (dc *DemandColoring) ColorOfUnit(i, j, k int) (int, error) {
	rem := k
	for _, run := range dc.Runs[i][j] {
		if rem < run.Len {
			return run.Start + rem, nil
		}
		rem -= run.Len
	}
	return 0, fmt.Errorf("bipartite: cell (%d,%d) has no unit %d", i, j, k)
}

// Validate checks that dc is a proper coloring of demand.
func (dc *DemandColoring) Validate(demand [][]int) error {
	rows := len(demand)
	if rows == 0 {
		return nil
	}
	cols := len(demand[0])
	rowSeen := make([]map[int]bool, rows)
	colSeen := make([]map[int]bool, cols)
	for i := range rowSeen {
		rowSeen[i] = make(map[int]bool)
	}
	for j := range colSeen {
		colSeen[j] = make(map[int]bool)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			total := 0
			for _, run := range dc.Runs[i][j] {
				if run.Len <= 0 {
					return fmt.Errorf("bipartite: cell (%d,%d) has non-positive run", i, j)
				}
				total += run.Len
				for c := run.Start; c < run.Start+run.Len; c++ {
					if c < 0 || c >= dc.NumColors {
						return fmt.Errorf("bipartite: cell (%d,%d) uses color %d outside [0,%d)", i, j, c, dc.NumColors)
					}
					if rowSeen[i][c] {
						return fmt.Errorf("bipartite: color %d repeated in row %d", c, i)
					}
					rowSeen[i][c] = true
					if colSeen[j][c] {
						return fmt.Errorf("bipartite: color %d repeated in column %d", c, j)
					}
					colSeen[j][c] = true
				}
			}
			if total != demand[i][j] {
				return fmt.Errorf("bipartite: cell (%d,%d) colored %d units, demand %d", i, j, total, demand[i][j])
			}
		}
	}
	return nil
}

// MaxRowColSum returns the maximum over all row sums and column sums, i.e.
// the maximum degree of the corresponding multigraph. It allocates nothing:
// it sits on the per-relay hot path of the protocol layer.
func MaxRowColSum(demand [][]int) int {
	r := len(demand)
	if r == 0 {
		return 0
	}
	max := 0
	cols := 0
	for _, row := range demand {
		s := 0
		for _, v := range row {
			s += v
		}
		if s > max {
			max = s
		}
		if len(row) > cols {
			cols = len(row)
		}
	}
	for j := 0; j < cols; j++ {
		s := 0
		for _, row := range demand {
			if j < len(row) {
				s += row[j]
			}
		}
		if s > max {
			max = s
		}
	}
	return max
}

// ColorDemandMatrix computes a proper d-edge-coloring of the multigraph
// described by demand, where d must be at least the maximum row/column sum.
// The matrix is first padded to exact d-regularity (Theorem 3.2 requires
// regularity); the coloring of the padded matrix is then restricted to the
// real demand.
//
// The construction peels perfect matchings off the padded matrix: by Hall's
// theorem the support of a doubly-d'-regular non-negative matrix always
// contains a perfect matching; peeling the minimum multiplicity t along such
// a matching assigns a block of t colors to every matched cell and leaves a
// (d'-t)-regular matrix. At least one cell reaches zero per iteration, so at
// most rows*cols matchings are computed. This is the run-length analogue of
// decomposing a regular bipartite multigraph into perfect matchings.
func ColorDemandMatrix(demand [][]int, d int) (*DemandColoring, error) {
	r := len(demand)
	if r == 0 {
		return nil, fmt.Errorf("bipartite: empty demand matrix")
	}
	c := len(demand[0])
	if r != c {
		return nil, fmt.Errorf("bipartite: demand matrix must be square, got %dx%d", r, c)
	}
	if max := MaxRowColSum(demand); max > d {
		return nil, fmt.Errorf("bipartite: demand degree %d exceeds requested colors %d", max, d)
	}
	if u := uniformDemandColoring(demand); u != nil && u.NumColors <= d {
		return u, nil
	}

	sc := demandScratchPool.Get().(*demandScratch)
	defer demandScratchPool.Put(sc)
	dc, err := colorDemandScratch(sc, demand, r, d)
	if err != nil {
		return nil, err
	}
	return dc, nil
}

// demandScratch holds the reusable intermediate state of colorDemandScratch.
// Pooling it keeps ColorDemandMatrix down to the four allocations that make
// up the returned DemandColoring; the coloring itself sits on the protocol
// hot path (every non-uniform relay step colors a fresh demand matrix).
type demandScratch struct {
	work     []int     // n*n flattened padded working copy
	rowDef   []int     // per-row padding deficit
	colDef   []int     // per-column padding deficit
	matchRow []int     // Kuhn's: row -> col
	matchCol []int     // Kuhn's: col -> row
	events   []peelRun // per-matching color runs, in peel order
	counts   []int32   // per-cell surviving run count, then fill cursor

	// adjBuf/adjLen hold per-row adjacency lists of the support (columns with
	// strictly positive work, ascending): row i occupies adjBuf[i*n : i*n +
	// adjLen[i]]. Maintained incrementally as peeling zeroes cells, so Kuhn's
	// scans touch only the support instead of all n columns per row.
	adjBuf []int32
	adjLen []int32
	// visitStamp/gen replace the per-row visited-flag clear of Kuhn's
	// algorithm: column j counts as visited when visitStamp[j] == gen, and
	// bumping gen unvisits every column at once. gen survives reset — a fresh
	// (zeroed) stamp slice is always "all unvisited" for any gen >= 1.
	visitStamp []int64
	gen        int64
}

// peelRun records that peeling assigned the colors [start, start+len) to the
// flattened cell index cell. Events for one cell appear in increasing color
// order because colors are handed out monotonically.
type peelRun struct {
	cell  int32
	start int32
	len   int32
}

var demandScratchPool = sync.Pool{New: func() any { return new(demandScratch) }}

func (sc *demandScratch) reset(n int) {
	cells := n * n
	if cap(sc.work) < cells {
		sc.work = make([]int, cells)
		sc.counts = make([]int32, cells)
	}
	sc.work = sc.work[:cells]
	sc.counts = sc.counts[:cells]
	if cap(sc.rowDef) < n {
		sc.rowDef = make([]int, n)
		sc.colDef = make([]int, n)
		sc.matchRow = make([]int, n)
		sc.matchCol = make([]int, n)
		sc.visitStamp = make([]int64, n)
	}
	sc.rowDef = sc.rowDef[:n]
	sc.colDef = sc.colDef[:n]
	sc.matchRow = sc.matchRow[:n]
	sc.matchCol = sc.matchCol[:n]
	sc.visitStamp = sc.visitStamp[:n]
	if cap(sc.adjBuf) < cells {
		sc.adjBuf = make([]int32, cells)
		sc.adjLen = make([]int32, n)
	}
	sc.adjBuf = sc.adjBuf[:cells]
	sc.adjLen = sc.adjLen[:n]
	sc.events = sc.events[:0]
}

// colorDemandScratch is the general (non-uniform) arm of ColorDemandMatrix.
// It pads, peels, and trims entirely inside sc, then compacts the surviving
// runs into an exact-size DemandColoring. The peeling order, the
// northwest-corner padding, and Kuhn's column scan are identical to the
// original nested-slice implementation, so the returned coloring — which
// downstream relay steps turn into concrete send schedules pinned by the
// stats goldens — is bit-identical.
func colorDemandScratch(sc *demandScratch, demand [][]int, n, d int) (*DemandColoring, error) {
	sc.reset(n)

	// Pad to exact d-regularity in place (northwest-corner fill: repeatedly
	// add as much dummy demand as possible to a deficient row/column pair);
	// dummy units are never transmitted.
	for i := 0; i < n; i++ {
		s := 0
		row := demand[i]
		copy(sc.work[i*n:(i+1)*n], row)
		for _, v := range row {
			s += v
		}
		if s > d {
			return nil, fmt.Errorf("bipartite: row %d sum %d exceeds target degree %d", i, s, d)
		}
		sc.rowDef[i] = d - s
	}
	for j := 0; j < n; j++ {
		s := 0
		for i := 0; i < n; i++ {
			s += sc.work[i*n+j]
		}
		if s > d {
			return nil, fmt.Errorf("bipartite: column %d sum %d exceeds target degree %d", j, s, d)
		}
		sc.colDef[j] = d - s
	}
	for i, j := 0, 0; i < n && j < n; {
		if sc.rowDef[i] == 0 {
			i++
			continue
		}
		if sc.colDef[j] == 0 {
			j++
			continue
		}
		add := sc.rowDef[i]
		if sc.colDef[j] < add {
			add = sc.colDef[j]
		}
		sc.work[i*n+j] += add
		sc.rowDef[i] -= add
		sc.colDef[j] -= add
	}
	for i := 0; i < n; i++ {
		if sc.rowDef[i] != 0 {
			return nil, fmt.Errorf("bipartite: padding failed, row %d still deficient by %d", i, sc.rowDef[i])
		}
	}

	// Build the support adjacency lists (ascending column order, exactly the
	// positive cells) that Kuhn's scans below walk instead of full rows.
	for i := 0; i < n; i++ {
		l := 0
		row := sc.work[i*n : (i+1)*n]
		for j, v := range row {
			if v > 0 {
				sc.adjBuf[i*n+l] = int32(j)
				l++
			}
		}
		sc.adjLen[i] = int32(l)
	}

	// Peel perfect matchings, logging each assigned run instead of growing
	// per-cell slices.
	remaining := d
	nextColor := 0
	for remaining > 0 {
		if err := sc.perfectMatching(n, remaining); err != nil {
			return nil, err
		}
		t := remaining
		for i := 0; i < n; i++ {
			if v := sc.work[i*n+sc.matchRow[i]]; v < t {
				t = v
			}
		}
		if t <= 0 {
			return nil, fmt.Errorf("bipartite: internal error: matching with zero capacity")
		}
		for i := 0; i < n; i++ {
			j := sc.matchRow[i]
			sc.work[i*n+j] -= t
			sc.events = append(sc.events, peelRun{cell: int32(i*n + j), start: int32(nextColor), len: int32(t)})
			if sc.work[i*n+j] == 0 {
				sc.removeAdj(n, i, j)
			}
		}
		nextColor += t
		remaining -= t
	}

	// Trim each cell to its real demand (padding beyond demand[i][j] is dummy
	// and never transmitted; a cell's events are in increasing color order, so
	// the first demand[i][j] colored units are exactly the real ones). First
	// pass counts surviving runs per cell; sc.work is reused to track the
	// remaining real need.
	for i := 0; i < n; i++ {
		copy(sc.work[i*n:(i+1)*n], demand[i])
	}
	for i := range sc.counts {
		sc.counts[i] = 0
	}
	totalRuns := 0
	for _, ev := range sc.events {
		if sc.work[ev.cell] <= 0 {
			continue
		}
		sc.counts[ev.cell]++
		totalRuns++
		sc.work[ev.cell] -= int(ev.len)
	}
	for cell, need := range sc.work {
		if need > 0 {
			return nil, fmt.Errorf("bipartite: cell (%d,%d) under-colored by %d", cell/n, cell%n, need)
		}
	}

	// Compact into result storage: one flat ColorRun backing array carved
	// into per-cell slices, from a released coloring when there is one.
	// sc.counts becomes the per-cell fill cursor.
	dc := pooledColoring(n, totalRuns)
	backing, cells := dc.backing, dc.cells
	off := 0
	for cell, cnt := range sc.counts {
		if cnt == 0 {
			continue
		}
		cells[cell] = backing[off : off : off+int(cnt)]
		off += int(cnt)
	}
	for i := 0; i < n; i++ {
		copy(sc.work[i*n:(i+1)*n], demand[i])
	}
	for _, ev := range sc.events {
		need := sc.work[ev.cell]
		if need <= 0 {
			continue
		}
		take := int(ev.len)
		if take > need {
			take = need
		}
		cells[ev.cell] = append(cells[ev.cell], ColorRun{Start: int(ev.start), Len: take})
		sc.work[ev.cell] = need - take
	}
	for i := range dc.Runs {
		dc.Runs[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	dc.NumColors = d
	return dc, nil
}

// perfectMatching finds a perfect matching in the bipartite graph whose edges
// are the strictly positive cells of sc.work (materialised as the adjacency
// lists in sc.adjBuf), using Kuhn's augmenting-path algorithm; the result is
// left in sc.matchRow. The adjacency lists enumerate the support in ascending
// column order — the same columns, in the same order, the original full-row
// scan visited after skipping zeros — keeping the peel sequence, and with it
// the final coloring, deterministic and unchanged.
func (sc *demandScratch) perfectMatching(n, remaining int) error {
	for i := 0; i < n; i++ {
		sc.matchRow[i] = -1
		sc.matchCol[i] = -1
	}
	for i := 0; i < n; i++ {
		sc.gen++
		if !sc.augment(n, i) {
			return fmt.Errorf("bipartite: demand coloring failed with %d colors remaining: %w", remaining,
				fmt.Errorf("bipartite: no perfect matching on support (row %d unmatched); matrix is not doubly balanced", i))
		}
	}
	return nil
}

// augment searches for an augmenting path from row i over the support
// adjacency lists (Kuhn's algorithm inner step). A column is visited for the
// current source row when its stamp equals sc.gen.
func (sc *demandScratch) augment(n, i int) bool {
	row := sc.adjBuf[i*n : i*n+int(sc.adjLen[i])]
	for _, jj := range row {
		j := int(jj)
		if sc.visitStamp[j] == sc.gen {
			continue
		}
		sc.visitStamp[j] = sc.gen
		if sc.matchCol[j] == -1 || sc.augment(n, sc.matchCol[j]) {
			sc.matchRow[i] = j
			sc.matchCol[j] = i
			return true
		}
	}
	return false
}

// removeAdj deletes column j from row i's support adjacency list (the cell
// has reached zero). The list is ascending, so the position is found by
// binary search and the tail shifted left.
func (sc *demandScratch) removeAdj(n, i, j int) {
	l := int(sc.adjLen[i])
	row := sc.adjBuf[i*n : i*n+l]
	lo, hi := 0, l
	for lo < hi {
		mid := (lo + hi) / 2
		if int(row[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < l && int(row[lo]) == j {
		copy(row[lo:], row[lo+1:])
		sc.adjLen[i] = int32(l - 1)
	}
}

// ExpandDemand converts a demand matrix into an explicit multigraph, mainly
// for cross-checking the run-length coloring against ColorExact in tests.
func ExpandDemand(demand [][]int) (*Multigraph, error) {
	r := len(demand)
	if r == 0 {
		return nil, fmt.Errorf("bipartite: empty demand matrix")
	}
	c := len(demand[0])
	g, err := NewMultigraph(r, c)
	if err != nil {
		return nil, err
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			for k := 0; k < demand[i][j]; k++ {
				g.AddEdge(i, j)
			}
		}
	}
	return g, nil
}

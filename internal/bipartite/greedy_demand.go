package bipartite

import (
	"fmt"
	"slices"
)

// uniformDemandColoring recognises the common special case of a constant
// demand matrix (every cell holds exactly u units, as in the announcement
// patterns of Corollaries 3.3/3.4) and colors it with a Latin-square layout:
// cell (i,j) receives the color block ((i+j) mod n)*u .. +u. This avoids any
// matching computation for the patterns that are known a priori.
func uniformDemandColoring(demand [][]int) *DemandColoring {
	n := len(demand)
	if n == 0 {
		return nil
	}
	u := demand[0][0]
	for i := 0; i < n; i++ {
		if len(demand[i]) != n {
			return nil
		}
		for j := 0; j < n; j++ {
			if demand[i][j] != u {
				return nil
			}
		}
	}
	if u == 0 {
		return nil
	}
	// Three flat backing arrays instead of 1+n+n^2 allocations: the routing
	// layer builds one of these per announcement step per group.
	runs := make([][][]ColorRun, n)
	cells := make([][]ColorRun, n*n)
	backing := make([]ColorRun, n*n)
	for i := range runs {
		runs[i] = cells[i*n : (i+1)*n : (i+1)*n]
		for j := range runs[i] {
			backing[i*n+j] = ColorRun{Start: ((i + j) % n) * u, Len: u}
			runs[i][j] = backing[i*n+j : i*n+j+1 : i*n+j+1]
		}
	}
	return &DemandColoring{NumColors: n * u, Runs: runs}
}

// ColorDemandGreedy colors the multigraph described by a square demand
// matrix with at most 2Δ-1 colors, where Δ is the maximum row/column sum,
// using the greedy strategy of the paper's footnote 3 / Section 5. Compared
// to ColorDemandMatrix it needs no matching computations — the work is
// proportional to the number of non-zero cells plus the number of color-run
// fragments — at the price of up to twice as many colors, which the routing
// layer absorbs by letting relays carry two messages per edge.
func ColorDemandGreedy(demand [][]int) (*DemandColoring, error) {
	r := len(demand)
	if r == 0 {
		return nil, fmt.Errorf("bipartite: empty demand matrix")
	}
	c := len(demand[0])
	if r != c {
		return nil, fmt.Errorf("bipartite: demand matrix must be square, got %dx%d", r, c)
	}
	if u := uniformDemandColoring(demand); u != nil {
		return u, nil
	}
	delta := MaxRowColSum(demand)
	if delta == 0 {
		return &DemandColoring{NumColors: 0, Runs: emptyRuns(r, c)}, nil
	}
	numColors := 2*delta - 1

	// Every cell with demand takes at least one run; the backing grows past
	// this estimate only for fragmented cells.
	nonzero := 0
	for _, row := range demand {
		for _, d := range row {
			if d > 0 {
				nonzero++
			}
		}
	}
	free := newFreeSets(r+c, numColors) // rows 0..r-1, columns r..r+c-1
	dc := pooledColoring(r, nonzero+nonzero/2)
	backing, cells := dc.backing, dc.cells
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			need := demand[i][j]
			if need == 0 {
				continue
			}
			from := len(backing)
			var err error
			backing, err = takeCommon(&free[i], &free[r+j], need, backing)
			if err != nil {
				return nil, fmt.Errorf("bipartite: greedy coloring cell (%d,%d): %w", i, j, err)
			}
			cells[i*c+j] = backing[from:]
		}
	}
	// backing may have moved while growing: re-slice every cell's runs from
	// its final array (cells only kept their lengths valid).
	off := 0
	for k, cell := range cells {
		if len(cell) > 0 {
			cells[k] = backing[off : off+len(cell) : off+len(cell)]
			off += len(cell)
		}
	}
	dc.backing = backing
	for i := range dc.Runs {
		dc.Runs[i] = cells[i*c : (i+1)*c : (i+1)*c]
	}
	dc.NumColors = numColors
	return dc, nil
}

func emptyRuns(r, c int) [][][]ColorRun {
	runs := make([][][]ColorRun, r)
	for i := range runs {
		runs[i] = make([][]ColorRun, c)
	}
	return runs
}

// freeSetCap is the interval capacity a free set starts with; a set that
// fragments further moves to a window twice as large at the pool's end.
const freeSetCap = 4

// freeSet is an ordered list of disjoint free color intervals: a window
// pool[off : off+n] (capacity size) of the interval pool all free sets of
// one coloring share, so a coloring allocates its free lists once instead
// of once per row, column and removal.
type freeSet struct {
	pool         *[]ColorRun
	off, n, size int
}

// newFreeSets returns count free sets, each holding the single interval
// [0, numColors), carved from one pool.
func newFreeSets(count, numColors int) []freeSet {
	pool := make([]ColorRun, count*freeSetCap, 2*count*freeSetCap)
	shared := &pool
	sets := make([]freeSet, count)
	for i := range sets {
		pool[i*freeSetCap] = ColorRun{Start: 0, Len: numColors}
		sets[i] = freeSet{pool: shared, off: i * freeSetCap, n: 1, size: freeSetCap}
	}
	return sets
}

// intervals is the set's current interval list, valid until its next
// remove.
func (f *freeSet) intervals() []ColorRun {
	return (*f.pool)[f.off : f.off+f.n]
}

// takeCommon removes `need` colors present in both free sets, appends them
// as runs to out and returns it. The greedy bound guarantees enough common
// colors exist as long as both sets stem from a matrix with degree at most
// Δ and 2Δ-1 colors.
func takeCommon(a, b *freeSet, need int, out []ColorRun) ([]ColorRun, error) {
	ai, bi := 0, 0
	for need > 0 && ai < a.n && bi < b.n {
		ra, rb := a.intervals()[ai], b.intervals()[bi]
		lo := ra.Start
		if rb.Start > lo {
			lo = rb.Start
		}
		hiA := ra.Start + ra.Len
		hiB := rb.Start + rb.Len
		hi := hiA
		if hiB < hi {
			hi = hiB
		}
		if lo >= hi {
			if hiA <= hiB {
				ai++
			} else {
				bi++
			}
			continue
		}
		take := hi - lo
		if take > need {
			take = need
		}
		out = append(out, ColorRun{Start: lo, Len: take})
		need -= take
		a.remove(lo, take)
		b.remove(lo, take)
		// Removal may have shifted interval indices; restart the scan from the
		// beginning of whichever list is shorter. The lists stay short (a few
		// fragments), so this does not change the asymptotics.
		ai, bi = 0, 0
	}
	if need > 0 {
		return out, fmt.Errorf("ran out of common free colors (still need %d)", need)
	}
	return out, nil
}

// remove deletes the color range [start, start+length) from the free set,
// in place: every interval yields at most one remainder, except the one
// interval that strictly contains the range, which splits in two.
func (f *freeSet) remove(start, length int) {
	end := start + length
	iv := f.intervals()
	w := 0
	for r, cur := range iv {
		curEnd := cur.Start + cur.Len
		switch {
		case curEnd <= start || cur.Start >= end:
			iv[w] = cur
			w++
		case cur.Start < start && curEnd > end:
			// No other interval meets the range, so w == r here.
			iv[r].Len = start - cur.Start
			f.insert(r+1, ColorRun{Start: end, Len: curEnd - end})
			return
		case cur.Start < start:
			iv[w] = ColorRun{Start: cur.Start, Len: start - cur.Start}
			w++
		case curEnd > end:
			iv[w] = ColorRun{Start: end, Len: curEnd - end}
			w++
		}
	}
	f.n = w
}

// insert puts run at interval index at, moving the set to a window twice as
// large at the end of the pool when its own is full.
func (f *freeSet) insert(at int, run ColorRun) {
	if f.n == f.size {
		pool := *f.pool
		off := len(pool)
		pool = slices.Grow(pool, 2*f.size)[:off+2*f.size]
		copy(pool[off:], pool[f.off:f.off+f.n])
		*f.pool = pool
		f.off, f.size = off, 2*f.size
	}
	iv := (*f.pool)[f.off : f.off+f.n+1]
	copy(iv[at+1:], iv[at:f.n])
	iv[at] = run
	f.n++
}

package radio

import (
	"math"

	"qma/internal/frame"
)

// GridID is the id width a Grid stores: frame.NodeID for one medium's
// nodes, int32 for indices past frame.NodeID's 32,767 (a whole city).
type GridID interface{ frame.NodeID | int32 }

// Grid is the uniform spatial index behind every range query: it answers
// "which ids lie within the radius of this one" by scanning only the cells a
// disk of that radius can intersect, so enumerating all N nodes' neighbours
// costs O(N + E) instead of O(N²).
//
// The grid covers the positions' bounding box at construction. cells[c]
// holds the ids stored in cell c (any order), a full-capacity view into one
// backing array, so move relocates a node in O(cell occupancy) and an insert
// past a cell's capacity reallocates only that cell. Nodes that moved
// outside the box live in outside, which every query also scans (empty
// unless something moved). reach is the number of neighbouring cells (per
// axis, each direction) a query visits: 1 when the cell edge is >= radius,
// more when the edge was floored to keep the cell count O(N).
type Grid[ID GridID] struct {
	pos    []Position
	radius float64

	minX, minY float64
	cell       float64
	nx, ny     int
	reach      int
	cells      [][]ID
	outside    []ID
}

// NewGrid indexes pos (shared, not copied; move writes to it) for queries
// of the given radius, which may be +Inf. Cell-size heuristic: the cell edge
// equals the radius, so a query visits only the 3×3 block around the
// source, floored just enough that the grid never exceeds ~4·N cells when
// the radius is small relative to the area; in that regime a query widens
// to the (2·reach+1)² block instead.
func NewGrid[ID GridID](pos []Position, radius float64) *Grid[ID] {
	g := &Grid[ID]{pos: pos, radius: radius}
	n := len(pos)
	if n == 0 {
		g.cell, g.nx, g.ny, g.reach = 1, 1, 1, 1
		g.cells = make([][]ID, 1)
		return g
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pos {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	w, h := maxX-minX, maxY-minY
	cell := radius
	if math.IsInf(cell, 1) {
		cell = math.Max(math.Max(w, h), 1)
	}
	if floor := math.Sqrt(w * h / (4 * float64(n))); cell < floor {
		cell = floor
	}
	g.minX, g.minY, g.cell = minX, minY, cell
	g.nx = int(w/cell) + 1
	g.ny = int(h/cell) + 1
	if math.IsInf(radius, 1) {
		g.reach = g.nx + g.ny // covers the whole grid
	} else {
		g.reach = max(1, int(math.Ceil(radius/cell)))
	}
	// Counting sort into one backing array, then one view per cell: next[c]
	// counts cell c's nodes, then holds its start and, after the fill, its
	// end. Construction-time positions always bin in-grid: nx and ny derive
	// from the same division.
	next := make([]int32, g.nx*g.ny)
	for _, p := range pos {
		c, _ := g.storageCell(p)
		next[c]++
	}
	sum := int32(0)
	for c, cnt := range next {
		next[c], sum = sum, sum+cnt
	}
	arr := make([]ID, n)
	for id, p := range pos {
		c, _ := g.storageCell(p)
		arr[next[c]] = ID(id)
		next[c]++
	}
	g.cells = rowViews(arr, next)
	return g
}

// AppendNear appends to buf, in no particular order, every id other than
// src whose position lies within the radius of src's, and returns the
// extended slice. The query centres on src's unclamped cell coordinates (a
// mover may sit outside the original bounding box) and also scans the
// out-of-grid list. The grid holds no scratch of its own, so concurrent
// queries are safe as long as each caller owns its buffer.
func (g *Grid[ID]) AppendNear(src ID, buf []ID) []ID {
	p := g.pos[src]
	cx := cellCoord((p.X-g.minX)/g.cell, g.nx, g.reach)
	cy := cellCoord((p.Y-g.minY)/g.cell, g.ny, g.reach)
	for y := max(0, cy-g.reach); y <= min(g.ny-1, cy+g.reach); y++ {
		for x := max(0, cx-g.reach); x <= min(g.nx-1, cx+g.reach); x++ {
			buf = g.appendWithin(p, src, g.cells[y*g.nx+x], buf)
		}
	}
	return g.appendWithin(p, src, g.outside, buf)
}

// appendWithin appends the ids of cell other than src within the radius of p.
func (g *Grid[ID]) appendWithin(p Position, src ID, cell []ID, buf []ID) []ID {
	for _, id := range cell {
		if id != src && p.Distance(g.pos[id]) <= g.radius {
			buf = append(buf, id)
		}
	}
	return buf
}

// move sets id's position to p and relocates it in the index (O(cell
// occupancy)).
func (g *Grid[ID]) move(id ID, p Position) {
	if c, ok := g.storageCell(g.pos[id]); ok {
		g.cells[c] = removeID(g.cells[c], id)
	} else {
		g.outside = removeID(g.outside, id)
	}
	g.pos[id] = p
	if c, ok := g.storageCell(p); ok {
		g.cells[c] = append(g.cells[c], id)
	} else {
		g.outside = append(g.outside, id)
	}
}

// cellCoord converts a fractional cell coordinate to an int, clamped just
// outside the queryable range so far-away positions cannot overflow int
// conversion; reach-sized margins keep the grid intersection exact.
func cellCoord(v float64, n, reach int) int {
	lo, hi := float64(-reach-1), float64(n+reach)
	return int(math.Floor(min(max(v, lo), hi)))
}

// storageCell maps a position to the cell it is stored in, or reports
// false for positions outside the grid (such nodes live in the out-of-grid
// list). The binning must stay strict: a position past the last column/row
// may NOT be clamped into it, because AppendNear's query window assumes
// every stored node lies inside its cell's true extent — clamping would
// park a mover up to a full cell away from where queries look and silently
// lose links.
func (g *Grid[ID]) storageCell(p Position) (int, bool) {
	if p.X < g.minX || p.Y < g.minY {
		return 0, false
	}
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	if cx >= g.nx || cy >= g.ny {
		return 0, false
	}
	return cy*g.nx + cx, true
}

// removeID deletes the first occurrence of id (order is not preserved;
// queries do not promise one).
func removeID[ID GridID](s []ID, id ID) []ID {
	for i, x := range s {
		if x == id {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

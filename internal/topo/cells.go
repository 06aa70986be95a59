package topo

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sort"

	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/sim"
)

// This file is the multi-cell mMTC partitioner: a city-scale area split into
// a grid of cells, one sink per cell, BFS routing confined per cell, and the
// enumerated boundary-interference links a sharded medium mirrors across
// cell edges. It exists because the monolithic path tops out twice — the
// medium is one kernel on one core, and frame.NodeID is 16-bit, so a single
// cell can never exceed 32767 nodes. Cells re-base node identity: every cell
// gets its own dense local id space (sink = 0), and the global picture uses
// plain ints.

// CityConfig parameterizes NewCity.
type CityConfig struct {
	// Nodes is the total device count including one sink per cell; required,
	// at least 2 per cell.
	Nodes int
	// CellsX and CellsY shape the cell grid (0 selects 1; negative is an error).
	CellsX, CellsY int
	// Degree is the target mean decode degree (default 10); the city area is
	// sized so a uniform deployment hits it on average, exactly like
	// FactoryHall.
	Degree float64
	// PathLoss configures the channel (zero value = DefaultPathLossConfig).
	// Per-link frozen shadowing is not supported: cross-cell links would need
	// a shadowing realization per global pair, which the per-cell topologies
	// cannot represent, so NewCity requires ShadowSigmaDB = 0.
	PathLoss radio.PathLossConfig
	// Seed draws the node placement; same seed, same city.
	Seed uint64
	// HotspotCell and HotspotFraction skew the device placement for
	// imbalanced-load experiments: when HotspotFraction > 0, that fraction of
	// the devices is drawn uniformly inside HotspotCell's rectangle instead
	// of the whole city, so one cell carries a multiple of the average load.
	// The zero value changes nothing — not even the rng stream — so existing
	// seeds keep producing byte-identical cities.
	HotspotCell     int
	HotspotFraction float64
}

// withDefaults resolves the zero-valued knobs to their documented defaults.
func (cfg CityConfig) withDefaults() CityConfig {
	cfg.CellsX, cfg.CellsY = cmp.Or(cfg.CellsX, 1), cmp.Or(cfg.CellsY, 1)
	cfg.Degree = cmp.Or(cfg.Degree, 10)
	cfg.PathLoss = cmp.Or(cfg.PathLoss, radio.DefaultPathLossConfig())
	return cfg
}

// Validate reports the first configuration problem, or nil. BuildCity
// returns its error; the public qma facade returns it before building. It
// bounds only the average cell load against the 16-bit local id space:
// uniform placement can still overfill one cell, which BuildCity reports
// once the nodes are placed.
func (cfg *CityConfig) Validate() error {
	c := cfg.withDefaults()
	cells := c.CellsX * c.CellsY
	switch {
	case c.CellsX < 1 || c.CellsY < 1:
		return fmt.Errorf("topo: City cell grid %dx%d must be at least 1x1", c.CellsX, c.CellsY)
	case c.Nodes < 2*cells:
		return fmt.Errorf("topo: City Nodes=%d too small for %dx%d cells (need >= 2 per cell)", c.Nodes, c.CellsX, c.CellsY)
	case c.Nodes/cells > math.MaxInt16:
		return fmt.Errorf("topo: %d nodes per cell exceeds the 16-bit per-cell address space; use more cells", c.Nodes/cells)
	case !(c.Degree > 0) || math.IsInf(c.Degree, 1):
		return fmt.Errorf("topo: City Degree %g must be positive and finite (0 selects 10)", cfg.Degree)
	case c.PathLoss.ShadowSigmaDB != 0:
		return errors.New("topo: City requires PathLoss.ShadowSigmaDB = 0 (cross-cell shadowing is undefined)")
	case !(c.PathLoss.PathLossExponent > 0):
		return errors.New("topo: City requires a positive PathLossExponent")
	case !(c.HotspotFraction >= 0 && c.HotspotFraction < 1):
		return fmt.Errorf("topo: City HotspotFraction must be in [0,1), got %g", c.HotspotFraction)
	case c.HotspotFraction > 0 && (c.HotspotCell < 0 || c.HotspotCell >= cells):
		return fmt.Errorf("topo: City HotspotCell %d out of range for %d cells", c.HotspotCell, cells)
	}
	return nil
}

// BoundaryTarget is the far end of one boundary-interference link: a node
// (by local id) in another cell that senses the source's transmissions.
type BoundaryTarget struct {
	Cell int32
	Node frame.NodeID
}

// City is a cell-partitioned deployment: Cells[c] is a self-contained
// Network (local ids, sink 0 at the cell center, min-hop BFS routing
// confined to the cell), and the boundary link CSR lists, for every node,
// the nodes of other cells close enough to sense its transmissions. The
// sharded runner mirrors edge transmissions along exactly these links.
type City struct {
	// Config echoes the (normalized) construction parameters.
	Config CityConfig
	// Width and Height are the city extent in meters; CellW/CellH one cell's.
	Width, Height float64
	CellW, CellH  float64
	// SenseRange is the cross-cell interference radius in meters: the largest
	// distance at which the path-loss law still clears the energy-detection
	// threshold (sensitivity + CCA margin) — the same predicate the
	// single-medium sense links are built from.
	SenseRange float64
	// Cells holds one Network per cell, row-major (cell = y*CellsX + x).
	Cells []*Network

	// edgeOff/edgeDst are per-cell CSR rows over local source ids: cell c's
	// node s has boundary targets edgeDst[c][edgeOff[c][s]:edgeOff[c][s+1]].
	edgeOff [][]int32
	edgeDst [][]BoundaryTarget
	// neighbors[c] lists, ascending, the cells that share at least one
	// boundary link with c. Links are symmetric (the sense predicate is a
	// distance threshold), so this is both "who c disturbs" and "who
	// disturbs c".
	neighbors [][]int32
	// boundary is the total boundary link count.
	boundary int
}

// NumCells reports the cell count.
func (c *City) NumCells() int { return len(c.Cells) }

// NumNodes reports the total node count including the per-cell sinks.
func (c *City) NumNodes() int { return c.Config.Nodes }

// BoundaryLinks reports the total number of directed cross-cell
// interference links.
func (c *City) BoundaryLinks() int { return c.boundary }

// EdgeTargets lists the cross-cell nodes that sense transmissions by the
// given cell-local source (empty for interior nodes). The returned slice is
// shared — callers must not mutate it.
func (c *City) EdgeTargets(cell int, src frame.NodeID) []BoundaryTarget {
	off := c.edgeOff[cell]
	return c.edgeDst[cell][off[src]:off[src+1]]
}

// NeighborCells lists, in ascending order, the cells that share at least one
// boundary-interference link with the given cell — the exact dependency set
// a scheduler must respect, since only these cells exchange busy windows
// with it. The relation is symmetric. The returned slice is shared — callers
// must not mutate it.
func (c *City) NeighborCells(cell int) []int32 {
	return c.neighbors[cell]
}

// EdgeNodes reports how many of cell's nodes have at least one boundary
// target.
func (c *City) EdgeNodes(cell int) int {
	off := c.edgeOff[cell]
	n := 0
	for s := 0; s+1 < len(off); s++ {
		if off[s+1] > off[s] {
			n++
		}
	}
	return n
}

// senseRange computes the largest distance at which CanSense holds under
// the log-distance law (no shadowing), mirroring PathLossTopology's
// thresholds: rssi = Tx − RefLoss − 10·exp·log10(d) ≥ Sensitivity + CCAMargin.
func senseRange(cfg radio.PathLossConfig) float64 {
	budget := cfg.TxPowerDBm - cfg.ReferenceLossDB - (cfg.SensitivityDBm + cfg.CCAMarginDB)
	d := math.Pow(10, budget/(10*cfg.PathLossExponent))
	// Same clamp-and-inflate as the topology's rangeBound: distances below
	// 0.1 m are clamped by the RSSI law, and the tiny inflation keeps nodes
	// sitting exactly on the threshold circle inside the range.
	return math.Max(d, 0.1) * (1 + 1e-9)
}

// NewCity builds the cell-partitioned deployment. Construction is
// O(N + E + B) — uniform placement over the city rectangle, per-cell
// PathLossTopology + BFS (the FactoryHall construction per cell), and a
// uniform-grid sweep for the boundary links — so million-node cities build
// in seconds. It panics on configuration errors: unsupported shadowing, too
// few nodes, or a cell exceeding the 16-bit local id space (use more cells).
func NewCity(cfg CityConfig) *City {
	c, err := BuildCity(cfg)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// BuildCity is NewCity returning configuration errors instead of panicking.
// Callers taking untrusted input need it because no check on the average
// load can rule out a cell that uniform placement overfilled past the 16-bit
// local id space.
func BuildCity(cfg CityConfig) (*City, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cells := cfg.CellsX * cfg.CellsY

	// Area from the decode range and the target degree, exactly like
	// FactoryHall; square cells tile it.
	budget := cfg.PathLoss.TxPowerDBm - cfg.PathLoss.ReferenceLossDB - cfg.PathLoss.SensitivityDBm
	r := math.Pow(10, budget/(10*cfg.PathLoss.PathLossExponent))
	area := math.Pi * r * r * float64(cfg.Nodes) / cfg.Degree
	cellSide := math.Sqrt(area / float64(cells))
	c := &City{
		Config: cfg,
		Width:  cellSide * float64(cfg.CellsX),
		Height: cellSide * float64(cfg.CellsY),
		CellW:  cellSide,
		CellH:  cellSide,
		Cells:  make([]*Network, cells),
	}
	c.SenseRange = senseRange(cfg.PathLoss)

	// Place the device nodes uniformly over the whole city (the same rng
	// stream FactoryHall draws placements from) and bucket them by cell.
	// Local ids are assigned in draw order behind the cell sink, so the
	// layout is deterministic: same seed, same city.
	devices := cfg.Nodes - cells
	rng := sim.NewRandStream(cfg.Seed, 7001)
	cellPos := make([][]radio.Position, cells)
	for cell := 0; cell < cells; cell++ {
		cx, cy := cell%cfg.CellsX, cell/cfg.CellsX
		cellPos[cell] = append(cellPos[cell], radio.Position{
			X: (float64(cx) + 0.5) * c.CellW,
			Y: (float64(cy) + 0.5) * c.CellH,
		})
	}
	// global[i] locates device i (and, first, each sink) for the boundary
	// sweep: position plus (cell, local) identity.
	global := make([]placed, 0, cfg.Nodes)
	for cell := 0; cell < cells; cell++ {
		global = append(global, placed{cellPos[cell][0], int32(cell), 0})
	}
	for i := 0; i < devices; i++ {
		var p radio.Position
		if cfg.HotspotFraction > 0 && rng.Float64() < cfg.HotspotFraction {
			// Hotspot draw: uniform inside the hotspot cell's rectangle. The
			// gating draw only happens when the feature is on, so fraction 0
			// consumes the stream exactly like before.
			hx, hy := cfg.HotspotCell%cfg.CellsX, cfg.HotspotCell/cfg.CellsX
			p = radio.Position{
				X: (float64(hx) + rng.Float64()) * c.CellW,
				Y: (float64(hy) + rng.Float64()) * c.CellH,
			}
		} else {
			p = radio.Position{X: rng.Float64() * c.Width, Y: rng.Float64() * c.Height}
		}
		cx := min(int(p.X/c.CellW), cfg.CellsX-1)
		cy := min(int(p.Y/c.CellH), cfg.CellsY-1)
		cell := cy*cfg.CellsX + cx
		global = append(global, placed{p, int32(cell), int32(len(cellPos[cell]))})
		cellPos[cell] = append(cellPos[cell], p)
	}

	for cell := 0; cell < cells; cell++ {
		n := len(cellPos[cell])
		if n > math.MaxInt16 {
			return nil, fmt.Errorf("topo: City cell %d holds %d nodes but local ids are 16-bit; use more cells", cell, n)
		}
		pt := radio.NewPathLossTopology(cfg.PathLoss, cellPos[cell])
		c.Cells[cell] = &Network{
			Name:      fmt.Sprintf("city-%d-cell-%d", cfg.Nodes, cell),
			Topology:  pt,
			Sink:      0,
			Parent:    bfsTree(pt, n),
			Positions: cellPos[cell],
		}
	}

	c.buildBoundary(global)
	return c, nil
}

// placed locates one node for the boundary sweep: position plus its
// (cell, local) identity in the partition.
type placed struct {
	pos   radio.Position
	cell  int32
	local int32
}

// buildBoundary enumerates the directed cross-cell sense links with a
// uniform grid over the whole city keyed by global (int) indices — the
// per-cell topologies cannot answer cross-cell queries, and a city-wide
// PathLossTopology cannot exist above 32767 nodes. A directed link src→dst
// exists iff the two nodes live in different cells and their distance is
// within SenseRange; distance is symmetric, so every link has its reverse.
func (c *City) buildBoundary(global []placed) {
	cells := len(c.Cells)
	n := len(global)
	bin := c.SenseRange
	// Floor the bin edge so the grid never exceeds ~4N bins (tiny ranges),
	// widening the scan reach instead — the same trade PathLossTopology's
	// grid makes.
	if floor := math.Sqrt(c.Width * c.Height / (4 * float64(n))); bin < floor {
		bin = floor
	}
	reach := int(math.Ceil(c.SenseRange / bin))
	nx := int(c.Width/bin) + 1
	ny := int(c.Height/bin) + 1
	binOf := func(p radio.Position) (int, int) {
		bx := min(int(p.X/bin), nx-1)
		by := min(int(p.Y/bin), ny-1)
		return bx, by
	}
	// Counting-sort the nodes into bin CSR.
	binOff := make([]int32, nx*ny+1)
	for i := range global {
		bx, by := binOf(global[i].pos)
		binOff[by*nx+bx+1]++
	}
	for b := 0; b < nx*ny; b++ {
		binOff[b+1] += binOff[b]
	}
	binNodes := make([]int32, n)
	next := make([]int32, nx*ny)
	for i := range global {
		bx, by := binOf(global[i].pos)
		b := by*nx + bx
		binNodes[binOff[b]+next[b]] = int32(i)
		next[b]++
	}

	type link struct {
		src frame.NodeID
		dst BoundaryTarget
	}
	perCell := make([][]link, cells)
	for i := range global {
		u := &global[i]
		bx, by := binOf(u.pos)
		for dy := -reach; dy <= reach; dy++ {
			y := by + dy
			if y < 0 || y >= ny {
				continue
			}
			for dx := -reach; dx <= reach; dx++ {
				x := bx + dx
				if x < 0 || x >= nx {
					continue
				}
				b := y*nx + x
				for _, j := range binNodes[binOff[b]:binOff[b+1]] {
					v := &global[j]
					if v.cell == u.cell {
						continue
					}
					if u.pos.Distance(v.pos) > c.SenseRange {
						continue
					}
					perCell[u.cell] = append(perCell[u.cell], link{
						src: frame.NodeID(u.local),
						dst: BoundaryTarget{Cell: v.cell, Node: frame.NodeID(v.local)},
					})
				}
			}
		}
	}

	c.edgeOff = make([][]int32, cells)
	c.edgeDst = make([][]BoundaryTarget, cells)
	for cell := 0; cell < cells; cell++ {
		links := perCell[cell]
		sort.Slice(links, func(a, b int) bool {
			if links[a].src != links[b].src {
				return links[a].src < links[b].src
			}
			if links[a].dst.Cell != links[b].dst.Cell {
				return links[a].dst.Cell < links[b].dst.Cell
			}
			return links[a].dst.Node < links[b].dst.Node
		})
		nLocal := c.Cells[cell].NumNodes()
		off := make([]int32, nLocal+1)
		dst := make([]BoundaryTarget, len(links))
		for i, l := range links {
			off[l.src+1]++
			dst[i] = l.dst
		}
		for s := 0; s < nLocal; s++ {
			off[s+1] += off[s]
		}
		c.edgeOff[cell] = off
		c.edgeDst[cell] = dst
		c.boundary += len(links)
	}

	// Derive the cell adjacency from the links themselves rather than grid
	// geometry: a wide sense range can reach past the 8 surrounding grid
	// cells, and the scheduler must see every cell it actually exchanges
	// interference with.
	c.neighbors = make([][]int32, cells)
	seen := make([]bool, cells)
	for cell := 0; cell < cells; cell++ {
		for i := range seen {
			seen[i] = false
		}
		var ns []int32
		for _, dst := range c.edgeDst[cell] {
			if !seen[dst.Cell] {
				seen[dst.Cell] = true
				ns = append(ns, dst.Cell)
			}
		}
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		c.neighbors[cell] = ns
	}
}

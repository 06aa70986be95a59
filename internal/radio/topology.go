// Package radio simulates the wireless medium: who hears whom, receiver-side
// collisions, half-duplex constraints, clear channel assessment and
// probabilistic link loss. It provides two connectivity models — an explicit
// graph (used for the hidden-node scenarios, where the paper defines
// connectivity directly) and a log-distance path-loss model (our substitute
// for the FIT IoT-LAB testbed channel).
package radio

import (
	"math"
	"slices"

	"qma/internal/frame"
)

// Topology answers connectivity questions for a fixed set of nodes,
// identified by dense ids [0, NumNodes). Both built-in topologies
// (GraphTopology, PathLossTopology) implement every method; topologies are
// stateless under queries, so one instance may be shared by the goroutines
// of the parallel replication engine.
type Topology interface {
	// NumNodes reports how many nodes exist.
	NumNodes() int
	// CanDecode reports whether dst can receive (and is interfered by)
	// transmissions from src, absent collisions.
	CanDecode(src, dst frame.NodeID) bool
	// CanSense reports whether a CCA at dst detects a transmission by src.
	// Sensing range is never larger than decode range in this model
	// (energy-detection thresholds sit above receiver sensitivity).
	CanSense(src, dst frame.NodeID) bool
	// DeliveryProb is the probability a collision-free frame from src is
	// decoded by dst (models fading; 1 for ideal links).
	DeliveryProb(src, dst frame.NodeID) float64
	// AppendLinks appends every dst (ascending, src excluded) for which
	// CanDecode(src, dst) or CanSense(src, dst) may hold to buf and returns
	// the extended slice, so the Medium enumerates a node's links directly
	// instead of probing all N² ordered pairs — which keeps its construction
	// (and memory) O(N + E). Consumers filter the candidates through the
	// exact predicates, so a superset is permitted. The buffer is
	// caller-owned (callers pass buf[:0] to reuse it across nodes).
	AppendLinks(src frame.NodeID, buf []frame.NodeID) []frame.NodeID
	// ClassifyLink evaluates both link predicates in one call, agreeing
	// exactly with CanDecode/CanSense, so the Medium's link build pays one
	// link computation per candidate pair instead of two.
	ClassifyLink(src, dst frame.NodeID) (decode, sense bool)
	// LinkSignal backs per-transmission power and SINR capture. It reports,
	// for the directed link src→dst, the received power of a reference-power
	// transmission (dBm, or any scale consistent across the topology —
	// capture only compares powers and their ratios) together with the dB
	// margins the link keeps over the decode and sense thresholds: a
	// transmission power-reduced by delta dB below the reference still
	// decodes (is sensed) at dst iff delta <= decodeMarginDB
	// (senseMarginDB). The margins agree with CanDecode/CanSense at delta 0,
	// self-links included: src == dst reports −Inf throughout. Topologies
	// without an inherent power notion (GraphTopology) report equal received
	// powers and unbounded margins, so reducing power never breaks a graph
	// link and equal-power frames never capture.
	LinkSignal(src, dst frame.NodeID) (rxPowerDBm, decodeMarginDB, senseMarginDB float64)
}

// GraphTopology is an explicit connectivity graph: node i hears exactly the
// nodes in its adjacency set. Decode and sense sets coincide and links are
// lossless unless LossProb is set. Adjacency is stored as per-node sorted
// slices (not hash sets), so neighbor enumeration is allocation-free and
// deterministic.
type GraphTopology struct {
	n   int
	adj [][]frame.NodeID
	// LossProb is an optional independent per-frame loss probability applied
	// to every link (0 = ideal).
	LossProb float64
}

var _ Topology = (*GraphTopology)(nil)

// NewGraphTopology returns a graph over n nodes with no edges.
func NewGraphTopology(n int) *GraphTopology {
	return &GraphTopology{n: n, adj: make([][]frame.NodeID, n)}
}

// AddLink adds a bidirectional edge between a and b.
func (g *GraphTopology) AddLink(a, b frame.NodeID) {
	if a == b {
		return
	}
	g.insert(a, b)
	g.insert(b, a)
}

// insert adds dst to src's sorted adjacency slice (no-op when present).
func (g *GraphTopology) insert(src, dst frame.NodeID) {
	i, found := slices.BinarySearch(g.adj[src], dst)
	if found {
		return
	}
	g.adj[src] = slices.Insert(g.adj[src], i, dst)
}

// NumNodes implements Topology.
func (g *GraphTopology) NumNodes() int { return g.n }

// CanDecode implements Topology.
func (g *GraphTopology) CanDecode(src, dst frame.NodeID) bool {
	if src == dst {
		return false
	}
	_, found := slices.BinarySearch(g.adj[src], dst)
	return found
}

// CanSense implements Topology.
func (g *GraphTopology) CanSense(src, dst frame.NodeID) bool {
	return g.CanDecode(src, dst)
}

// DeliveryProb implements Topology.
func (g *GraphTopology) DeliveryProb(src, dst frame.NodeID) float64 {
	return 1 - g.LossProb
}

// Neighbors returns the adjacency list of id in ascending order. The slice
// is the topology's own storage — callers must not mutate it; it remains
// valid until the next AddLink touching id.
func (g *GraphTopology) Neighbors(id frame.NodeID) []frame.NodeID {
	return g.adj[id]
}

// AppendLinks implements Topology (decode and sense sets coincide).
func (g *GraphTopology) AppendLinks(src frame.NodeID, buf []frame.NodeID) []frame.NodeID {
	return append(buf, g.adj[src]...)
}

// ClassifyLink implements Topology with a single adjacency lookup.
func (g *GraphTopology) ClassifyLink(src, dst frame.NodeID) (decode, sense bool) {
	d := g.CanDecode(src, dst)
	return d, d
}

// LinkSignal implements Topology. Graph links carry no path-loss notion:
// every link delivers the transmit power unattenuated (0 dB reference), so
// two same-power frames always tie (no capture) and deliberate power deltas
// translate 1:1 into receiver-side power gaps. Margins are unbounded —
// reducing power never severs an explicit graph link.
func (g *GraphTopology) LinkSignal(src, dst frame.NodeID) (rxPowerDBm, decodeMarginDB, senseMarginDB float64) {
	if !g.CanDecode(src, dst) {
		return math.Inf(-1), math.Inf(-1), math.Inf(-1)
	}
	return 0, math.Inf(1), math.Inf(1)
}

// Position is a planar node coordinate in meters.
type Position struct{ X, Y float64 }

// Distance returns the Euclidean distance to q.
func (p Position) Distance(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// PathLossConfig parameterizes the log-distance channel used as the testbed
// substitute. Defaults (via DefaultPathLossConfig) follow the paper's
// Strasbourg settings: TX power −9 dBm / sensitivity −72 dBm for the tree,
// 3 dBm / −90 dBm for the star.
type PathLossConfig struct {
	// TxPowerDBm is the transmit power.
	TxPowerDBm float64
	// SensitivityDBm is the weakest decodable signal.
	SensitivityDBm float64
	// CCAMarginDB raises the energy-detection threshold above sensitivity
	// (802.15.4 allows up to 10 dB).
	CCAMarginDB float64
	// PathLossExponent is the log-distance exponent (2 free space, ~3 indoor).
	PathLossExponent float64
	// ReferenceLossDB is the loss at 1 m (≈40 dB at 2.4 GHz).
	ReferenceLossDB float64
	// ShadowSigmaDB is the per-link log-normal shadowing deviation; the
	// shadowing realization is fixed per link (frozen channel) and drawn
	// from ShadowSeed so topologies are reproducible.
	ShadowSigmaDB float64
	ShadowSeed    uint64
	// FadingLossProb is an independent per-frame loss probability on
	// decodable links (fast fading residual).
	FadingLossProb float64
}

// DefaultPathLossConfig returns an indoor-testbed-like parameterization.
func DefaultPathLossConfig() PathLossConfig {
	return PathLossConfig{
		TxPowerDBm:       -9,
		SensitivityDBm:   -72,
		CCAMarginDB:      10,
		PathLossExponent: 3.0,
		ReferenceLossDB:  40,
		ShadowSigmaDB:    0,
		FadingLossProb:   0,
	}
}

// maxShadowGainDB bounds |shadow| for any link: Box–Muller with
// u1 >= 0.5/2³² and |cos| <= 1 yields at most sqrt(-2·ln(0.5/2³²)) ≈ 6.764
// standard deviations, so link budgets (and therefore neighbor ranges) stay
// finite even with shadowing enabled.
var maxShadowGainDB = math.Sqrt(-2 * math.Log(0.5/(1<<32)))

// PathLossTopology derives connectivity from node positions and a
// log-distance path-loss law with optional frozen shadowing.
//
// Memory is O(N): RSSI is a pure function of the two positions (plus the
// frozen per-pair shadowing draw) and is computed on demand instead of being
// materialized as an N×N matrix. Neighbor enumeration uses a uniform spatial
// grid over the positions — a range-bounded cell query — so building a
// Medium over the topology costs O(N + E) instead of O(N²).
type PathLossTopology struct {
	cfg PathLossConfig
	pos []Position

	// maxRange is the largest distance at which any link predicate can hold,
	// from the link budget plus the maximum shadowing gain.
	maxRange float64

	// Uniform grid over the construction-time bounding box: cells[c] holds
	// the ids stored in cell c (any order), a full-capacity view into one
	// backing array, so MoveNode relocates a node in O(cell occupancy) and
	// an insert past a cell's capacity reallocates only that cell. Nodes
	// that moved outside the box live in outside, which every query also
	// scans (empty in static scenarios). reach is the number of neighboring
	// cells (per axis, each direction) a range query must visit: 1 when the
	// cell edge is >= maxRange, more when the cell edge was floored to keep
	// the cell count O(N).
	minX, minY float64
	cell       float64
	nx, ny     int
	reach      int
	cells      [][]frame.NodeID
	outside    []frame.NodeID
}

var _ Topology = (*PathLossTopology)(nil)

// NewPathLossTopology indexes the given positions for neighbor queries.
// Unlike the original dense implementation it allocates O(N), not O(N²):
// a 10,000-node hall costs a few hundred kilobytes instead of 800 MB.
func NewPathLossTopology(cfg PathLossConfig, positions []Position) *PathLossTopology {
	t := &PathLossTopology{cfg: cfg, pos: positions}
	t.maxRange = t.rangeBound()
	t.buildGrid()
	return t
}

// rangeBound computes the largest distance at which CanDecode or CanSense
// can possibly hold. The weaker of the two thresholds bounds both (the CCA
// margin may in principle be negative), and the frozen shadowing draw is
// bounded by maxShadowGainDB standard deviations.
func (t *PathLossTopology) rangeBound() float64 {
	threshold := t.cfg.SensitivityDBm
	if m := t.cfg.SensitivityDBm + t.cfg.CCAMarginDB; m < threshold {
		threshold = m
	}
	budget := t.cfg.TxPowerDBm - t.cfg.ReferenceLossDB - threshold
	if t.cfg.ShadowSigmaDB != 0 {
		budget += math.Abs(t.cfg.ShadowSigmaDB) * maxShadowGainDB
	}
	if t.cfg.PathLossExponent <= 0 {
		return math.Inf(1)
	}
	d := math.Pow(10, budget/(10*t.cfg.PathLossExponent))
	// Distances are clamped to 0.1 m in rssi, so never query below that, and
	// inflate slightly so float rounding in Distance cannot drop a node that
	// sits exactly on the threshold circle.
	return math.Max(d, 0.1) * (1 + 1e-9)
}

// buildGrid sorts the nodes into a uniform grid. Cell-size heuristic: the
// cell edge equals maxRange (so a query visits only the 3×3 block around the
// source), floored just enough that the grid never exceeds ~4·N cells when
// the radio range is small relative to the deployment area; in that regime a
// query widens to the (2·reach+1)² block instead.
func (t *PathLossTopology) buildGrid() {
	n := len(t.pos)
	if n == 0 {
		t.cell, t.nx, t.ny, t.reach = 1, 1, 1, 1
		t.cells = make([][]frame.NodeID, 1)
		return
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range t.pos {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	w, h := maxX-minX, maxY-minY
	cell := t.maxRange
	if math.IsInf(cell, 1) {
		cell = math.Max(math.Max(w, h), 1)
	}
	// Floor the cell edge so nx*ny stays O(N) even when the range is tiny
	// relative to the area: at most ~4N cells.
	if floor := math.Sqrt(w * h / (4 * float64(n))); cell < floor {
		cell = floor
	}
	t.minX, t.minY, t.cell = minX, minY, cell
	t.nx = int(w/cell) + 1
	t.ny = int(h/cell) + 1
	if math.IsInf(t.maxRange, 1) {
		t.reach = t.nx + t.ny // covers the whole grid
	} else {
		t.reach = int(math.Ceil(t.maxRange / cell))
	}
	if t.reach < 1 {
		t.reach = 1
	}
	// Counting sort into one backing array, then one view per cell: next[c]
	// counts cell c's nodes, then holds its start and, after the fill, its
	// end. Construction-time positions always bin in-grid: nx and ny derive
	// from the same division.
	next := make([]int32, t.nx*t.ny)
	for _, p := range t.pos {
		c, _ := t.storageCell(p)
		next[c]++
	}
	sum := int32(0)
	for c, cnt := range next {
		next[c], sum = sum, sum+cnt
	}
	arr := make([]frame.NodeID, n)
	for id, p := range t.pos {
		c, _ := t.storageCell(p)
		arr[next[c]] = frame.NodeID(id)
		next[c]++
	}
	t.cells = rowViews(arr, next)
}

// AppendLinks implements Topology: all nodes within maxRange of src,
// appended to buf in ascending id order. It scans the grid cells that can
// intersect the range disk, centred on src's unclamped cell coordinates (a
// mover may sit outside the original bounding box), plus the out-of-grid
// list. The topology holds no scratch of its own, so concurrent calls
// (parallel replications sharing one topology) are safe as long as each
// caller owns its buffer.
func (t *PathLossTopology) AppendLinks(src frame.NodeID, buf []frame.NodeID) []frame.NodeID {
	out := buf
	start := len(out)
	p := t.pos[src]
	cx := cellCoord((p.X-t.minX)/t.cell, t.nx, t.reach)
	cy := cellCoord((p.Y-t.minY)/t.cell, t.ny, t.reach)
	for y := max(0, cy-t.reach); y <= min(t.ny-1, cy+t.reach); y++ {
		for x := max(0, cx-t.reach); x <= min(t.nx-1, cx+t.reach); x++ {
			for _, id := range t.cells[y*t.nx+x] {
				if id != src && p.Distance(t.pos[id]) <= t.maxRange {
					out = append(out, id)
				}
			}
		}
	}
	for _, id := range t.outside {
		if id != src && p.Distance(t.pos[id]) <= t.maxRange {
			out = append(out, id)
		}
	}
	slices.Sort(out[start:])
	return out
}

// cellCoord converts a fractional cell coordinate to an int, clamped just
// outside the queryable range so far-away positions cannot overflow int
// conversion; reach-sized margins keep the grid intersection exact.
func cellCoord(v float64, n, reach int) int {
	lo, hi := float64(-reach-1), float64(n+reach)
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return int(math.Floor(v))
}

// storageCell maps a position to the cell it is stored in, or reports
// false for positions outside the grid (such nodes live in the out-of-grid
// list). The binning must stay strict: a position past the last column/row
// may NOT be clamped into it, because AppendLinks' query window assumes
// every stored node lies inside its cell's true extent — clamping would
// park a mover up to a full cell away from where queries look and silently
// lose links.
func (t *PathLossTopology) storageCell(p Position) (int, bool) {
	if p.X < t.minX || p.Y < t.minY {
		return 0, false
	}
	cx := int((p.X - t.minX) / t.cell)
	cy := int((p.Y - t.minY) / t.cell)
	if cx >= t.nx || cy >= t.ny {
		return 0, false
	}
	return cy*t.nx + cx, true
}

// MoveNode updates id's position and its slot in the cell index
// (O(cell occupancy)). It does NOT touch any Medium built over the
// topology — callers go through Medium.MoveNode, which re-classifies the
// affected links incrementally. A moved topology must no longer be shared
// across goroutines, which is why scenario runners move nodes on a Clone.
func (t *PathLossTopology) MoveNode(id frame.NodeID, p Position) {
	if c, ok := t.storageCell(t.pos[id]); ok {
		t.cells[c] = removeID(t.cells[c], id)
	} else {
		t.outside = removeID(t.outside, id)
	}
	t.pos[id] = p
	if c, ok := t.storageCell(p); ok {
		t.cells[c] = append(t.cells[c], id)
	} else {
		t.outside = append(t.outside, id)
	}
}

// removeID deletes the first occurrence of id (order is not preserved; the
// enumeration sorts its output).
func removeID(s []frame.NodeID, id frame.NodeID) []frame.NodeID {
	for i, x := range s {
		if x == id {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// Clone returns an independent copy of the topology (positions and index)
// for runs that mutate node positions. The configuration is shared by
// value, and the clone's index is rebuilt over the current positions.
func (t *PathLossTopology) Clone() *PathLossTopology {
	return NewPathLossTopology(t.cfg, slices.Clone(t.pos))
}

// ClassifyLink implements Topology: one RSSI computation answers both
// predicates (identical comparisons to CanDecode/CanSense).
func (t *PathLossTopology) ClassifyLink(src, dst frame.NodeID) (decode, sense bool) {
	if src == dst {
		return false, false
	}
	rssi := t.RSSI(src, dst)
	return rssi >= t.cfg.SensitivityDBm, rssi >= t.cfg.SensitivityDBm+t.cfg.CCAMarginDB
}

// LinkSignal implements Topology: the received power is the on-demand
// RSSI at the configured (reference) TX power, and the margins are its
// headroom over the sensitivity and energy-detection thresholds. At delta 0
// the margin comparisons reduce to exactly CanDecode/CanSense; a self-link
// reports −Inf like every undecodable link.
func (t *PathLossTopology) LinkSignal(src, dst frame.NodeID) (rxPowerDBm, decodeMarginDB, senseMarginDB float64) {
	if src == dst {
		return math.Inf(-1), math.Inf(-1), math.Inf(-1)
	}
	rssi := t.RSSI(src, dst)
	return rssi, rssi - t.cfg.SensitivityDBm, rssi - (t.cfg.SensitivityDBm + t.cfg.CCAMarginDB)
}

func splitmixPair(seed, a, b uint64) uint64 {
	x := seed ^ (a * 0x9e3779b97f4a7c15) ^ (b * 0xbf58476d1ce4e5b9)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shadow is the frozen symmetric shadowing realization for the unordered
// pair (a, b), in dB.
func (t *PathLossTopology) shadow(a, b int) float64 {
	if t.cfg.ShadowSigmaDB == 0 {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	h := splitmixPair(t.cfg.ShadowSeed, uint64(a), uint64(b))
	// Convert two 32-bit halves to a normal via Box–Muller.
	u1 := (float64(h>>32) + 0.5) / (1 << 32)
	u2 := (float64(uint32(h)) + 0.5) / (1 << 32)
	return t.cfg.ShadowSigmaDB * math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NumNodes implements Topology.
func (t *PathLossTopology) NumNodes() int { return len(t.pos) }

// RSSI reports the received power at dst for a transmission by src, in dBm.
// It is computed on demand from the positions and the frozen shadowing draw
// (bit-identical to the former precomputed matrix).
func (t *PathLossTopology) RSSI(src, dst frame.NodeID) float64 {
	if src == dst {
		return math.Inf(1)
	}
	d := t.pos[src].Distance(t.pos[dst])
	if d < 0.1 {
		d = 0.1
	}
	pl := t.cfg.ReferenceLossDB + 10*t.cfg.PathLossExponent*math.Log10(d)
	return t.cfg.TxPowerDBm - pl + t.shadow(int(src), int(dst))
}

// CanDecode implements Topology.
func (t *PathLossTopology) CanDecode(src, dst frame.NodeID) bool {
	return src != dst && t.RSSI(src, dst) >= t.cfg.SensitivityDBm
}

// CanSense implements Topology.
func (t *PathLossTopology) CanSense(src, dst frame.NodeID) bool {
	return src != dst && t.RSSI(src, dst) >= t.cfg.SensitivityDBm+t.cfg.CCAMarginDB
}

// DeliveryProb implements Topology.
func (t *PathLossTopology) DeliveryProb(src, dst frame.NodeID) float64 {
	return 1 - t.cfg.FadingLossProb
}

// Positions returns the node coordinates (shared; callers must not mutate).
func (t *PathLossTopology) Positions() []Position { return t.pos }

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
	// DeliveryProb is the probability a collision-free frame from src is
	// decoded by dst (models fading; 1 for ideal links).
	DeliveryProb(src, dst frame.NodeID) float64
	// AppendLinks appends every dst (ascending, src excluded) that may
	// decode or sense src's transmissions to buf and returns the extended
	// slice, so the Medium enumerates a node's links directly instead of
	// probing all N² ordered pairs — which keeps its construction (and
	// memory) O(N + E). Consumers filter the candidates through LinkSignal,
	// so a superset is permitted. The buffer is caller-owned (callers pass
	// buf[:0] to reuse it across nodes).
	AppendLinks(src frame.NodeID, buf []frame.NodeID) []frame.NodeID
	// LinkSignal is the one link query. It reports, for the directed link
	// src→dst, the received power of a reference-power transmission (dBm,
	// or any scale consistent across the topology — capture only compares
	// powers and their ratios) together with the dB margins the link keeps
	// over the decode and sense thresholds: a transmission power-reduced by
	// delta dB below the reference still decodes (is sensed) at dst iff
	// delta <= decodeMarginDB (senseMarginDB), so at the reference power the
	// link decodes iff decodeMarginDB >= 0. Sensing range is never larger
	// than decode range in this model (energy-detection thresholds sit above
	// receiver sensitivity). A self-link reports −Inf throughout.
	// Topologies without an inherent power notion (GraphTopology) report
	// equal received powers and unbounded margins, so reducing power never
	// breaks a graph link and equal-power frames never capture.
	LinkSignal(src, dst frame.NodeID) (rxPowerDBm, decodeMarginDB, senseMarginDB float64)
}

// Decodes reports whether dst decodes src's reference-power transmissions,
// absent collisions: LinkSignal's decode margin is non-negative.
func Decodes(t Topology, src, dst frame.NodeID) bool {
	decode, _ := classify(t, src, dst)
	return decode
}

// classify reads both reference-power link predicates off one LinkSignal
// query: src→dst decodes iff the decode margin is non-negative, and is
// sensed iff the sense margin is.
func classify(t Topology, src, dst frame.NodeID) (decode, sense bool) {
	_, decodeMargin, senseMargin := t.LinkSignal(src, dst)
	return decodeMargin >= 0, senseMargin >= 0
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

// DeliveryProb implements Topology.
func (g *GraphTopology) DeliveryProb(src, dst frame.NodeID) float64 {
	return 1 - g.LossProb
}

// AppendLinks implements Topology (decode and sense sets coincide).
func (g *GraphTopology) AppendLinks(src frame.NodeID, buf []frame.NodeID) []frame.NodeID {
	return append(buf, g.adj[src]...)
}

// LinkSignal implements Topology with one adjacency lookup. Graph links
// carry no path-loss notion: every link delivers the transmit power
// unattenuated (0 dB reference), so two same-power frames always tie (no
// capture) and deliberate power deltas translate 1:1 into receiver-side
// power gaps. Margins are unbounded — reducing power never severs an
// explicit graph link.
func (g *GraphTopology) LinkSignal(src, dst frame.NodeID) (rxPowerDBm, decodeMarginDB, senseMarginDB float64) {
	if _, linked := slices.BinarySearch(g.adj[src], dst); !linked {
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

// Range is the distance at which the received power of a reference-power
// transmission, without shadowing, falls to thresholdDBm: the log-distance
// law rssi(d) = TxPower − ReferenceLoss − 10·PathLossExponent·log10(d)
// solved for d. It is the one inversion of the law; callers add their own
// clamps and margins around it.
func (c PathLossConfig) Range(thresholdDBm float64) float64 {
	budget := c.TxPowerDBm - c.ReferenceLossDB - thresholdDBm
	return math.Pow(10, budget/(10*c.PathLossExponent))
}

// maxShadowGainDB bounds |shadow| for any link: Box–Muller with
// u1 >= 0.5/2³² and |cos| <= 1 yields at most sqrt(-2·ln(0.5/2³²)) ≈ 6.764
// standard deviations, so link budgets (and therefore neighbor ranges) stay
// finite even with shadowing enabled.
var maxShadowGainDB = math.Sqrt(-2 * math.Log(0.5/(1<<32)))

// PathLossTopology derives connectivity from node positions and a
// log-distance path-loss law with optional frozen shadowing.
//
// Memory is O(N): the RSSI is a pure function of the two positions (plus
// the frozen per-pair shadowing draw) and is computed on demand instead of
// being materialized as an N×N matrix. Neighbor enumeration is a Grid query
// whose radius is the largest distance at which any link can hold, so
// building a Medium over the topology costs O(N + E) instead of O(N²).
type PathLossTopology struct {
	cfg  PathLossConfig
	grid *Grid[frame.NodeID]
}

var _ Topology = (*PathLossTopology)(nil)

// NewPathLossTopology indexes the given positions for neighbor queries.
// Unlike the original dense implementation it allocates O(N), not O(N²):
// a 10,000-node hall costs a few hundred kilobytes instead of 800 MB.
func NewPathLossTopology(cfg PathLossConfig, positions []Position) *PathLossTopology {
	return &PathLossTopology{cfg: cfg, grid: NewGrid[frame.NodeID](positions, rangeBound(cfg))}
}

// rangeBound computes the largest distance at which a link can decode or
// be sensed. The weaker of the two thresholds bounds both (the CCA margin
// may in principle be negative), and the frozen shadowing draw is bounded
// by maxShadowGainDB standard deviations.
func rangeBound(cfg PathLossConfig) float64 {
	threshold := cfg.SensitivityDBm
	if m := cfg.SensitivityDBm + cfg.CCAMarginDB; m < threshold {
		threshold = m
	}
	if cfg.ShadowSigmaDB != 0 {
		threshold -= math.Abs(cfg.ShadowSigmaDB) * maxShadowGainDB
	}
	if cfg.PathLossExponent <= 0 {
		return math.Inf(1)
	}
	// Distances are clamped to 0.1 m in rssi, so never query below that, and
	// inflate slightly so float rounding in Distance cannot drop a node that
	// sits exactly on the threshold circle.
	return math.Max(cfg.Range(threshold), 0.1) * (1 + 1e-9)
}

// AppendLinks implements Topology: all nodes within the range bound of
// src, appended to buf in ascending id order. Concurrent calls (parallel
// replications sharing one topology) are safe as long as each caller owns
// its buffer.
func (t *PathLossTopology) AppendLinks(src frame.NodeID, buf []frame.NodeID) []frame.NodeID {
	start := len(buf)
	buf = t.grid.AppendNear(src, buf)
	slices.Sort(buf[start:])
	return buf
}

// MoveNode updates id's position and its slot in the grid (O(cell
// occupancy)). It does NOT touch any Medium built over the topology —
// callers go through Medium.MoveNode, which re-classifies the affected
// links incrementally. A moved topology must no longer be shared across
// goroutines, which is why scenario runners move nodes on a Clone.
func (t *PathLossTopology) MoveNode(id frame.NodeID, p Position) { t.grid.move(id, p) }

// Clone returns an independent copy of the topology (positions and index)
// for runs that mutate node positions. The configuration is shared by
// value, and the clone's index is rebuilt over the current positions.
func (t *PathLossTopology) Clone() *PathLossTopology {
	return NewPathLossTopology(t.cfg, slices.Clone(t.grid.pos))
}

// LinkSignal implements Topology: the received power is the on-demand
// RSSI at the configured (reference) TX power, and the margins are its
// headroom over the sensitivity and energy-detection thresholds.
func (t *PathLossTopology) LinkSignal(src, dst frame.NodeID) (rxPowerDBm, decodeMarginDB, senseMarginDB float64) {
	if src == dst {
		return math.Inf(-1), math.Inf(-1), math.Inf(-1)
	}
	rssi := t.rssi(src, dst)
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
func (t *PathLossTopology) NumNodes() int { return len(t.grid.pos) }

// rssi reports the received power at dst for a transmission by src
// (src != dst), in dBm. It is computed on demand from the positions and the
// frozen shadowing draw (bit-identical to the former precomputed matrix).
func (t *PathLossTopology) rssi(src, dst frame.NodeID) float64 {
	d := max(t.grid.pos[src].Distance(t.grid.pos[dst]), 0.1)
	pl := t.cfg.ReferenceLossDB + 10*t.cfg.PathLossExponent*math.Log10(d)
	return t.cfg.TxPowerDBm - pl + t.shadow(int(src), int(dst))
}

// DeliveryProb implements Topology.
func (t *PathLossTopology) DeliveryProb(src, dst frame.NodeID) float64 {
	return 1 - t.cfg.FadingLossProb
}

// Positions returns the node coordinates (shared; callers must not mutate).
func (t *PathLossTopology) Positions() []Position { return t.grid.pos }

// Package topo builds the evaluation topologies of the paper: the 3-node
// hidden-node chain (Fig. 6), the 10-node testbed tree (Fig. 16), the
// 17-node testbed star (Fig. 17) and the concentric data-collection rings
// with 7/19/43/91 nodes (Fig. 20), together with the static routing trees
// the multi-hop scenarios forward along. Beyond the paper, FactoryHall
// generates random-uniform industrial deployments with configurable node
// count and density for large-scale (10k-node) experiments.
package topo

import (
	"fmt"
	"math"

	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/sim"
)

// Network bundles a topology with its routing tree and reporting metadata.
type Network struct {
	// Name identifies the scenario in reports.
	Name string
	// Topology answers connectivity questions for the radio medium.
	Topology radio.Topology
	// Sink is the data-collection root.
	Sink frame.NodeID
	// Parent[i] is node i's next hop towards the sink (-1 for the sink
	// itself and for detached nodes).
	Parent []frame.NodeID
	// Labels[i] is the paper's node id for node i ("" when the paper uses
	// none); used to print per-node figures with the original x axes.
	Labels []string
	// Positions are planar coordinates when the topology is geometric (nil
	// for explicit graphs).
	Positions []radio.Position
}

// NumNodes reports the node count.
func (n *Network) NumNodes() int { return n.Topology.NumNodes() }

// NextHop implements mac.Router by walking one step up the routing tree.
// Routing is ignored unless the destination is the configured sink (the
// paper's scenarios are pure data collection).
func (n *Network) NextHop(from, sink frame.NodeID) (frame.NodeID, bool) {
	if from == sink {
		return 0, false
	}
	if sink != n.Sink {
		return 0, false
	}
	p := n.Parent[from]
	if p < 0 {
		return 0, false
	}
	return p, true
}

// Depth reports the hop count from id to the sink, or -1 when detached.
func (n *Network) Depth(id frame.NodeID) int {
	d := 0
	for id != n.Sink {
		p := n.Parent[id]
		if p < 0 || d > n.NumNodes() {
			return -1
		}
		id = p
		d++
	}
	return d
}

// Label reports the paper's name for a node, falling back to its dense id.
func (n *Network) Label(id frame.NodeID) string {
	if id >= 0 && int(id) < len(n.Labels) && n.Labels[id] != "" {
		return n.Labels[id]
	}
	return fmt.Sprintf("%d", id)
}

// HiddenNode is the Fig. 6 scenario: nodes A (0) and C (2) both reach the
// sink B (1) but not each other, so a CCA at A or C fails only while B is
// transmitting an ACK.
func HiddenNode() *Network {
	g := radio.NewGraphTopology(3)
	g.AddLink(0, 1)
	g.AddLink(1, 2)
	return &Network{
		Name:     "hidden-node",
		Topology: g,
		Sink:     1,
		Parent:   []frame.NodeID{1, -1, 1},
		Labels:   []string{"A", "B", "C"},
	}
}

// Tree10 is the Fig. 16 testbed tree: 10 nodes, depth 4, rooted at the
// paper's node 28. The paper specifies the logical routing tree and that
// parents, children and siblings interfere; the exact edge set below is our
// reconstruction: each node decodes its parent,
// its children and its siblings, which leaves e.g. 41 hidden from 15 while
// both can reach 18 — "the tree topology exhibits several hidden node
// problems" (§6.2.1).
func Tree10() *Network {
	labels := []string{"28", "18", "15", "41", "36", "59", "19", "2", "64", "63"}
	// parent[i] indexes into the dense ids above.
	parent := []frame.NodeID{-1, 0, 0, 1, 1, 2, 4, 4, 3, 5}
	g := radio.NewGraphTopology(len(labels))
	children := make(map[frame.NodeID][]frame.NodeID)
	for child, p := range parent {
		if p < 0 {
			continue
		}
		g.AddLink(frame.NodeID(child), p)
		children[p] = append(children[p], frame.NodeID(child))
	}
	for _, sibs := range children {
		for i := 0; i < len(sibs); i++ {
			for j := i + 1; j < len(sibs); j++ {
				g.AddLink(sibs[i], sibs[j])
			}
		}
	}
	return &Network{
		Name:     "tree-10",
		Topology: g,
		Sink:     0,
		Parent:   parent,
		Labels:   labels,
	}
}

// StarConfig parameterizes Star17.
type StarConfig struct {
	// PathLoss configures the channel; the zero value selects the paper's
	// star settings (3 dBm TX power, −90 dBm sensitivity, §6.2).
	PathLoss radio.PathLossConfig
}

// starRadius is the Star17 leaf distance from the hub in meters.
const starRadius = 3

// Star17 is the Fig. 17 testbed star: 16 leaves around the paper's node 34.
// It is built on the log-distance path-loss channel (our FIT IoT-LAB
// substitute): with the paper's 3 dBm / −90 dBm link budget every node hears
// every other, so CSMA/CA's CCA works and the PDR gap to QMA narrows
// (§6.2.1).
func Star17(cfg StarConfig) *Network {
	if cfg.PathLoss == (radio.PathLossConfig{}) {
		cfg.PathLoss = radio.DefaultPathLossConfig()
		cfg.PathLoss.TxPowerDBm = 3
		cfg.PathLoss.SensitivityDBm = -90
	}
	labels := []string{
		"34", "2", "4", "6", "8", "10", "20", "24", "30",
		"38", "48", "52", "54", "56", "58", "60", "62",
	}
	n := len(labels)
	pos := make([]radio.Position, n)
	pos[0] = radio.Position{X: 0, Y: 0}
	for i := 1; i < n; i++ {
		angle := 2 * math.Pi * float64(i-1) / float64(n-1)
		pos[i] = radio.Position{X: starRadius * math.Cos(angle), Y: starRadius * math.Sin(angle)}
	}
	parent := make([]frame.NodeID, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = 0
	}
	return &Network{
		Name:      "star-17",
		Topology:  radio.NewPathLossTopology(cfg.PathLoss, pos),
		Sink:      0,
		Parent:    parent,
		Labels:    labels,
		Positions: pos,
	}
}

// Rings is the Fig. 20 concentric data-collection topology: a center sink
// surrounded by `rings` concentric rings whose populations double outward
// (ring r carries 6·2^(r−1) nodes), giving the paper's 7, 19, 43 and 91
// nodes for 1–4 rings. Connectivity is a unit-disk graph
// with radius just above the ring spacing, so every node reaches the
// adjacent rings and its ring neighbours but nodes further apart are hidden
// from each other — the spatial-reuse regime of §6.3 ("they are placed far
// enough from each other"). Each node routes to its nearest neighbour in the
// next ring inward.
func Rings(rings int) *Network {
	if rings < 1 {
		panic(fmt.Sprintf("topo: rings=%d must be >= 1", rings))
	}
	const spacing = 10.0 // meters between rings
	var pos []radio.Position
	ringOf := []int{0}
	pos = append(pos, radio.Position{})
	for r := 1; r <= rings; r++ {
		count := 6 << uint(r-1)
		for i := 0; i < count; i++ {
			angle := 2*math.Pi*float64(i)/float64(count) + float64(r)*0.2
			pos = append(pos, radio.Position{
				X: spacing * float64(r) * math.Cos(angle),
				Y: spacing * float64(r) * math.Sin(angle),
			})
			ringOf = append(ringOf, r)
		}
	}
	n := len(pos)
	g := radio.NewGraphTopology(n)
	radius := spacing * 1.35
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pos[i].Distance(pos[j]) <= radius {
				g.AddLink(frame.NodeID(i), frame.NodeID(j))
			}
		}
	}
	parent := make([]frame.NodeID, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		best := frame.NodeID(-1)
		bestDist := math.Inf(1)
		for j := 0; j < n; j++ {
			if ringOf[j] != ringOf[i]-1 {
				continue
			}
			if !radio.Decodes(g, frame.NodeID(i), frame.NodeID(j)) {
				continue
			}
			if d := pos[i].Distance(pos[j]); d < bestDist {
				best, bestDist = frame.NodeID(j), d
			}
		}
		if best < 0 {
			// Fall back to the nearest decodable node closer to the center.
			for j := 0; j < n; j++ {
				if ringOf[j] >= ringOf[i] || !radio.Decodes(g, frame.NodeID(i), frame.NodeID(j)) {
					continue
				}
				if d := pos[i].Distance(pos[j]); d < bestDist {
					best, bestDist = frame.NodeID(j), d
				}
			}
		}
		parent[i] = best
	}
	return &Network{
		Name:      fmt.Sprintf("rings-%d", rings),
		Topology:  g,
		Sink:      0,
		Parent:    parent,
		Positions: pos,
	}
}

// FactoryConfig parameterizes FactoryHall.
type FactoryConfig struct {
	// Nodes is the total node count (including the sink); required.
	Nodes int
	// Degree is the target mean number of decode-neighbours per node; the
	// hall is sized so that a uniform deployment hits it on average
	// (default 10). Denser halls contend harder, sparser halls route longer.
	Degree float64
	// PathLoss configures the channel (zero value = DefaultPathLossConfig).
	PathLoss radio.PathLossConfig
	// Seed draws the node placement; same seed, same hall.
	Seed uint64
}

// FactoryHall is the large-scale scenario family: Nodes devices placed
// uniformly at random over a square industrial hall, a log-distance
// path-loss channel, the sink in the hall center, and a min-hop routing
// tree built by BFS from the sink. Nodes that cannot reach the sink stay
// detached (Parent −1) — at very low densities the deployment may
// partition, exactly as a real hall would.
//
// The construction is O(N + E) end to end (spatial-grid neighbor queries, no
// N×N state), so 10,000-node halls build in well under a second.
func FactoryHall(cfg FactoryConfig) *Network {
	if cfg.Nodes < 2 {
		panic(fmt.Sprintf("topo: FactoryHall needs at least 2 nodes, got %d", cfg.Nodes))
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 10
	}
	if cfg.PathLoss == (radio.PathLossConfig{}) {
		cfg.PathLoss = radio.DefaultPathLossConfig()
	}
	// Decode range R from the link budget; area = N·πR²/Degree gives an
	// expected decode degree of ~Degree away from the hall edges.
	r := cfg.PathLoss.Range(cfg.PathLoss.SensitivityDBm)
	side := r * math.Sqrt(math.Pi*float64(cfg.Nodes)/cfg.Degree)
	rng := sim.NewRandStream(cfg.Seed, 7001)
	pos := make([]radio.Position, cfg.Nodes)
	pos[0] = radio.Position{X: side / 2, Y: side / 2} // sink in the center
	for i := 1; i < cfg.Nodes; i++ {
		pos[i] = radio.Position{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	pt := radio.NewPathLossTopology(cfg.PathLoss, pos)

	parent := bfsTree(pt, cfg.Nodes)
	return &Network{
		Name:      fmt.Sprintf("factory-%d", cfg.Nodes),
		Topology:  pt,
		Sink:      0,
		Parent:    parent,
		Positions: pos,
	}
}

// bfsTree builds a min-hop routing tree by BFS from node 0 over the decode
// links, using the grid-backed neighbor enumeration (O(N + E) total). A
// child's frames must be decodable at its parent, so the edge direction is
// radio.Decodes(pt, child, parent). Frontier and candidate order are
// deterministic (ascending ids), so the same positions always yield the same
// tree; nodes outside the sink's component stay detached (Parent −1).
func bfsTree(pt *radio.PathLossTopology, n int) []frame.NodeID {
	parent := make([]frame.NodeID, n)
	for i := range parent {
		parent[i] = -1
	}
	visited := make([]bool, n)
	visited[0] = true
	queue := make([]frame.NodeID, 0, n)
	queue = append(queue, 0)
	var cand []frame.NodeID
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		cand = pt.AppendLinks(p, cand[:0])
		for _, c := range cand {
			if visited[c] || !radio.Decodes(pt, c, p) {
				continue
			}
			visited[c] = true
			parent[c] = p
			queue = append(queue, c)
		}
	}
	return parent
}

// RingNodeCounts reports the node counts the paper evaluates (Fig. 21/22).
func RingNodeCounts() []int { return []int{7, 19, 43, 91} }

// RingsForCount returns the ring topology with exactly count nodes,
// panicking for counts the construction cannot produce.
func RingsForCount(count int) *Network {
	for r := 1; r <= 8; r++ {
		if 1+6*((1<<uint(r))-1) == count {
			return Rings(r)
		}
	}
	panic(fmt.Sprintf("topo: no concentric topology with %d nodes", count))
}

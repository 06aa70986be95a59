package topo

import (
	"testing"
	"time"

	"qma/internal/frame"
	"qma/internal/radio"
)

func TestHiddenNodeStructure(t *testing.T) {
	n := HiddenNode()
	if n.NumNodes() != 3 || n.Sink != 1 {
		t.Fatalf("nodes=%d sink=%d", n.NumNodes(), n.Sink)
	}
	top := n.Topology
	if !radio.Decodes(top, 0, 1) || !radio.Decodes(top, 2, 1) {
		t.Error("A and C must reach B")
	}
	if _, decodeMargin, senseMargin := top.LinkSignal(0, 2); decodeMargin >= 0 || senseMargin >= 0 {
		t.Error("A and C must be hidden from each other")
	}
	if hop, ok := n.NextHop(0, 1); !ok || hop != 1 {
		t.Errorf("NextHop(A→B) = %d/%v", hop, ok)
	}
	if _, ok := n.NextHop(1, 1); ok {
		t.Error("sink must not route to itself")
	}
	if n.Label(0) != "A" || n.Label(1) != "B" || n.Label(2) != "C" {
		t.Error("labels wrong")
	}
}

func TestTree10Structure(t *testing.T) {
	n := Tree10()
	if n.NumNodes() != 10 {
		t.Fatalf("nodes = %d, want 10", n.NumNodes())
	}
	// Depth 4 as in the paper (root has depth 0 here, leaves reach 3 hops).
	maxDepth := 0
	for i := 0; i < 10; i++ {
		d := n.Depth(frame.NodeID(i))
		if d < 0 {
			t.Fatalf("node %d detached", i)
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth != 3 {
		t.Errorf("max hop count = %d, want 3 (depth-4 tree)", maxDepth)
	}
	// Every node routes to the sink through its parent chain.
	for i := 1; i < 10; i++ {
		hop, ok := n.NextHop(frame.NodeID(i), n.Sink)
		if !ok || hop != n.Parent[i] {
			t.Errorf("NextHop(%d) = %d/%v, want parent %d", i, hop, ok, n.Parent[i])
		}
	}
	// Siblings decode each other, cousins do not: 41(3) and 59(5) sit in
	// different subtrees.
	if !radio.Decodes(n.Topology, 3, 4) {
		t.Error("siblings 41/36 must decode each other")
	}
	if radio.Decodes(n.Topology, 3, 5) {
		t.Error("41 and 59 must be hidden from each other")
	}
}

func TestStar17AllPairsConnected(t *testing.T) {
	n := Star17(StarConfig{})
	if n.NumNodes() != 17 || n.Sink != 0 {
		t.Fatalf("nodes=%d sink=%d", n.NumNodes(), n.Sink)
	}
	// §6.2.1: "all nodes can hear each other" with the star's 3 dBm/-90 dBm
	// budget.
	for i := 0; i < 17; i++ {
		for j := 0; j < 17; j++ {
			if i == j {
				continue
			}
			if !radio.Decodes(n.Topology, frame.NodeID(i), frame.NodeID(j)) {
				t.Fatalf("star nodes %d and %d cannot hear each other", i, j)
			}
		}
	}
	for i := 1; i < 17; i++ {
		if n.Parent[i] != 0 {
			t.Errorf("leaf %d parent = %d, want hub", i, n.Parent[i])
		}
	}
}

func TestRingsNodeCounts(t *testing.T) {
	want := map[int]int{1: 7, 2: 19, 3: 43, 4: 91}
	for rings, count := range want {
		n := Rings(rings)
		if n.NumNodes() != count {
			t.Errorf("Rings(%d) = %d nodes, want %d", rings, n.NumNodes(), count)
		}
		// Every node must have a route to the center.
		for i := 1; i < n.NumNodes(); i++ {
			if n.Depth(frame.NodeID(i)) < 0 {
				t.Errorf("Rings(%d): node %d detached", rings, i)
			}
		}
	}
	for _, count := range RingNodeCounts() {
		if RingsForCount(count).NumNodes() != count {
			t.Errorf("RingsForCount(%d) mismatch", count)
		}
	}
}

func TestRingsSpatialReuse(t *testing.T) {
	n := Rings(4)
	// Hidden terminals must exist (the §6.3 premise): some pair of nodes in
	// adjacent rings cannot sense each other.
	hidden := 0
	for i := 0; i < n.NumNodes(); i++ {
		for j := i + 1; j < n.NumNodes(); j++ {
			if !radio.Decodes(n.Topology, frame.NodeID(i), frame.NodeID(j)) {
				hidden++
			}
		}
	}
	if hidden == 0 {
		t.Error("91-node topology is a clique; expected spatial reuse")
	}
	// And the routing tree depth equals the ring index.
	deepest := 0
	for i := 0; i < n.NumNodes(); i++ {
		if d := n.Depth(frame.NodeID(i)); d > deepest {
			deepest = d
		}
	}
	if deepest != 4 {
		t.Errorf("deepest route = %d hops, want 4", deepest)
	}
}

func TestRingsPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rings(0) should panic")
		}
	}()
	Rings(0)
}

func TestRingsForCountPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RingsForCount(10) should panic")
		}
	}()
	RingsForCount(10)
}

func TestFactoryHallStructure(t *testing.T) {
	for _, nodes := range []int{10, 100, 1000} {
		n := FactoryHall(FactoryConfig{Nodes: nodes, Seed: 7})
		if n.NumNodes() != nodes || n.Sink != 0 {
			t.Fatalf("nodes=%d sink=%d", n.NumNodes(), n.Sink)
		}
		if len(n.Positions) != nodes {
			t.Fatalf("positions missing")
		}
		routed := 0
		for i := 1; i < nodes; i++ {
			d := n.Depth(frame.NodeID(i))
			if n.Parent[i] >= 0 {
				if d < 0 {
					t.Fatalf("FactoryHall(%d): node %d has a parent but no route", nodes, i)
				}
				// The parent must decode the child's transmissions and sit
				// one hop closer to the sink (BFS min-hop property).
				if !radio.Decodes(n.Topology, frame.NodeID(i), n.Parent[i]) {
					t.Fatalf("FactoryHall(%d): node %d cannot reach its parent", nodes, i)
				}
				if pd := n.Depth(n.Parent[i]); pd != d-1 {
					t.Fatalf("FactoryHall(%d): node %d depth %d but parent depth %d", nodes, i, d, pd)
				}
				routed++
			} else if d >= 0 {
				t.Fatalf("FactoryHall(%d): node %d routed despite Parent=-1", nodes, i)
			}
		}
		// At the default density the vast majority of the hall must route.
		if routed < (nodes-1)*8/10 {
			t.Errorf("FactoryHall(%d): only %d/%d nodes routed", nodes, routed, nodes-1)
		}
	}
}

func TestFactoryHallDeterministic(t *testing.T) {
	a := FactoryHall(FactoryConfig{Nodes: 200, Seed: 11})
	b := FactoryHall(FactoryConfig{Nodes: 200, Seed: 11})
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] || a.Parent[i] != b.Parent[i] {
			t.Fatalf("same seed produced different halls at node %d", i)
		}
	}
	c := FactoryHall(FactoryConfig{Nodes: 200, Seed: 12})
	same := true
	for i := range a.Positions {
		if a.Positions[i] != c.Positions[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical halls")
	}
}

func TestFactoryHallDensityKnob(t *testing.T) {
	meanDegree := func(n *Network) float64 {
		pt := n.Topology.(*radio.PathLossTopology)
		total := 0
		var cand []frame.NodeID
		for i := 0; i < n.NumNodes(); i++ {
			cand = pt.AppendLinks(frame.NodeID(i), cand[:0])
			for _, j := range cand {
				if radio.Decodes(pt, frame.NodeID(i), j) {
					total++
				}
			}
		}
		return float64(total) / float64(n.NumNodes())
	}
	sparse := meanDegree(FactoryHall(FactoryConfig{Nodes: 500, Degree: 6, Seed: 3}))
	dense := meanDegree(FactoryHall(FactoryConfig{Nodes: 500, Degree: 24, Seed: 3}))
	if sparse <= 2 || dense <= sparse*2 {
		t.Errorf("degree knob ineffective: sparse %.1f, dense %.1f", sparse, dense)
	}
}

func TestFactoryHallPanicsOnTooFewNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FactoryHall(1 node) should panic")
		}
	}()
	FactoryHall(FactoryConfig{Nodes: 1})
}

func TestFactoryHall10kBuildsFast(t *testing.T) {
	// Acceptance pin: a 10,000-node path-loss hall (positions, spatial
	// index, BFS routing tree) must build in well under 2 s. The O(N + E)
	// construction takes ~10 ms, so the bound holds with huge margin even
	// on slow shared CI hardware.
	start := time.Now()
	n := FactoryHall(FactoryConfig{Nodes: 10000, Seed: 1})
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("10k-node hall took %v to build, want < 2s", d)
	}
	if n.NumNodes() != 10000 {
		t.Fatalf("nodes = %d", n.NumNodes())
	}
}

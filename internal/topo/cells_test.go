package topo

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"qma/internal/frame"
	"qma/internal/radio"
)

func TestCityPartition(t *testing.T) {
	city := NewCity(CityConfig{Nodes: 400, CellsX: 2, CellsY: 2, Seed: 42})
	if city.NumCells() != 4 {
		t.Fatalf("got %d cells, want 4", city.NumCells())
	}
	total := 0
	for cell, net := range city.Cells {
		n := net.NumNodes()
		total += n
		if n < 1 {
			t.Fatalf("cell %d is empty", cell)
		}
		if net.Sink != 0 {
			t.Fatalf("cell %d sink = %d, want 0", cell, net.Sink)
		}
		// The sink sits at the cell center.
		cx, cy := cell%2, cell/2
		center := net.Positions[0]
		if center.X != (float64(cx)+0.5)*city.CellW || center.Y != (float64(cy)+0.5)*city.CellH {
			t.Fatalf("cell %d sink at %+v, want cell center", cell, center)
		}
		// Every device position falls inside the cell's rectangle.
		for i, p := range net.Positions {
			if p.X < float64(cx)*city.CellW-1e-9 || p.X > float64(cx+1)*city.CellW+1e-9 ||
				p.Y < float64(cy)*city.CellH-1e-9 || p.Y > float64(cy+1)*city.CellH+1e-9 {
				t.Fatalf("cell %d node %d at %+v escapes its cell", cell, i, p)
			}
		}
		// Routing stays confined to the cell and reaches most nodes.
		routed := 0
		for i := 1; i < n; i++ {
			if net.Depth(frame.NodeID(i)) >= 0 {
				routed++
			}
		}
		if routed < (n-1)/2 {
			t.Errorf("cell %d routes only %d of %d devices", cell, routed, n-1)
		}
	}
	if total != 400 {
		t.Fatalf("cells hold %d nodes in total, want 400", total)
	}
}

func TestCityDeterministic(t *testing.T) {
	a := NewCity(CityConfig{Nodes: 300, CellsX: 3, CellsY: 1, Seed: 7})
	b := NewCity(CityConfig{Nodes: 300, CellsX: 3, CellsY: 1, Seed: 7})
	if !reflect.DeepEqual(a.Cells[1].Positions, b.Cells[1].Positions) {
		t.Fatal("same seed produced different placements")
	}
	if a.BoundaryLinks() != b.BoundaryLinks() {
		t.Fatal("same seed produced different boundary links")
	}
	c := NewCity(CityConfig{Nodes: 300, CellsX: 3, CellsY: 1, Seed: 8})
	if reflect.DeepEqual(a.Cells[1].Positions, c.Cells[1].Positions) {
		t.Fatal("different seeds produced identical placements")
	}
}

func TestCitySingleCellHasNoBoundary(t *testing.T) {
	city := NewCity(CityConfig{Nodes: 200, CellsX: 1, CellsY: 1, Seed: 3})
	if city.BoundaryLinks() != 0 {
		t.Fatalf("1-cell city has %d boundary links, want 0", city.BoundaryLinks())
	}
	if got := city.EdgeNodes(0); got != 0 {
		t.Fatalf("1-cell city has %d edge nodes, want 0", got)
	}
}

// TestCityBoundaryMatchesBruteForce cross-checks the grid-swept boundary
// enumeration against a quadratic all-pairs reference over several seeds and
// grid shapes: a directed link src→dst must exist iff the nodes live in
// different cells within SenseRange, and the link set must be symmetric.
func TestCityBoundaryMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		nodes, cx, cy int
		seed          uint64
	}{
		{240, 2, 2, 1},
		{300, 3, 2, 2},
		{150, 4, 1, 3},
	} {
		city := NewCity(CityConfig{Nodes: tc.nodes, CellsX: tc.cx, CellsY: tc.cy, Seed: tc.seed})
		type key struct {
			sc int32
			sn frame.NodeID
			dc int32
			dn frame.NodeID
		}
		want := map[key]bool{}
		for ac, an := range city.Cells {
			for bc, bn := range city.Cells {
				if ac == bc {
					continue
				}
				for i, pi := range an.Positions {
					for j, pj := range bn.Positions {
						if pi.Distance(pj) <= city.SenseRange {
							want[key{int32(ac), frame.NodeID(i), int32(bc), frame.NodeID(j)}] = true
						}
					}
				}
			}
		}
		got := map[key]bool{}
		links := 0
		for cell, net := range city.Cells {
			for s := 0; s < net.NumNodes(); s++ {
				for _, tgt := range city.EdgeTargets(cell, frame.NodeID(s)) {
					got[key{int32(cell), frame.NodeID(s), tgt.Cell, tgt.Node}] = true
					links++
				}
			}
		}
		if links != city.BoundaryLinks() {
			t.Errorf("%+v: CSR lists %d links, BoundaryLinks reports %d", tc, links, city.BoundaryLinks())
		}
		if len(got) != links {
			t.Errorf("%+v: %d duplicate boundary links", tc, links-len(got))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: grid enumeration (%d links) differs from brute force (%d links)", tc, len(got), len(want))
		}
		for k := range got {
			if !got[key{k.dc, k.dn, k.sc, k.sn}] {
				t.Errorf("%+v: link %+v has no reverse", tc, k)
			}
		}
		if city.BoundaryLinks() == 0 {
			t.Errorf("%+v: expected some boundary links in a multi-cell city", tc)
		}
	}
}

// TestCityNeighborCells pins the cell adjacency against the link CSR it is
// derived from: a cell's neighbor set is exactly the distinct cells in its
// boundary links, sorted ascending, and the relation is symmetric.
func TestCityNeighborCells(t *testing.T) {
	city := NewCity(CityConfig{Nodes: 400, CellsX: 3, CellsY: 2, Seed: 11})
	for cell, net := range city.Cells {
		want := map[int32]bool{}
		for s := 0; s < net.NumNodes(); s++ {
			for _, tgt := range city.EdgeTargets(cell, frame.NodeID(s)) {
				want[tgt.Cell] = true
			}
		}
		ns := city.NeighborCells(cell)
		if len(ns) != len(want) {
			t.Fatalf("cell %d: NeighborCells lists %d cells, links reach %d", cell, len(ns), len(want))
		}
		for i, n := range ns {
			if !want[n] {
				t.Errorf("cell %d: neighbor %d has no boundary link", cell, n)
			}
			if i > 0 && ns[i-1] >= n {
				t.Errorf("cell %d: neighbors not strictly ascending: %v", cell, ns)
			}
			rev := city.NeighborCells(int(n))
			found := false
			for _, m := range rev {
				if m == int32(cell) {
					found = true
				}
			}
			if !found {
				t.Errorf("cell %d lists %d as neighbor but not vice versa", cell, n)
			}
		}
	}
	solo := NewCity(CityConfig{Nodes: 100, CellsX: 1, CellsY: 1, Seed: 11})
	if len(solo.NeighborCells(0)) != 0 {
		t.Fatal("1-cell city has neighbors")
	}
}

// TestCityHotspot pins the imbalanced-placement knob: a large hotspot
// fraction concentrates devices in the chosen cell, and fraction 0 leaves
// the city byte-identical to a config without the fields set.
func TestCityHotspot(t *testing.T) {
	base := NewCity(CityConfig{Nodes: 400, CellsX: 2, CellsY: 2, Seed: 9})
	zero := NewCity(CityConfig{Nodes: 400, CellsX: 2, CellsY: 2, Seed: 9, HotspotCell: 3})
	for cell := range base.Cells {
		if !reflect.DeepEqual(base.Cells[cell].Positions, zero.Cells[cell].Positions) {
			t.Fatalf("HotspotFraction 0 changed cell %d placement", cell)
		}
	}
	hot := NewCity(CityConfig{Nodes: 400, CellsX: 2, CellsY: 2, Seed: 9, HotspotCell: 3, HotspotFraction: 0.7})
	hotN := hot.Cells[3].NumNodes()
	for cell, net := range hot.Cells {
		if cell != 3 && net.NumNodes()*2 > hotN {
			t.Errorf("hotspot cell holds %d nodes but cell %d holds %d — not imbalanced", hotN, cell, net.NumNodes())
		}
	}
	// Hotspot devices land inside the hotspot cell's rectangle, so the
	// per-cell escape check in TestCityPartition still holds; re-assert the
	// count here: ≥70% of 396 devices plus whatever the uniform 30% drops in.
	if hotN < 396*7/10 {
		t.Errorf("hotspot cell holds %d of 396 devices, want ≥ the 70%% hotspot draw", hotN)
	}
}

func TestCityConfigValidation(t *testing.T) {
	shadowed := CityConfig{Nodes: 100, CellsX: 2, CellsY: 1, PathLoss: radio.DefaultPathLossConfig()}
	shadowed.PathLoss.ShadowSigmaDB = 2
	nanExponent := CityConfig{Nodes: 100, CellsX: 2, CellsY: 1, PathLoss: radio.DefaultPathLossConfig()}
	nanExponent.PathLoss.ShadowSigmaDB = 0
	nanExponent.PathLoss.PathLossExponent = math.NaN()
	cases := []struct {
		name    string
		cfg     CityConfig
		wantErr string
	}{
		{"negative grid", CityConfig{Nodes: 100, CellsX: -2}, "at least 1x1"},
		{"too few nodes", CityConfig{Nodes: 5, CellsX: 3, CellsY: 1}, "too small for 3x1 cells"},
		{"average load past 16 bits", CityConfig{Nodes: 2*32767 + 2, CellsX: 2}, "16-bit"},
		{"negative degree", CityConfig{Nodes: 100, Degree: -1}, "Degree -1"},
		{"NaN degree", CityConfig{Nodes: 100, Degree: math.NaN()}, "Degree NaN"},
		{"hotspot fraction", CityConfig{Nodes: 100, CellsX: 2, CellsY: 1, HotspotFraction: 1}, "HotspotFraction"},
		{"NaN hotspot fraction", CityConfig{Nodes: 100, CellsX: 2, CellsY: 1, HotspotFraction: math.NaN()}, "HotspotFraction"},
		{"hotspot cell", CityConfig{Nodes: 100, CellsX: 2, CellsY: 1, HotspotCell: 2, HotspotFraction: 0.5}, "HotspotCell 2"},
		{"shadowing", shadowed, "ShadowSigmaDB"},
		{"NaN path-loss exponent", nanExponent, "PathLossExponent"},
	}
	// Each case breaks one rule: Validate names it, BuildCity returns exactly
	// that error before placing a node, and NewCity panics with it.
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate = %v, want an error mentioning %q", tc.name, err, tc.wantErr)
			continue
		}
		if c, berr := BuildCity(tc.cfg); c != nil || berr == nil || berr.Error() != err.Error() {
			t.Errorf("%s: BuildCity = %v, %v; want the Validate error %q", tc.name, c, berr, err)
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); msg != err.Error() {
					t.Errorf("%s: NewCity panicked with %q, want %q", tc.name, msg, err)
				}
			}()
			NewCity(tc.cfg)
		}()
	}
	// Average load exactly at the ceiling passes: only placement can tell
	// whether a cell overflows.
	edge := CityConfig{Nodes: 2 * 32767, CellsX: 2}
	if err := edge.Validate(); err != nil {
		t.Errorf("average-load boundary rejected: %v", err)
	}
}

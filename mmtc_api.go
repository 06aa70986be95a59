package qma

import (
	"errors"
	"fmt"

	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/topo"
)

// MMTCScenario describes a massive-MTC scale-out run: a city-scale area is
// partitioned into a grid of cells, each with its own sink at the cell
// center, and the whole deployment runs on the sharded medium — one
// sub-simulation per cell on a worker pool, with boundary interference
// exchanged at beacon-aligned epoch barriers. This is the path past the
// 32767-node ceiling of the monolithic runner: node identity is per-cell, so
// N is bounded by memory, not by the 16-bit frame address space.
type MMTCScenario struct {
	// Nodes is the total device count across the city (sinks excluded).
	Nodes int
	// CellsX and CellsY shape the cell grid (0 selects 1).
	CellsX, CellsY int
	// Degree is the target mean decode degree steering the city's area
	// (0 selects 10).
	Degree float64
	// MAC selects the channel access scheme in every cell.
	MAC MAC
	// Seed selects the random streams (placement and per-cell simulation).
	Seed uint64
	// DurationSeconds is the simulated time.
	DurationSeconds float64
	// Rate is the per-device Poisson rate in packets/second; every routed
	// device carries one evaluation source.
	Rate float64
	// StartSeconds delays traffic; MaxPackets bounds each source
	// (0 = unbounded).
	StartSeconds float64
	MaxPackets   int
	// EpochSeconds is the boundary-exchange barrier period (0 selects one
	// superframe, 122.88 ms); WindowSeconds the streaming stats window
	// (0 selects 1 s).
	EpochSeconds  float64
	WindowSeconds float64
	// Parallel bounds the worker pool driving the cells (0 = GOMAXPROCS).
	// Results are byte-identical for every value.
	Parallel int
	// SummaryOnly is implied: the sharded runner never materializes per-node
	// results — result memory is O(cells + windows).
}

// MMTCCellResult reports one cell's aggregates.
type MMTCCellResult struct {
	// Cell is the cell index; Nodes its node count (sink included) and
	// Routed how many devices had a route.
	Cell, Nodes, Routed int
	// Generated and Delivered count the cell's evaluation packets; PDR is
	// their ratio and MeanDelaySeconds the mean end-to-end delay.
	Generated, Delivered uint64
	PDR                  float64
	MeanDelaySeconds     float64
	// EdgeTx counts transmissions mirrored into a neighbour cell;
	// ForeignBusy counts busy windows mirrored into this cell.
	EdgeTx, ForeignBusy uint64
	// Events is the cell kernel's event count.
	Events uint64
}

// MMTCResult reports a completed sharded run.
type MMTCResult struct {
	// Cells holds one entry per cell.
	Cells []MMTCCellResult
	// NetworkPDR is total delivered / total generated across cells.
	NetworkPDR float64
	// MeanDelaySeconds and the delay quantiles come from the merged
	// streaming digests (seconds).
	MeanDelaySeconds                 float64
	DelayP50Seconds, DelayP95Seconds float64
	DelayP99Seconds                  float64
	// CrossCellFraction is the fraction of transmissions mirrored into a
	// neighbour cell; BoundaryLinks the directed sense-range link count
	// crossing cell edges.
	CrossCellFraction float64
	BoundaryLinks     int
	// Events is the total event count; Truncated reports a cell that hit
	// its event budget.
	Events    uint64
	Truncated bool
}

// Validate reports the first configuration problem, or nil.
func (s *MMTCScenario) Validate() error {
	cx, cy := s.CellsX, s.CellsY
	if cx == 0 {
		cx = 1
	}
	if cy == 0 {
		cy = 1
	}
	switch {
	case cx < 1 || cy < 1:
		return errors.New("qma: MMTCScenario cell grid must be at least 1x1")
	case s.Nodes < 2*cx*cy:
		return fmt.Errorf("qma: MMTCScenario.Nodes=%d too small for %dx%d cells (need >= 2 per cell)", s.Nodes, cx, cy)
	case s.Nodes/(cx*cy) > 32767:
		return fmt.Errorf("qma: %d nodes per cell exceeds the 16-bit per-cell address space; use more cells", s.Nodes/(cx*cy))
	case s.DurationSeconds <= 0:
		return errors.New("qma: MMTCScenario.DurationSeconds must be positive")
	case s.Rate <= 0:
		return errors.New("qma: MMTCScenario.Rate must be positive")
	case s.StartSeconds < 0 || s.EpochSeconds < 0 || s.WindowSeconds < 0:
		return errors.New("qma: MMTCScenario time knobs must not be negative")
	case s.Degree < 0:
		return errors.New("qma: MMTCScenario.Degree must not be negative")
	}
	return s.MAC.validate()
}

// Run executes the sharded simulation.
func (s *MMTCScenario) Run() (*MMTCResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// Validate bounds only the average cell load; uniform placement can
	// still overfill one cell, which BuildCity reports as an error.
	city, err := topo.BuildCity(topo.CityConfig{
		Nodes:  s.Nodes,
		CellsX: s.CellsX,
		CellsY: s.CellsY,
		Degree: s.Degree,
		Seed:   s.Seed,
	})
	if err != nil {
		return nil, err
	}
	res := scenario.RunSharded(scenario.ShardedConfig{
		City:       city,
		MAC:        s.MAC.kind(),
		Seed:       s.Seed,
		Duration:   sim.FromSeconds(s.DurationSeconds),
		Rate:       s.Rate,
		StartAt:    sim.FromSeconds(s.StartSeconds),
		MaxPackets: s.MaxPackets,
		Epoch:      sim.FromSeconds(s.EpochSeconds),
		Window:     sim.FromSeconds(s.WindowSeconds),
		Parallel:   s.Parallel,
	})

	delay := res.DelayDigest()
	out := &MMTCResult{
		NetworkPDR:        res.NetworkPDR(),
		MeanDelaySeconds:  res.MeanDelay(),
		DelayP50Seconds:   delay.Quantile(0.50),
		DelayP95Seconds:   delay.Quantile(0.95),
		DelayP99Seconds:   delay.Quantile(0.99),
		CrossCellFraction: res.CrossCellFraction(),
		BoundaryLinks:     city.BoundaryLinks(),
		Events:            res.Events,
		Truncated:         res.Truncated,
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		mean := 0.0
		if c.Delivered > 0 {
			mean = (sim.Time(float64(c.DelaySum) / float64(c.Delivered))).Seconds()
		}
		out.Cells = append(out.Cells, MMTCCellResult{
			Cell:             c.Cell,
			Nodes:            c.Nodes,
			Routed:           c.Routed,
			Generated:        c.Generated,
			Delivered:        c.Delivered,
			PDR:              c.PDR(),
			MeanDelaySeconds: mean,
			EdgeTx:           c.EdgeTx,
			ForeignBusy:      c.ForeignBusy,
			Events:           c.Events,
		})
	}
	return out, nil
}

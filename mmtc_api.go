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
	_, _, err := s.config()
	return err
}

// config converts s to the city and sharded-run configs. It checks the MAC
// name, which the public form owns, and returns topo.CityConfig.Validate and
// scenario.ShardedConfig.Validate for every rule about the city and the run.
// The run's City is left for Run to build, so ErrNoCity is the one rule
// skipped here.
func (s *MMTCScenario) config() (topo.CityConfig, scenario.ShardedConfig, error) {
	city := topo.CityConfig{
		Nodes:  s.Nodes,
		CellsX: s.CellsX,
		CellsY: s.CellsY,
		Degree: s.Degree,
		Seed:   s.Seed,
	}
	run := scenario.ShardedConfig{
		MAC:        s.MAC.kind(),
		Seed:       s.Seed,
		Duration:   sim.FromSeconds(s.DurationSeconds),
		Rate:       s.Rate,
		StartAt:    sim.FromSeconds(s.StartSeconds),
		MaxPackets: s.MaxPackets,
		Epoch:      sim.FromSeconds(s.EpochSeconds),
		Window:     sim.FromSeconds(s.WindowSeconds),
		Parallel:   s.Parallel,
	}
	if _, err := s.MAC.protocol(); err != nil {
		return city, run, err
	}
	if err := city.Validate(); err != nil {
		return city, run, fmt.Errorf("qma: %w", err)
	}
	if err := run.Validate(); err != nil && !errors.Is(err, scenario.ErrNoCity) {
		return city, run, fmt.Errorf("qma: %w", err)
	}
	return city, run, nil
}

// Run executes the sharded simulation.
func (s *MMTCScenario) Run() (*MMTCResult, error) {
	cityCfg, run, err := s.config()
	if err != nil {
		return nil, err
	}
	// Validate bounds only the average cell load; uniform placement can
	// still overfill one cell, which BuildCity reports as an error.
	city, err := topo.BuildCity(cityCfg)
	if err != nil {
		return nil, fmt.Errorf("qma: %w", err)
	}
	run.City = city
	res := scenario.RunSharded(run)

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
		out.Cells = append(out.Cells, MMTCCellResult{
			Cell:             c.Cell,
			Nodes:            c.Nodes,
			Routed:           c.Routed,
			Generated:        c.Generated,
			Delivered:        c.Delivered,
			PDR:              c.PDR(),
			MeanDelaySeconds: c.MeanDelay(),
			EdgeTx:           c.EdgeTx,
			ForeignBusy:      c.ForeignBusy,
			Events:           c.Events,
		})
	}
	return out, nil
}

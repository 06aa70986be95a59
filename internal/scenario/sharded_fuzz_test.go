package scenario

import (
	"testing"

	"qma/internal/sim"
	"qma/internal/topo"
)

// FuzzShardedSchedule throws random cities at the dependency-driven
// scheduler: grid shape (1–3 × 1–3 cells), device count (at most 300),
// hotspot cell and fraction, per-cell event budget (none or small) and
// seed. Whatever the city, RunSharded at 1, 2 and 4 workers must be
// byte-identical to the barrier reference (matchBarrier). Committed seeds
// in testdata/fuzz cover a 1×1 city, budgets that exhaust every cell and a
// hotspot; each input runs well under a second, so they replay under -race.
func FuzzShardedSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint8, nodes uint16, hotCell, hotTenths uint8, budget uint16, seed uint64) {
		cx, cy := 1+int(shape%3), 1+int(shape/3%3)
		cells := cx * cy
		// At least 8 devices per cell keeps every cell routable; at most 300.
		n := 8*cells + int(nodes)%(301-8*cells)
		city, err := topo.BuildCity(topo.CityConfig{
			Nodes: n, CellsX: cx, CellsY: cy, Seed: seed,
			HotspotCell: int(hotCell) % cells, HotspotFraction: float64(hotTenths%10) / 10,
		})
		if err != nil {
			t.Skip(err)
		}
		cfg := ShardedConfig{
			City:     city,
			Seed:     seed,
			Duration: sim.Second,
			Rate:     2.0,
			StartAt:  sim.Second / 4,
		}
		if budget%2 == 1 {
			cfg.EventBudget = 1000 + uint64(budget)%20_000
		}
		matchBarrier(t, cfg)
	})
}

package stats_test

import (
	"fmt"
	"testing"

	"qma/internal/dsme"
	"qma/internal/mac"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/topo"
)

// BenchmarkReplicateGrid measures ReplicateGrid on a fig21-22-shaped grid:
// one cell per (ring size, MAC) point over the 7-, 19-, 43- and 91-node DSME
// rings and three MACs, 2 replications each, at 1, 2 and 4 workers. One op
// is the whole sweep. The cells' costs grow with the ring size, so the
// sub-benchmarks show what the largest-first dispatch buys across cores.
func BenchmarkReplicateGrid(b *testing.B) {
	counts := topo.RingNodeCounts()
	nets := make([]*topo.Network, len(counts))
	for i, n := range counts {
		nets[i] = topo.RingsForCount(n)
	}
	macs := []mac.Name{scenario.QMA, scenario.CSMASlotted, scenario.CSMAUnslotted}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ests, errs := stats.ReplicateGrid(len(nets)*len(macs), 2, workers,
					func(cell int, seed uint64) map[string]float64 {
						res := dsme.RunScenario(dsme.ScenarioConfig{
							Network:  nets[cell/len(macs)],
							MAC:      macs[cell%len(macs)],
							Seed:     seed,
							Duration: 60 * sim.Second,
							Warmup:   20 * sim.Second,
						})
						return map[string]float64{"requests": res.Metrics.RequestSuccessRatio()}
					})
				if len(errs) > 0 || len(ests) != len(nets)*len(macs) {
					b.Fatalf("sweep failed: %d cells, errors %v", len(ests), errs)
				}
			}
		})
	}
}

package scenario

import (
	"fmt"
	"testing"

	"qma/internal/sim"
	"qma/internal/topo"
)

// BenchmarkRunShardedWorkers measures the end-to-end sharded runner — cell
// builds, the dependency-driven scheduler, the boundary exchange — on a
// 9-cell city at 1/2/4 workers. One op is one complete RunSharded call. The
// workers=N subs give the speedup across cores, up to the host's core count,
// and the perf gate holds each against its parent, so per-epoch scheduling
// overhead cannot creep in at any worker count.
func BenchmarkRunShardedWorkers(b *testing.B) {
	const nodes = 1800
	city := topo.NewCity(topo.CityConfig{Nodes: nodes, CellsX: 3, CellsY: 3, Seed: 1})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := RunSharded(ShardedConfig{
					City:     city,
					Seed:     1,
					Duration: 2 * sim.Second,
					Rate:     1.0,
					StartAt:  sim.Second / 2,
					Parallel: workers,
				})
				if res.Events == 0 {
					b.Fatal("no events processed")
				}
			}
		})
	}
}

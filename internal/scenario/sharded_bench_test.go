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

// BenchmarkRunShardedCellSize measures how the cost of one event grows with
// the size of a cell: a one-cell city at the city benchmark's traffic (0.03
// pkt/s per device from 2 s) for N = 2,000, 7,000 and 10,000 devices. At
// every subslot boundary each queued node ticks at the same instant, so a
// large cell runs thousands of same-instant engine ticks whose engine
// blocks no longer fit in cache. One op is one RunSharded call; the
// reported metric is wall time per kernel event.
func BenchmarkRunShardedCellSize(b *testing.B) {
	for _, nodes := range []int{2000, 7000, 10000} {
		b.Run(fmt.Sprintf("N=%d", nodes), func(b *testing.B) {
			city := topo.NewCity(topo.CityConfig{Nodes: nodes, CellsX: 1, CellsY: 1, Seed: 1})
			var events uint64
			for i := 0; i < b.N; i++ {
				res := RunSharded(ShardedConfig{
					City:     city,
					Seed:     1,
					Duration: 10 * sim.Second,
					Rate:     0.03,
					StartAt:  2 * sim.Second,
					Parallel: 1,
				})
				events += res.Events
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}

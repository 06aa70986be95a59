package dsme

import (
	"testing"

	"qma/internal/mac"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/topo"
)

// BenchmarkDSMERings runs the §6.3 data-collection scenario on the 91-node
// concentric rings, the largest topology of Figs. 21–22: one 30 s run (10 s
// warm-up) per iteration, with QMA and with slotted CSMA/CA in the CAP. It
// reports kernel events per wall-clock second; -benchmem shows what the
// GTS path, the CAP engines and the traffic sources allocate per run.
//
//	go test -run '^$' -bench BenchmarkDSMERings -benchmem ./internal/dsme
func BenchmarkDSMERings(b *testing.B) {
	for _, mk := range []mac.Name{scenario.QMA, scenario.CSMASlotted} {
		b.Run(string(mk), func(b *testing.B) {
			net := topo.RingsForCount(91)
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				res := RunScenario(ScenarioConfig{
					Network:  net,
					MAC:      mk,
					Seed:     1,
					Duration: 30 * sim.Second,
					Warmup:   10 * sim.Second,
				})
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

package experiments

import (
	"fmt"

	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/topo"
	"qma/internal/traffic"
)

func init() {
	register("scale", RunScale)
}

// scaleCounts returns the factory-hall sizes to sweep: the quick mode stays
// CI-friendly, the full mode exercises the 10,000-node regime the spatial
// index exists for.
func scaleCounts(mode Mode) []int {
	if mode.Reps >= 10 {
		return []int{100, 1000, 10000}
	}
	return []int{100, 1000}
}

// RunScale characterizes the large-N scenario family end to end: routing
// reach, medium link counts, kernel event volume and delivery for
// random-uniform factory halls of increasing size. Every column is
// deterministic (seed-stable), preserving the suite invariant that repeated
// runs and different -parallel values render byte-identical output;
// wall-clock throughput lives in `qma-sim -scale` and
// BenchmarkFactoryHallEventsPerSec, where timing belongs.
func RunScale(mode Mode) []*Table {
	t := &Table{
		ID:    "Scale",
		Title: "factory-hall scaling: topology, link and event volume vs node count",
		Columns: []string{
			"N", "routed", "decode edges", "sim [s]",
			"events", "events/sim-s", "PDR",
		},
	}
	simSeconds := 5.0
	if mode.Reps >= 10 {
		simSeconds = 20.0
	}
	for _, n := range scaleCounts(mode) {
		net := topo.FactoryHall(topo.FactoryConfig{Nodes: n, Seed: 42})
		pt := net.Topology.(*radio.PathLossTopology)
		routed, edges := 0, 0
		var cand []frame.NodeID
		for i := 0; i < n; i++ {
			id := frame.NodeID(i)
			if i != 0 && net.Depth(id) >= 0 {
				routed++
			}
			cand = pt.AppendLinks(id, cand[:0])
			for _, j := range cand {
				if radio.Decodes(pt, id, j) {
					edges++
				}
			}
		}

		cfg := scenario.Config{
			Network:  net,
			MAC:      scenario.QMA,
			Seed:     1,
			Duration: sim.FromSeconds(simSeconds),
		}
		for i := 1; i < n; i++ {
			id := frame.NodeID(i)
			if net.Depth(id) < 0 {
				continue
			}
			cfg.Traffic = append(cfg.Traffic, scenario.TrafficSpec{
				Origin: id, Phases: []traffic.Phase{{Rate: 0.5}},
				StartAt: 1 * sim.Second, Tag: frame.TagEval,
			})
		}
		res := scenario.Run(cfg)

		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d/%d", routed, n-1),
			fmt.Sprintf("%d", edges),
			f2(simSeconds),
			fmt.Sprintf("%d", res.Events),
			fmt.Sprintf("%.0f", float64(res.Events)/simSeconds),
			f3(res.NetworkPDR()),
		)
	}
	t.Notes = append(t.Notes,
		"all columns are seed-stable; wall-clock build time and events/s live in `qma-sim -scale` and BenchmarkFactoryHallEventsPerSec",
		"short runs leave QMA mid-learning — the PDR column tracks contention behaviour at scale, not the converged figures")
	return []*Table{t}
}

package experiments

import (
	"fmt"

	"qma/internal/dsme"
	"qma/internal/mac"
	"qma/internal/scenario"
	"qma/internal/stats"
	"qma/internal/topo"
)

func init() {
	register("fig21-22", RunDSMEScalability)
}

// RunDSMEScalability regenerates Fig. 21 (PDR of secondary traffic during
// the CAP) and Fig. 22 (percentage of successful GTS-requests) for the
// concentric topologies with 7, 19, 43 and 91 nodes, plus the
// "(de)allocated TDMA-slots per second" and primary-PDR observations of
// §6.3.1.
func RunDSMEScalability(mode Mode) []*Table {
	counts := topo.RingNodeCounts()
	macs := []mac.Name{scenario.QMA, scenario.CSMASlotted, scenario.CSMAUnslotted}

	fig21 := &Table{ID: "Fig. 21", Title: "DSME: PDR of secondary traffic during the CAP vs number of nodes",
		Columns: []string{"nodes"}}
	fig22 := &Table{ID: "Fig. 22", Title: "DSME: successful GTS-requests [%] vs number of nodes",
		Columns: []string{"nodes"}}
	allocs := &Table{ID: "§6.3.1a", Title: "DSME: completed (de)allocation handshakes per second",
		Columns: []string{"nodes"}}
	primary := &Table{ID: "§6.3.1b", Title: "DSME: PDR of primary traffic (GTS data path)",
		Columns: []string{"nodes"}}
	for _, mk := range macs {
		fig21.Columns = append(fig21.Columns, mk.String())
		fig22.Columns = append(fig22.Columns, mk.String())
		allocs.Columns = append(allocs.Columns, mk.String())
		primary.Columns = append(primary.Columns, mk.String())
	}

	// One grid cell per (node count, MAC) point, sharded across one pool.
	ests, repErrs := stats.ReplicateGrid(len(counts)*len(macs), mode.Reps, mode.Parallel,
		func(cell int, seed uint64) map[string]float64 {
			count, mk := counts[cell/len(macs)], macs[cell%len(macs)]
			res := dsme.RunScenario(dsme.ScenarioConfig{
				Network:  topo.RingsForCount(count),
				MAC:      mk,
				Seed:     seed,
				Duration: mode.DSMEDuration,
				Warmup:   mode.DSMEWarmup,
			})
			return map[string]float64{
				"secondary": res.Metrics.SecondaryPDR(),
				"requests":  res.Metrics.RequestSuccessRatio(),
				"allocs":    res.AllocationsPerSecond,
				"primary":   res.Metrics.PrimaryPDR(),
			}
		})
	for ci2, count := range counts {
		rows := [4][]string{{fmt.Sprintf("%d", count)}, {fmt.Sprintf("%d", count)},
			{fmt.Sprintf("%d", count)}, {fmt.Sprintf("%d", count)}}
		for mi := range macs {
			est := ests[ci2*len(macs)+mi]
			rows[0] = append(rows[0], ci(est["secondary"].Mean, est["secondary"].CI))
			rows[1] = append(rows[1], ci(est["requests"].Mean, est["requests"].CI))
			rows[2] = append(rows[2], ci(est["allocs"].Mean, est["allocs"].CI))
			rows[3] = append(rows[3], ci(est["primary"].Mean, est["primary"].CI))
		}
		fig21.AddRow(rows[0]...)
		fig22.AddRow(rows[1]...)
		allocs.AddRow(rows[2]...)
		primary.AddRow(rows[3]...)
	}
	fig21.Notes = append(fig21.Notes,
		"paper: QMA above both CSMA/CA variants for every node count, with the gap largest at few nodes")
	allocs.Notes = append(allocs.Notes,
		"paper claims up to 2x more (de)allocations per second for QMA; without DSME CAP reduction our CAP is less congested and CSMA/CA completes handshakes more often than the paper's (see EXPERIMENTS.md)")
	noteRepErrors(fig21, repErrs)
	return []*Table{fig21, fig22, allocs, primary}
}

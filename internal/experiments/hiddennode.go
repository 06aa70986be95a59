package experiments

import (
	"fmt"

	"qma/internal/core"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/topo"
	"qma/internal/traffic"
)

func init() {
	register("fig07-09", RunHiddenNodeSweep)
	register("fig10-11", RunConvergence)
	register("fig12", RunAdaptability)
	register("fig13-15", RunSlotUtilization)
}

// sweepDeltas returns the packet generation rates of Fig. 7–9.
func sweepDeltas(mode Mode) []float64 {
	if mode.Reps >= 10 {
		return []float64{1, 2, 4, 6, 8, 10, 25, 50, 100}
	}
	return []float64{1, 4, 10, 25, 50, 100}
}

// sweepMACs returns the three channel access schemes of §6.1.
func sweepMACs() []mac.Name {
	return []mac.Name{scenario.QMA, scenario.CSMASlotted, scenario.CSMAUnslotted}
}

// hiddenNodeConfig builds the §6.1 run: A and C send Poisson(δ) traffic to
// the sink B; low-rate management traffic from t≈0 stands in for the
// association phase the paper lets precede data generation.
func hiddenNodeConfig(mk mac.Name, delta float64, mode Mode, seed uint64) scenario.Config {
	gen := sim.FromSeconds(float64(mode.Packets) / delta)
	return scenario.Config{
		Network:  topo.HiddenNode(),
		MAC:      mk,
		Seed:     seed,
		Duration: mode.Warmup + gen + 30*sim.Second,
		Traffic: []scenario.TrafficSpec{
			{Origin: 0, Phases: []traffic.Phase{{Rate: 0.2}}, StartAt: 1 * sim.Second, Tag: frame.TagManagement},
			{Origin: 2, Phases: []traffic.Phase{{Rate: 0.2}}, StartAt: 1 * sim.Second, Tag: frame.TagManagement},
			{Origin: 0, Phases: []traffic.Phase{{Rate: delta}}, StartAt: mode.Warmup, MaxPackets: mode.Packets, Tag: frame.TagEval},
			{Origin: 2, Phases: []traffic.Phase{{Rate: delta}}, StartAt: mode.Warmup, MaxPackets: mode.Packets, Tag: frame.TagEval},
		},
		MeasureFrom: mode.Warmup,
	}
}

// streamFor turns cfg into a run of duration d whose sources stream for the
// whole run instead of stopping after their packet budget.
func streamFor(cfg scenario.Config, d sim.Time) scenario.Config {
	cfg.Duration = d
	for i := range cfg.Traffic {
		cfg.Traffic[i].MaxPackets = 0
	}
	return cfg
}

// RunHiddenNodeSweep regenerates Fig. 7 (PDR), Fig. 8 (average queue level)
// and Fig. 9 (end-to-end delay) for nodes A and C of the hidden-node
// scenario across packet generation rates.
func RunHiddenNodeSweep(mode Mode) []*Table {
	pdr := &Table{ID: "Fig. 7", Title: "hidden node: packet delivery ratio of A and C vs δ",
		Columns: []string{"δ [pkt/s]"}}
	queue := &Table{ID: "Fig. 8", Title: "hidden node: average queue level of A and C vs δ",
		Columns: []string{"δ [pkt/s]"}}
	delay := &Table{ID: "Fig. 9", Title: "hidden node: average end-to-end delay [s] of A and C vs δ",
		Columns: []string{"δ [pkt/s]"}}
	for _, mk := range sweepMACs() {
		pdr.Columns = append(pdr.Columns, mk.String())
		queue.Columns = append(queue.Columns, mk.String())
		delay.Columns = append(delay.Columns, mk.String())
	}

	// One grid cell per (δ, MAC) point: the whole sweep shares one worker
	// pool instead of parallelizing only within a point's few replications.
	deltas := sweepDeltas(mode)
	macs := sweepMACs()
	est, repErrs := stats.ReplicateGrid(len(deltas)*len(macs), mode.Reps, mode.Parallel,
		func(cell int, seed uint64) map[string]float64 {
			delta, mk := deltas[cell/len(macs)], macs[cell%len(macs)]
			cfg := hiddenNodeConfig(mk, delta, mode, seed)
			res := scenario.Run(cfg)
			return map[string]float64{
				"pdr":   res.NetworkPDR(),
				"queue": res.MeanQueueLevel(0, 2),
				"delay": res.MeanDelay(),
			}
		})
	for di, delta := range deltas {
		pdrRow := []string{f2(delta)}
		queueRow := []string{f2(delta)}
		delayRow := []string{f2(delta)}
		for mi := range macs {
			e := est[di*len(macs)+mi]
			pdrRow = append(pdrRow, ci(e["pdr"].Mean, e["pdr"].CI))
			queueRow = append(queueRow, ci(e["queue"].Mean, e["queue"].CI))
			delayRow = append(delayRow, ci(e["delay"].Mean, e["delay"].CI))
		}
		pdr.AddRow(pdrRow...)
		queue.AddRow(queueRow...)
		delay.AddRow(delayRow...)
	}
	pdr.Notes = append(pdr.Notes,
		"paper: QMA ~0.97 at δ=25 while CSMA/CA collapses; QMA at δ=50 matches CSMA/CA at δ=10")
	queue.Notes = append(queue.Notes,
		"queue level averaged over the evaluation-traffic window (max queue = 8)")
	noteRepErrors(pdr, repErrs)
	return []*Table{pdr, queue, delay}
}

// seriesTable renders per-δ time series side by side, downsampled.
func seriesTable(id, title, unit string, series map[string]*stats.Series, order []string, rows int) *Table {
	t := &Table{ID: id, Title: title, Columns: []string{"t [s]"}}
	for _, k := range order {
		t.Columns = append(t.Columns, k+" "+unit)
	}
	var down []*stats.Series
	for _, k := range order {
		down = append(down, series[k].Downsample(rows))
	}
	n := 0
	for _, s := range down {
		if s.Len() > n {
			n = s.Len()
		}
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(order)+1)
		tSet := false
		for _, s := range down {
			if i < s.Len() {
				if !tSet {
					row = append(row, f2(s.At(i).T))
					tSet = true
				}
			}
		}
		for _, s := range down {
			if i < s.Len() {
				row = append(row, f2(s.At(i).V))
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// RunConvergence regenerates Fig. 10 (cumulative Q-values per frame) and
// Fig. 11 (exploration rate ρ, rolling 10-frame average) for δ ∈ {1,10,100}.
func RunConvergence(mode Mode) []*Table {
	duration := 450 * sim.Second
	if mode.Reps < 10 {
		duration = 250 * sim.Second
	}
	order := []string{"δ=1", "δ=10", "δ=100"}
	deltas := []float64{1, 10, 100}
	results := make([]*scenario.Result, len(deltas))
	errs := stats.ForEach(len(deltas), mode.Parallel, func(i int) {
		// Stream for the whole run, as in Fig. 10.
		cfg := streamFor(hiddenNodeConfig(scenario.QMA, deltas[i], mode, 1), duration)
		cfg.SamplePeriod = 122880 * sim.Microsecond // one superframe
		results[i] = scenario.Run(cfg)
	})
	if len(errs) > 0 {
		// Every slot feeds a series below; there is no partial rendering of a
		// time-series figure, so surface the structured failure.
		panic(errs[0])
	}
	cumQ := map[string]*stats.Series{}
	rho := map[string]*stats.Series{}
	for i, delta := range deltas {
		key := fmt.Sprintf("δ=%g", delta)
		cumQ[key] = results[i].Nodes[0].CumQ
		rho[key] = results[i].Nodes[0].Rho.Rolling(10)
	}
	t10 := seriesTable("Fig. 10", "cumulative Q-values per frame at node A over time", "ΣQ", cumQ, order, 24)
	t10.Notes = append(t10.Notes,
		"stability metric: a flat series means the policy stopped changing (§6.1.2)")
	t11 := seriesTable("Fig. 11", "exploration probability ρ (rolling 10-frame average) at node A", "ρ", rho, order, 24)
	return []*Table{t10, t11}
}

// RunAdaptability regenerates Fig. 12: node A alternates δ=10/δ=100 every
// 100 s while node C (δ=25) joins the network 100 s late; the cumulative
// Q-values of both nodes track every traffic change.
func RunAdaptability(mode Mode) []*Table {
	duration := 1400 * sim.Second
	if mode.Reps < 10 {
		duration = 700 * sim.Second
	}
	cfg := scenario.Config{
		Network:  topo.HiddenNode(),
		MAC:      scenario.QMA,
		Seed:     1,
		Duration: duration,
		Traffic: []scenario.TrafficSpec{
			{Origin: 0, Phases: []traffic.Phase{
				{Rate: 10, Duration: 100 * sim.Second},
				{Rate: 100, Duration: 100 * sim.Second},
			}, StartAt: 0, Tag: frame.TagEval},
			{Origin: 2, Phases: []traffic.Phase{{Rate: 25}}, StartAt: 100 * sim.Second, Tag: frame.TagEval},
		},
		SamplePeriod: 122880 * sim.Microsecond,
	}
	res := scenario.Run(cfg)
	series := map[string]*stats.Series{
		"node A": res.Nodes[0].CumQ,
		"node C": res.Nodes[2].CumQ,
	}
	t := seriesTable("Fig. 12", "cumulative Q-values per frame under fluctuating traffic (A alternates δ=10/100 per 100 s; C joins at 100 s with δ=25)",
		"ΣQ", series, []string{"node A", "node C"}, 28)
	t.Notes = append(t.Notes,
		"C \"joins late\" by starting its traffic at 100 s; expect A's series to step at every rate change and C to settle regardless")
	return []*Table{t}
}

// RunSlotUtilization regenerates Fig. 13–15: the subslot policies of nodes A
// and C after the first exploration phase and at the end of the run, for
// δ ∈ {1,10,100}. A collision-free schedule shows no subslot claimed by
// both nodes.
func RunSlotUtilization(mode Mode) []*Table {
	var tables []*Table
	cases := []struct {
		fig      string
		delta    float64
		snapshot sim.Time
	}{
		{"Fig. 13", 1, 370 * sim.Second},
		{"Fig. 14", 10, 150 * sim.Second},
		{"Fig. 15", 100, 170 * sim.Second},
	}
	// Two independent runs (snapshot, final) per case, all sharded together.
	results := make([]*scenario.Result, 2*len(cases))
	errs := stats.ForEach(len(results), mode.Parallel, func(i int) {
		c := cases[i/2]
		duration := c.snapshot
		if i%2 == 1 {
			duration += 200 * sim.Second
		}
		results[i] = scenario.Run(streamFor(hiddenNodeConfig(scenario.QMA, c.delta, mode, 1), duration))
	})
	if len(errs) > 0 {
		panic(errs[0]) // both runs of a case feed its table; no partial render
	}
	for idx, c := range cases {
		t := &Table{
			ID:      c.fig,
			Title:   fmt.Sprintf("subslot policies for δ=%g ('.'=QBackoff, C=QCCA, S=QSend)", c.delta),
			Columns: []string{"node", "when", "policy (subslots 0..53)"},
		}
		snap := results[2*idx]
		fin := results[2*idx+1]
		t.AddRow("A", fmt.Sprintf("after %s", c.snapshot), core.PolicyString(snap.Nodes[0].Policy))
		t.AddRow("C", fmt.Sprintf("after %s", c.snapshot), core.PolicyString(snap.Nodes[2].Policy))
		t.AddRow("A", "final", core.PolicyString(fin.Nodes[0].Policy))
		t.AddRow("C", "final", core.PolicyString(fin.Nodes[2].Policy))
		conflicts := 0
		pa, pc := fin.Nodes[0].Policy, fin.Nodes[2].Policy
		for m := range pa {
			if pa[m] != int(core.QBackoff) && pc[m] != int(core.QBackoff) {
				conflicts++
			}
		}
		t.Notes = append(t.Notes, fmt.Sprintf("final policies conflict in %d subslot(s); the paper reports collision-free schedules", conflicts))
		tables = append(tables, t)
	}
	return tables
}

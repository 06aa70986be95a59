package experiments

import (
	"fmt"

	"qma/internal/energy"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/superframe"
	"qma/internal/topo"
	"qma/internal/traffic"
)

func init() {
	register("baselines", RunBaselines)
}

// baselineCase is one topology of the cross-protocol comparison. The rate is
// chosen per topology so every protocol runs the same offered load in the
// regime where the paper's comparison is interesting: the hidden-node pair at
// the δ=10 knee where carrier sensing stops helping, the testbed tree and the
// factory hall in the sub-saturation regime multi-hop forwarding allows.
type baselineCase struct {
	name  string
	net   *topo.Network
	delta float64
	// packets and warmup override the mode's Packets/Warmup when non-zero —
	// the paper-scale hall track would otherwise simulate for hours.
	packets int
	warmup  sim.Time
	// budgeted selects the per-protocol event budgets profiled for the
	// 10k-node track; healthy runs stay far below them.
	budgeted bool
}

func baselineCases() []baselineCase {
	return []baselineCase{
		{name: "hidden-node", net: topo.HiddenNode(), delta: 10},
		{name: "tree10", net: topo.Tree10(), delta: 3},
		{name: "factory-hall-40", net: topo.FactoryHall(topo.FactoryConfig{Nodes: 40, Seed: 42}), delta: 2},
	}
}

// fullHallCase is the paper-scale track (ROADMAP: "baselines at paper
// scale"): the 10,000-node factory hall the spatial index and SoA hot state
// exist for, enabled in full mode only. δ=0.2 with 20 packets per source
// keeps one replication around 150 simulated seconds (~2×10⁸ kernel events),
// inside every protocol's profiled budget.
func fullHallCase() baselineCase {
	return baselineCase{
		name:     "factory-hall-10k",
		net:      topo.FactoryHall(topo.FactoryConfig{Nodes: 10000, Seed: 42}),
		delta:    0.2,
		packets:  20,
		warmup:   20 * sim.Second,
		budgeted: true,
	}
}

// fullHallEventBudgets caps one 10k-hall replication per protocol, so a
// protocol that collapses into a retry storm at scale truncates (and is
// reported as such) instead of pinning a worker for hours. Each budget is
// ~120 s of wall clock at the events/s wall rate measured by
// `go test -bench BenchmarkProtocolMatrix` (2026-08: aloha 2.2M, bandit
// 2.7M, csma-slotted 3.3M, csma-unslotted 3.6M, noma 2.8M, qma 5.5M) —
// roughly 1.5–3× the ~2×10⁸ events a healthy replication processes.
// Protocols without a profile entry get the most conservative budget.
var fullHallEventBudgets = map[mac.Name]uint64{
	"aloha":          250e6,
	"bandit":         330e6,
	"csma-slotted":   400e6,
	"csma-unslotted": 430e6,
	"noma":           330e6,
	"qma":            660e6,
}

const fullHallDefaultBudget uint64 = 250e6

// baselineMACs returns every registered protocol the family can compare
// fairly, in the registry's canonical order. The list is resolved at run
// time, so a newly registered protocol package joins the comparison without
// any edit here — the property the registry refactor exists to guarantee.
// Protocols declaring NeedsCapture are skipped: this family runs a
// capture-less medium, where a power-diverse MAC would only demonstrate that
// deliberately weak transmissions lose; they get their own capture-enabled
// family (the `noma` experiment) instead.
func baselineMACs() []mac.Name {
	var out []mac.Name
	for _, n := range mac.Names() {
		if p, ok := mac.Lookup(string(n)); ok && p.NeedsCapture {
			continue
		}
		out = append(out, n)
	}
	return out
}

// baselineConfig builds one run of the family: every routed non-sink node
// streams Poisson(δ) evaluation traffic towards the sink after a low-rate
// management phase, identically for every protocol under test. mult scales
// the evaluation rate and the per-source packet budget together over the
// same generation window, so a higher multiplier offers proportionally more
// packets into the same measurement interval (the overload family); at 1 the
// run is the family's own.
func baselineConfig(c baselineCase, mk mac.Name, mult float64, mode Mode, seed uint64) scenario.Config {
	packets, warmup := mode.Packets, mode.Warmup
	if c.packets > 0 {
		packets = c.packets
	}
	if c.warmup > 0 {
		warmup = c.warmup
	}
	gen := sim.FromSeconds(float64(packets) / c.delta)
	cfg := scenario.Config{
		Network:     c.net,
		MAC:         mk,
		Seed:        seed,
		Duration:    warmup + gen + 30*sim.Second,
		MeasureFrom: warmup,
	}
	if c.budgeted {
		budget, ok := fullHallEventBudgets[mk]
		if !ok {
			budget = fullHallDefaultBudget
		}
		cfg.EventBudget = budget
	}
	for i := 0; i < c.net.NumNodes(); i++ {
		id := frame.NodeID(i)
		if id == c.net.Sink || c.net.Depth(id) < 0 {
			continue
		}
		cfg.Traffic = append(cfg.Traffic,
			scenario.TrafficSpec{Origin: id, Phases: []traffic.Phase{{Rate: 0.2}},
				StartAt: 1 * sim.Second, Tag: frame.TagManagement},
			scenario.TrafficSpec{Origin: id, Phases: []traffic.Phase{{Rate: c.delta * mult}},
				StartAt: warmup, MaxPackets: int(float64(packets)*mult + 0.5), Tag: frame.TagEval},
		)
	}
	return cfg
}

// RunBaselines compares every registered MAC protocol — QMA, both CSMA/CA
// variants, pure and slotted ALOHA and the slot-bandit learner — on the
// hidden-node pair, the 10-node testbed tree and a 40-node factory hall:
// delivery, end-to-end latency, transmission cost per delivered packet and
// radio energy per delivered packet (AT86RF231 model, shared listening
// floor). One table per topology, one row per protocol.
func RunBaselines(mode Mode) []*Table {
	cases := baselineCases()
	if mode.Reps >= 10 {
		// Paper-scale track: the 10k-node hall joins the sweep in full mode
		// only, with the profiled per-protocol event budgets as a backstop.
		cases = append(cases, fullHallCase())
	}
	macs := baselineMACs()
	profile := energy.AT86RF231()
	capDuty := float64(superframe.DefaultConfig().CAPDuration()) / float64(superframe.DefaultConfig().SuperframeDuration())

	// One grid cell per (topology, protocol) pair; the whole family shares
	// one worker pool.
	est, repErrs := stats.ReplicateGrid(len(cases)*len(macs), mode.Reps, mode.Parallel,
		func(cell int, seed uint64) map[string]float64 {
			c, mk := cases[cell/len(macs)], macs[cell%len(macs)]
			cfg := baselineConfig(c, mk, 1, mode, seed)
			res := scenario.Run(cfg)
			capOn := sim.Time(float64(cfg.Duration) * capDuty)
			var attempts, mj, delivered float64
			for _, n := range res.Nodes {
				attempts += float64(n.MAC.TxAttempts)
				mj += energy.Account(profile, cfg.Duration, capOn, n.Radio).TotalMilliJoule()
				delivered += float64(n.Delivered)
			}
			out := map[string]float64{
				"pdr":       res.NetworkPDR(),
				"delay":     res.MeanDelay(),
				"delivered": delivered,
			}
			if res.Truncated {
				out["trunc"] = 1
			}
			if delivered > 0 {
				out["attPerPkt"] = attempts / delivered
				out["mjPerPkt"] = mj / delivered
			}
			return out
		})

	var tables []*Table
	for ti, c := range cases {
		t := &Table{
			ID:    "Baselines/" + c.name,
			Title: fmt.Sprintf("cross-protocol comparison on %s (δ=%g pkt/s per source)", c.name, c.delta),
			Columns: []string{
				"protocol", "PDR", "delay [s]", "attempts/delivered", "energy/delivered [mJ]",
			},
		}
		for mi, mk := range macs {
			e := est[ti*len(macs)+mi]
			// The per-delivered ratios are undefined when nothing arrived;
			// render n/a instead of a zero that reads like a perfect score.
			att, mjp := "n/a", "n/a"
			if e["delivered"].Mean > 0 {
				att = ci(e["attPerPkt"].Mean, e["attPerPkt"].CI)
				mjp = ci(e["mjPerPkt"].Mean, e["mjPerPkt"].CI)
			}
			name := mk.String()
			if e["trunc"].Mean > 0 {
				// The protocol hit its profiled event budget in at least one
				// replication; its metrics cover the truncated window only.
				name += " (truncated)"
			}
			t.AddRow(name,
				ci(e["pdr"].Mean, e["pdr"].CI),
				ci(e["delay"].Mean, e["delay"].CI),
				att, mjp)
		}
		tables = append(tables, t)
	}
	tables[0].Notes = append(tables[0].Notes,
		"protocol rows come from the registry (mac.Names()): a newly registered protocol package joins this family without edits here",
		"at the hidden-node pair carrier sensing cannot see the competing transmitter, so CSMA/CA buys nothing over ALOHA's random backoff (and wastes CAP on CCAs); QMA's learned schedule sidesteps the collisions entirely. In the multi-hop topologies the ordering flips: carrier sensing defers to the relay's traffic, pure ALOHA tramples it",
		"the slot bandit converges on a collision-free slot but serves at most ~1 frame per superframe per node, which caps its throughput and delay",
		"the energy column is dominated by the shared CAP listening floor (§6.2.1), so it mostly tracks 1/delivered")
	noteRepErrors(tables[0], repErrs)
	return tables
}

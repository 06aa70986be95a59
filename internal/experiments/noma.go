package experiments

import (
	"fmt"

	"qma/internal/energy"
	"qma/internal/mac"
	"qma/internal/noma"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/superframe"
)

func init() {
	register("noma", RunNoma)
}

// nomaRow is one protocol configuration of the capture comparison: the
// power-level learner at a point of the (K, capture threshold) sweep, or a
// single-power reference protocol.
type nomaRow struct {
	label     string
	mk        mac.Name
	opts      any
	captureDB float64
}

// nomaRows sweeps the two axes the power dimension introduces — the number
// of levels K and the capture threshold θ — against the single-power
// references. K=1 isolates the capture-threshold effect (no deliberate power
// diversity, capture can only trigger on path-loss RSSI gaps); θ=3/12 at
// K=2 brackets the 6 dB level step from below and above (at θ=12 a single
// 6 dB step can no longer capture on equal-gain links).
func nomaRows() []nomaRow {
	return []nomaRow{
		{"QMA", scenario.QMA, nil, 0},
		{"unslotted CSMA/CA", scenario.CSMAUnslotted, nil, 0},
		{"noma K=1 θ=6dB", noma.Proto, noma.Options{Levels: 1}, 6},
		{"noma K=2 θ=6dB", noma.Proto, noma.Options{Levels: 2}, 6},
		{"noma K=3 θ=6dB", noma.Proto, noma.Options{Levels: 3}, 6},
		{"noma K=2 θ=3dB", noma.Proto, noma.Options{Levels: 2}, 3},
		{"noma K=2 θ=12dB", noma.Proto, noma.Options{Levels: 2}, 12},
	}
}

// RunNoma compares the NOMA power-level Q-learning MAC across the (K, θ)
// sweep against QMA and unslotted CSMA/CA on the baseline topologies —
// hidden-node pair, testbed tree, 40-node factory hall. Beyond the usual
// delivery/latency/cost columns it reports captured receptions per delivered
// packet (how often two power levels actually shared a subslot) and charges
// transmit energy per power level through the AT86RF231 datasheet steps, so
// the mJ/delivered column credits the reduced-power transmissions honestly.
func RunNoma(mode Mode) []*Table {
	cases := baselineCases()
	rows := nomaRows()
	profile := energy.AT86RF231()
	capDuty := float64(superframe.DefaultConfig().CAPDuration()) / float64(superframe.DefaultConfig().SuperframeDuration())

	est, repErrs := stats.ReplicateGrid(len(cases)*len(rows), mode.Reps, mode.Parallel,
		func(cell int, seed uint64) map[string]float64 {
			c, row := cases[cell/len(rows)], rows[cell%len(rows)]
			cfg := baselineConfig(c, row.mk, 1, mode, seed)
			cfg.MACOptions = row.opts
			cfg.CaptureThresholdDB = row.captureDB
			res := scenario.Run(cfg)
			capOn := sim.Time(float64(cfg.Duration) * capDuty)
			var attempts, mj, delivered, captured float64
			for _, n := range res.Nodes {
				attempts += float64(n.MAC.TxAttempts)
				mj += energy.AccountPowered(profile, cfg.Duration, capOn, n.Radio,
					profile.MaxTxDBm(), n.PowerAirtime).TotalMilliJoule()
				delivered += float64(n.Delivered)
				captured += float64(n.Radio.RxCaptured)
			}
			out := map[string]float64{
				"pdr":       res.NetworkPDR(),
				"delay":     res.MeanDelay(),
				"delivered": delivered,
				"captured":  captured,
			}
			if delivered > 0 {
				out["attPerPkt"] = attempts / delivered
				out["mjPerPkt"] = mj / delivered
				out["capPerPkt"] = captured / delivered
			}
			return out
		})

	var tables []*Table
	for ti, c := range cases {
		t := &Table{
			ID:    "NOMA/" + c.name,
			Title: fmt.Sprintf("power-level Q-learning vs single-power MACs on %s (δ=%g pkt/s per source)", c.name, c.delta),
			Columns: []string{
				"protocol", "PDR", "delay [s]", "attempts/delivered", "energy/delivered [mJ]", "captured/delivered",
			},
		}
		for ri, row := range rows {
			e := est[ti*len(rows)+ri]
			att, mjp, capd := "n/a", "n/a", "n/a"
			if e["delivered"].Mean > 0 {
				att = ci(e["attPerPkt"].Mean, e["attPerPkt"].CI)
				mjp = ci(e["mjPerPkt"].Mean, e["mjPerPkt"].CI)
				capd = ci(e["capPerPkt"].Mean, e["capPerPkt"].CI)
			}
			t.AddRow(row.label,
				ci(e["pdr"].Mean, e["pdr"].CI),
				ci(e["delay"].Mean, e["delay"].CI),
				att, mjp, capd)
		}
		tables = append(tables, t)
	}
	tables[0].Notes = append(tables[0].Notes,
		"captured/delivered counts receptions that decoded through SINR capture despite an overlapping transmission — the direct evidence of two power levels sharing a subslot",
		"the single-power rows (QMA, CSMA/CA) run without capture and can never capture anyway: equal received powers always tie",
		"at θ=12dB a single 6 dB level step no longer clears the threshold on equal-gain links, so capture on the hidden-node pair needs the K=3 spread or geometry",
		"energy/delivered charges each power level at its AT86RF231 TX_PWR step draw, so reduced-level transmissions are cheaper than the flat 14 mA model would claim")
	noteRepErrors(tables[0], repErrs)
	return tables
}

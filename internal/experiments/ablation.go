package experiments

import (
	"qma/internal/qlearn"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/stats"
)

func init() {
	register("ablation", RunAblations)
}

// RunAblations quantifies the design choices the paper argues for, on the
// hidden-node scenario at δ=25 (where Fig. 7 shows the largest gap):
//
//   - exploration strategy: parameter-based (§4.2) vs decaying ε-greedy vs
//     constant ε — the paper's argument for queue-driven exploration;
//   - Q-value representation: float64 vs Q8.8 fixed point (§3.2) vs 8-bit
//     quantized (§7) — the resource-efficiency claim;
//   - cautious startup (§4.3) on vs off;
//   - ξ penalty (Eq. 5) vs the plain optimistic update (Eq. 2) — the
//     stochastic-environment extension;
//   - policy re-evaluation on decay (a variant Eq. 3 deliberately avoids).
func RunAblations(mode Mode) []*Table {
	t := &Table{
		ID:      "ablation",
		Title:   "design ablations on the hidden-node scenario, δ=25 pkt/s",
		Columns: []string{"variant", "PDR", "delay [s]", "avg queue"},
	}

	type variant struct {
		name string
		opts scenario.QMAOptions
	}
	paperLearn := qlearn.DefaultParams()
	noXi := paperLearn
	noXi.Xi = 0
	optimistic := paperLearn
	optimistic.Rule = qlearn.RuleOptimistic
	variants := []variant{
		{"paper defaults (parameter-based, float, ξ=2, startup)", scenario.QMAOptions{}},
		{"ε-greedy exploration (ε₀=0.3, half-life 30 s)", scenario.QMAOptions{
			Explorer: &qlearn.EpsilonGreedy{Eps0: 0.3, HalfLife: 30 * sim.Second, Min: 0.001}}},
		{"constant exploration (ε=0.05)", scenario.QMAOptions{
			Explorer: qlearn.Constant{Eps: 0.05}}},
		{"fixed-point Q8.8 table (§3.2)", scenario.QMAOptions{Table: scenario.TableFixed}},
		{"8-bit quantized table (§7)", scenario.QMAOptions{Table: scenario.TableQuant}},
		{"no cautious startup", scenario.QMAOptions{StartupSubslots: -1}},
		{"no ξ penalty (Eq. 5 with ξ=0)", scenario.QMAOptions{Learn: noXi}},
		{"pure optimistic rule (Eq. 2, no ξ, α=1)", scenario.QMAOptions{Learn: optimistic}},
		{"policy re-evaluation on decay", scenario.QMAOptions{ReevalOnDecay: true}},
	}

	ests, repErrs := stats.ReplicateGrid(len(variants), mode.Reps, mode.Parallel,
		func(cell int, seed uint64) map[string]float64 {
			cfg := hiddenNodeConfig(scenario.QMA, 25, mode, seed)
			cfg.QMA = variants[cell].opts
			res := scenario.Run(cfg)
			return map[string]float64{
				"pdr":   res.NetworkPDR(),
				"delay": res.MeanDelay(),
				"queue": res.MeanQueueLevel(0, 2),
			}
		})
	for vi, v := range variants {
		est := ests[vi]
		t.AddRow(v.name, ci(est["pdr"].Mean, est["pdr"].CI),
			ci(est["delay"].Mean, est["delay"].CI), ci(est["queue"].Mean, est["queue"].CI))
	}
	t.Notes = append(t.Notes,
		"the fixed-point and quantized variants should track the float table closely — the paper's resource argument",
		"the pure optimistic rule (no ξ) is expected to degrade: lucky collisions freeze bad policies (§3.1.1)")
	noteRepErrors(t, repErrs)
	return []*Table{t}
}

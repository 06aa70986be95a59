package experiments

import (
	"testing"

	"qma/internal/scenario"
	"qma/internal/sim"
)

// TestFullHallTrackGatingAndBudgets pins the paper-scale track's plumbing
// without running it (a 10k-node replication is a -full-only cost): the case
// joins the sweep only in full mode, its packets/warmup overrides replace
// the mode defaults, and every registered protocol resolves to a positive
// event budget.
func TestFullHallTrackGatingAndBudgets(t *testing.T) {
	c := fullHallCase()
	if c.net.NumNodes() != 10000 {
		t.Fatalf("full hall has %d nodes, want 10000", c.net.NumNodes())
	}
	if !c.budgeted || c.packets == 0 || c.warmup == 0 {
		t.Fatalf("full hall case must override packets/warmup and enable budgets: %+v", c)
	}

	mode := Full()
	cfg := baselineConfig(c, scenario.QMA, 1, mode, 1)
	if cfg.EventBudget == 0 {
		t.Error("full hall config has no event budget")
	}
	wantDur := c.warmup + sim.FromSeconds(float64(c.packets)/c.delta) + 30*sim.Second
	if cfg.Duration != wantDur {
		t.Errorf("full hall duration %v, want %v (case overrides, not mode defaults)", cfg.Duration, wantDur)
	}
	if cfg.MeasureFrom != c.warmup {
		t.Errorf("MeasureFrom %v, want the case warmup %v", cfg.MeasureFrom, c.warmup)
	}

	// Every registered protocol gets a budget: a profiled one or the
	// conservative default for protocols the profile has not seen.
	for _, mk := range baselineMACs() {
		pc := baselineConfig(c, mk, 1, mode, 1)
		if pc.EventBudget == 0 {
			t.Errorf("protocol %s resolves to no event budget", mk)
		}
		if _, profiled := fullHallEventBudgets[mk]; !profiled && pc.EventBudget != fullHallDefaultBudget {
			t.Errorf("unprofiled protocol %s got budget %d, want default %d", mk, pc.EventBudget, fullHallDefaultBudget)
		}
	}

	// Quick and golden modes must not pay for the hall.
	quickCases := baselineCases()
	for _, qc := range quickCases {
		if qc.budgeted {
			t.Errorf("quick case %s unexpectedly budgeted", qc.name)
		}
		if bc := baselineConfig(qc, scenario.QMA, 1, Quick(), 1); bc.EventBudget != 0 {
			t.Errorf("quick case %s got event budget %d", qc.name, bc.EventBudget)
		}
	}
}

package dsme

import (
	"fmt"
	"strings"
	"testing"

	"qma/internal/barring"
	"qma/internal/sim"
	"qma/internal/topo"
)

// TestScenarioConfigValidateRules pins every rule of ScenarioConfig.Validate:
// each case breaks one rule, Validate must name it, and RunScenario must
// panic with a message containing exactly that error.
func TestScenarioConfigValidateRules(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*ScenarioConfig)
		wantErr string
	}{
		{"no network", func(c *ScenarioConfig) { c.Network = nil }, "network topology is required"},
		{"zero duration", func(c *ScenarioConfig) { c.Duration = 0 }, "must be positive"},
		{"negative warmup", func(c *ScenarioConfig) { c.Warmup = -1 }, "out of [0, duration)"},
		{"warmup at duration", func(c *ScenarioConfig) { c.Warmup = c.Duration }, "out of [0, duration)"},
		{"unknown MAC", func(c *ScenarioConfig) { c.MAC = "token-ring" }, "unknown MAC protocol"},
		{"QMA table kind", func(c *ScenarioConfig) { c.QMA.Table = 7 }, "unknown table kind"},
		{"barring policy", func(c *ScenarioConfig) {
			c.Barring = barring.Config{Policy: "token-bucket"}
		}, "unknown policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ScenarioConfig{Network: topo.Rings(1), Duration: sim.Second}
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want an error mentioning %q", err, tc.wantErr)
			}
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, err.Error()) {
					t.Fatalf("RunScenario panicked with %q, want the Validate error %q", msg, err)
				}
			}()
			RunScenario(cfg)
		})
	}
	ok := ScenarioConfig{Network: topo.Rings(1), Duration: sim.Second}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

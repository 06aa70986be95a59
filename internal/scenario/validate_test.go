package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"qma/internal/barring"
	"qma/internal/core"
	"qma/internal/csma"
	"qma/internal/faults"
	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// TestConfigValidateRules pins every rule of Config.Validate: each case
// breaks one rule of an otherwise valid config, Validate must name it, and
// Run must panic with a message containing exactly that error.
func TestConfigValidateRules(t *testing.T) {
	base := func() Config {
		return Config{
			Network:  topo.HiddenNode(),
			Duration: 2 * sim.Second,
			Traffic:  []TrafficSpec{{Origin: 0, Phases: []traffic.Phase{{Rate: 1}}}},
		}
	}
	// unrouted: node 2 is linked to the sink but has no routing parent.
	unrouted := radio.NewGraphTopology(3)
	unrouted.AddLink(0, 1)
	unrouted.AddLink(1, 2)
	unroutedNet := &topo.Network{Name: "unrouted", Topology: unrouted, Sink: 1,
		Parent: []frame.NodeID{1, -1, -1}}
	star := topo.Star17(topo.StarConfig{})

	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"no network", func(c *Config) { c.Network = nil }, "network topology is required"},
		{"zero duration", func(c *Config) { c.Duration = 0 }, "must be positive"},
		{"summary with series", func(c *Config) {
			c.SummaryOnly, c.SamplePeriod = true, sim.Second
		}, "SummaryOnly is incompatible"},
		{"negative drop deadline", func(c *Config) { c.DropDeadline = -1 }, "must not be negative"},
		{"traffic origin range", func(c *Config) { c.Traffic[0].Origin = 3 }, "traffic origin 3 out of range"},
		{"negative traffic origin", func(c *Config) { c.Traffic[0].Origin = -1 }, "out of range"},
		{"traffic without phases", func(c *Config) { c.Traffic[0].Phases = nil }, "no phases"},
		{"traffic from the sink", func(c *Config) { c.Traffic[0].Origin = 1 }, "is the sink"},
		{"traffic starting in the past", func(c *Config) { c.Traffic[0].StartAt = -1 }, "traffic at node 0 starts in the past"},
		{"NaN phase rate", func(c *Config) { c.Traffic[0].Phases[0].Rate = math.NaN() }, "phase rate NaN"},
		{"infinite phase rate", func(c *Config) { c.Traffic[0].Phases[0].Rate = math.Inf(1) }, "phase rate +Inf"},
		{"negative phase rate", func(c *Config) { c.Traffic[0].Phases[0].Rate = -1 }, "phase rate -1"},
		{"negative phase duration", func(c *Config) { c.Traffic[0].Phases[0].Duration = -sim.Second }, "phase duration"},
		{"NaN capture threshold", func(c *Config) { c.CaptureThresholdDB = math.NaN() }, "capture threshold NaN"},
		{"infinite capture threshold", func(c *Config) { c.CaptureThresholdDB = math.Inf(1) }, "capture threshold +Inf"},
		{"negative capture threshold", func(c *Config) { c.CaptureThresholdDB = -2 }, "capture threshold -2"},
		{"unrouted traffic origin", func(c *Config) {
			c.Network = unroutedNet
			c.Traffic[0].Origin = 2
		}, "no route to the sink"},
		{"broadcast origin range", func(c *Config) {
			c.Broadcasts = []BroadcastSpec{{Origin: 5, Period: sim.Second}}
		}, "broadcast origin 5 out of range"},
		{"broadcast without period", func(c *Config) {
			c.Broadcasts = []BroadcastSpec{{Origin: 0}}
		}, "positive period"},
		{"broadcast starting in the past", func(c *Config) {
			c.Broadcasts = []BroadcastSpec{{Origin: 0, Period: sim.Second, StartAt: -3 * sim.Second}}
		}, "broadcast at node 0 starts in the past"},
		{"GE negative sojourn", func(c *Config) {
			c.Dynamics.Gilbert = radio.GilbertElliott{MeanGood: -1, MeanBad: sim.Second}
		}, "must not be negative"},
		{"GE one-sided sojourn", func(c *Config) {
			c.Dynamics.Gilbert = radio.GilbertElliott{MeanGood: sim.Second}
		}, "needs both"},
		{"GE loss range", func(c *Config) {
			c.Dynamics.Gilbert = radio.GilbertElliott{MeanGood: sim.Second, MeanBad: sim.Second, LossGood: -0.5}
		}, "[0,1]"},
		{"fade node range", func(c *Config) {
			c.Dynamics.Fades = []FadeSpec{{Node: 3, At: sim.Second, Duration: sim.Second}}
		}, "fade node 3"},
		{"fade in the past", func(c *Config) {
			c.Dynamics.Fades = []FadeSpec{{Node: 0, At: -1, Duration: sim.Second}}
		}, "in the past"},
		{"fade without duration", func(c *Config) {
			c.Dynamics.Fades = []FadeSpec{{Node: 0, At: sim.Second}}
		}, "positive duration"},
		{"churn node range", func(c *Config) {
			c.Dynamics.Churn = []ChurnSpec{{Node: -1, At: sim.Second}}
		}, "churn node -1"},
		{"churn in the past", func(c *Config) {
			c.Dynamics.Churn = []ChurnSpec{{Node: 0, At: -1}}
		}, "in the past"},
		{"moves on a graph topology", func(c *Config) {
			c.Dynamics.Moves = []MoveSpec{{Node: 0, At: sim.Second}}
		}, "position-based topology"},
		{"move node range", func(c *Config) {
			c.Network, c.Traffic = star, nil
			c.Dynamics.Moves = []MoveSpec{{Node: 17, At: sim.Second}}
		}, "move node 17"},
		{"move in the past", func(c *Config) {
			c.Network, c.Traffic = star, nil
			c.Dynamics.Moves = []MoveSpec{{Node: 1, At: -1}}
		}, "in the past"},
		{"fault node range", func(c *Config) {
			c.Faults.Reboots = []faults.Reboot{{Node: 9, At: sim.Second}}
		}, "reboot 0: node 9 out of range"},
		{"barring policy", func(c *Config) {
			c.Barring = barring.Config{Policy: "token-bucket"}
		}, "unknown policy"},
		{"unknown MAC", func(c *Config) { c.MAC = "token-ring" }, "unknown MAC protocol"},
		{"QMA table kind", func(c *Config) { c.QMA.Table = 7 }, "unknown table kind"},
		{"foreign MAC options", func(c *Config) {
			c.MAC, c.MACOptions = CSMAUnslotted, core.Options{}
		}, "options have type"},
		{"MAC options out of range", func(c *Config) {
			c.MAC, c.MACOptions = CSMAUnslotted, csma.Options{MinBE: 9}
		}, "must not exceed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want an error mentioning %q", err, tc.wantErr)
			}
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, err.Error()) {
					t.Fatalf("Run panicked with %q, want the Validate error %q", msg, err)
				}
			}()
			Run(cfg)
		})
	}

	// The base config, a Moves run on a position-based topology and an
	// all-zero DropDeadline/SamplePeriod/Barring pass.
	ok := base()
	if err := ok.Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	moves := Config{Network: star, Duration: sim.Second,
		Dynamics: DynamicsConfig{Moves: []MoveSpec{{Node: 3, At: sim.Second / 2, To: radio.Position{X: 1}}}}}
	if err := moves.Validate(); err != nil {
		t.Fatalf("moves on Star17 rejected: %v", err)
	}
}

// TestShardedConfigValidateRules pins every rule of ShardedConfig.Validate
// the same way: each case breaks one rule, Validate names it and RunSharded
// panics with exactly that error. A missing City is reported last, as
// ErrNoCity, so the public facade can validate before it builds the City.
func TestShardedConfigValidateRules(t *testing.T) {
	city := topo.NewCity(topo.CityConfig{Nodes: 40, Seed: 1})
	cases := []struct {
		name    string
		mutate  func(*ShardedConfig)
		wantErr string
	}{
		{"zero duration", func(c *ShardedConfig) { c.Duration = 0 }, "must be positive"},
		{"zero rate", func(c *ShardedConfig) { c.Rate = 0 }, "rate 0 must be positive"},
		{"NaN rate", func(c *ShardedConfig) { c.Rate = math.NaN() }, "must be positive and finite"},
		{"infinite rate", func(c *ShardedConfig) { c.Rate = math.Inf(1) }, "must be positive and finite"},
		{"negative start", func(c *ShardedConfig) { c.StartAt = -1 }, "must not be negative"},
		{"negative epoch", func(c *ShardedConfig) { c.Epoch = -1 }, "must not be negative"},
		{"negative window", func(c *ShardedConfig) { c.Window = -1 }, "must not be negative"},
		{"no city", func(c *ShardedConfig) { c.City = nil }, ErrNoCity.Error()},
		{"no city and no rate", func(c *ShardedConfig) { c.City, c.Rate = nil, 0 }, "rate 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ShardedConfig{City: city, Duration: sim.Second, Rate: 1}
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want an error mentioning %q", err, tc.wantErr)
			}
			defer func() {
				if msg := fmt.Sprint(recover()); msg != "scenario: "+err.Error() {
					t.Fatalf("RunSharded panicked with %q, want the Validate error %q", msg, err)
				}
			}()
			RunSharded(cfg)
		})
	}
}

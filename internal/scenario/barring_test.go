package scenario

import (
	"testing"

	"qma/internal/barring"
	"qma/internal/mac"
	"qma/internal/sim"
)

// barringConfig is a deliberately overloaded hidden-node run for the
// access-barring tests: δ=25 per sender saturates the pair, invariant checks
// armed so a miscounted or double-released frame fails loudly.
func barringConfig(mk mac.Name, seed uint64, b barring.Config) Config {
	cfg := hiddenNodeConfig(mk, 25, seed)
	cfg.Duration = 100 * sim.Second
	for i := range cfg.Traffic {
		if cfg.Traffic[i].StartAt == 60*sim.Second {
			cfg.Traffic[i].StartAt = 10 * sim.Second
		}
	}
	cfg.MeasureFrom = 10 * sim.Second
	cfg.Barring = b
	cfg.InvariantChecks = true
	return cfg
}

// TestBarringBitesUnderOverload pins that every controller policy actually
// gates channel access once the offered load saturates the pair, without
// locking the network out entirely.
func TestBarringBitesUnderOverload(t *testing.T) {
	for _, b := range []barring.Config{
		{Policy: barring.PolicyFixed, P: 0.3},
		{Policy: barring.PolicyAIMD},
		{Policy: barring.PolicyPID},
	} {
		res := Run(barringConfig(CSMAUnslotted, 9, b))
		var barred, delivered uint64
		for i := range res.Nodes {
			barred += res.Nodes[i].MAC.Barred
			delivered += res.Nodes[i].Delivered
		}
		if barred == 0 {
			t.Errorf("%s: overloaded run barred no attempts", b.Policy)
		}
		if delivered == 0 {
			t.Errorf("%s: barring locked the network out entirely", b.Policy)
		}
	}
}

// TestZeroBarringDrawsNothing pins the subsystem's core guarantee one layer
// below the public API: a disabled barring config yields a run identical to
// one that never mentions barring, per-node counters included.
func TestZeroBarringDrawsNothing(t *testing.T) {
	clean := Run(hiddenNodeConfig(QMA, 5, 7))
	cfg := hiddenNodeConfig(QMA, 5, 7)
	cfg.Barring = barring.Config{}
	cfg.DropPolicy = mac.TailDrop
	zero := Run(cfg)
	for i := range clean.Nodes {
		if clean.Nodes[i].MAC != zero.Nodes[i].MAC || clean.Nodes[i].Radio != zero.Nodes[i].Radio {
			t.Fatalf("node %d: zero-valued barring changed the run:\n%+v\n%+v",
				i, clean.Nodes[i].MAC, zero.Nodes[i].MAC)
		}
	}
	if clean.Events != zero.Events {
		t.Fatalf("event counts diverged: %d vs %d", clean.Events, zero.Events)
	}
}

// TestDeadlineDropCountsAtScenarioLevel drives the deadline drop policy
// through a saturated run: expired frames must be evicted and counted, and
// the invariant checkers must stay quiet (each evicted frame released
// exactly once). The deadline is tight (100 ms) because CSMA's own retry
// exhaustion already churns the queue on a sub-second scale under overload.
func TestDeadlineDropCountsAtScenarioLevel(t *testing.T) {
	cfg := barringConfig(CSMAUnslotted, 11, barring.Config{})
	cfg.DropPolicy = mac.DeadlineDrop
	cfg.DropDeadline = 100 * sim.Millisecond
	res := Run(cfg)
	var deadline uint64
	for i := range res.Nodes {
		deadline += res.Nodes[i].MAC.DeadlineDrops
	}
	if deadline == 0 {
		t.Error("saturated run with a 2 s residence deadline evicted nothing")
	}
}

// FuzzBarringScenario throws arbitrary barring controllers, drop policies
// and offered loads at the hidden-node scenario with the runtime invariant
// checkers armed: whatever the configuration, the run must complete without
// tripping an invariant, conserve packets, and replay byte-identically.
func FuzzBarringScenario(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(50), uint8(10), uint8(0), uint16(0))
	f.Add(uint8(1), uint8(1), uint8(5), uint8(20), uint8(1), uint16(2))
	f.Add(uint8(2), uint8(2), uint8(100), uint8(1), uint8(2), uint16(60))
	f.Add(uint8(3), uint8(1), uint8(0), uint8(30), uint8(1), uint16(1))
	f.Fuzz(func(t *testing.T, mkRaw, polRaw, pRaw, deltaRaw, dropRaw uint8, deadlineRaw uint16) {
		macs := []mac.Name{QMA, CSMAUnslotted, CSMASlotted}
		mk := macs[int(mkRaw)%len(macs)]
		policies := []barring.Policy{barring.PolicyFixed, barring.PolicyAIMD, barring.PolicyPID}
		drops := []mac.DropPolicy{mac.TailDrop, mac.DropOldest, mac.DeadlineDrop}

		b := barring.Config{
			Policy: policies[int(polRaw)%len(policies)],
			P:      float64(pRaw%101) / 100,
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("generated barring config invalid: %v", err)
		}
		build := func() Config {
			cfg := barringConfig(mk, uint64(mkRaw)+1, b)
			cfg.Duration = 40 * sim.Second
			for i := range cfg.Traffic {
				cfg.Traffic[i].Phases[0].Rate = float64(deltaRaw%30) + 1
				cfg.Traffic[i].MaxPackets = 200
			}
			cfg.DropPolicy = drops[int(dropRaw)%len(drops)]
			cfg.DropDeadline = sim.Time(deadlineRaw%90) * sim.Second
			return cfg
		}
		res := Run(build())
		for i := range res.Nodes {
			n := &res.Nodes[i]
			if n.Delivered > n.Generated {
				t.Fatalf("node %d delivered %d > generated %d", i, n.Delivered, n.Generated)
			}
		}
		again := Run(build())
		for i := range res.Nodes {
			if res.Nodes[i].MAC != again.Nodes[i].MAC || res.Nodes[i].Radio != again.Nodes[i].Radio {
				t.Fatalf("node %d: identical barring runs diverged:\n%+v\n%+v",
					i, res.Nodes[i].MAC, again.Nodes[i].MAC)
			}
		}
		if res.Events != again.Events {
			t.Fatalf("event counts diverged: %d vs %d", res.Events, again.Events)
		}
	})
}

package scenario

import (
	"testing"

	"qma/internal/faults"
	"qma/internal/mac"
	"qma/internal/sim"
)

// faultConfig is a short hidden-node run for the fault tests: evaluation
// traffic from 10 s, 60 s total, invariant checks armed.
func faultConfig(mk mac.Name, seed uint64, s faults.Schedule) Config {
	cfg := hiddenNodeConfig(mk, 5, seed)
	cfg.Duration = 60 * sim.Second
	for i := range cfg.Traffic {
		if cfg.Traffic[i].StartAt == 60*sim.Second {
			cfg.Traffic[i].StartAt = 10 * sim.Second
		}
	}
	cfg.MeasureFrom = 10 * sim.Second
	cfg.Faults = s
	cfg.InvariantChecks = true
	return cfg
}

func TestOutageSuppressesBothDirections(t *testing.T) {
	// Plain outage: the senders keep transmitting into the dead sink, so the
	// sink's receiver visibly drops their frames.
	deaf := Run(faultConfig(QMA, 3, faults.Schedule{
		Outages: []faults.Outage{{Node: 1, At: 20 * sim.Second, Duration: 5 * sim.Second}},
	}))
	if deaf.Nodes[1].MAC.FaultRxDropped == 0 {
		t.Error("sink outage dropped no inbound frames")
	}
	// Beacon-stopping outage: the senders lose sync and stand down instead.
	dark := Run(faultConfig(QMA, 3, faults.Schedule{
		Outages: []faults.Outage{{Node: 1, At: 20 * sim.Second, Duration: 5 * sim.Second, StopBeacons: true}},
	}))
	senders := dark.Nodes[0].MAC.FaultTxSuppressed + dark.Nodes[2].MAC.FaultTxSuppressed
	if senders == 0 {
		t.Error("beacon-stopping outage suppressed no sender transmissions")
	}
	clean := Run(faultConfig(QMA, 3, faults.Schedule{}))
	for name, res := range map[string]*Result{"deaf": deaf, "dark": dark} {
		if res.NetworkPDR() >= clean.NetworkPDR() {
			t.Errorf("%s outage did not reduce PDR: clean %.3f, outage %.3f", name, clean.NetworkPDR(), res.NetworkPDR())
		}
	}
}

// TestRebootWipesAndRecovers reboots a sender mid-run under every
// registered protocol, so each engine's mac.Engine.Reboot runs, and pins
// that the node counts the reboot and delivers again afterwards.
func TestRebootWipesAndRecovers(t *testing.T) {
	for _, mk := range mac.Names() {
		t.Run(string(mk), func(t *testing.T) {
			cfg := faultConfig(mk, 4, faults.Schedule{
				Reboots: []faults.Reboot{{Node: 0, At: 30 * sim.Second}},
			})
			if p, _ := mac.Lookup(string(mk)); p.NeedsCapture {
				cfg.CaptureThresholdDB = 6
			}
			if mk == "panic-test" {
				cfg.MACOptions = faultyOptions{Node: -1} // arm no panic
			}
			res := Run(cfg)
			if got := res.Nodes[0].MAC.Reboots; got != 1 {
				t.Errorf("node 0 counted %d reboots, want 1", got)
			}
			if res.Nodes[0].Delivered == 0 {
				t.Error("rebooted node never delivered again")
			}
		})
	}
}

func TestAckCorruptionCountsAndBites(t *testing.T) {
	res := Run(faultConfig(QMA, 5, faults.Schedule{
		AckCorruption: []faults.Window{{At: 20 * sim.Second, Duration: 3 * sim.Second}},
	}))
	var corrupted, retries uint64
	for i := range res.Nodes {
		corrupted += res.Nodes[i].MAC.AcksCorrupted
		retries += res.Nodes[i].MAC.TxFail
	}
	if corrupted == 0 {
		t.Error("ACK-corruption window corrupted no ACKs")
	}
	if retries == 0 {
		t.Error("corrupted ACKs produced no transmit failures")
	}
}

func TestEventBudgetTruncates(t *testing.T) {
	cfg := faultConfig(QMA, 6, faults.Schedule{})
	cfg.EventBudget = 1000
	res := Run(cfg)
	if !res.Truncated {
		t.Fatal("1000-event budget did not truncate a 60 s run")
	}
	full := faultConfig(QMA, 6, faults.Schedule{})
	if Run(full).Truncated {
		t.Error("unbudgeted run reports truncation")
	}
}

func TestBadFaultSchedulePanicsWithContext(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("out-of-range fault node did not panic")
		}
	}()
	Run(faultConfig(QMA, 1, faults.Schedule{
		Reboots: []faults.Reboot{{Node: 99, At: sim.Second}},
	}))
}

// FuzzFaultSchedule throws arbitrary outage/reboot/corruption scripts at the
// hidden-node scenario with the runtime invariant checkers armed: whatever
// the script, the run must complete without tripping an invariant, conserve
// packets, and replay byte-identically.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint16(20), uint16(5), uint8(0), uint16(30), false)
	f.Add(uint8(1), uint8(0), uint16(15), uint16(10), uint8(2), uint16(45), true)
	f.Add(uint8(2), uint8(2), uint16(0), uint16(60), uint8(1), uint16(1), true)
	f.Add(uint8(3), uint8(1), uint16(59), uint16(300), uint8(0), uint16(59), false)
	f.Fuzz(func(t *testing.T, mkRaw, nodeRaw uint8, atRaw, durRaw uint16, rebootNodeRaw uint8, rebootAtRaw uint16, beacons bool) {
		macs := []mac.Name{QMA, CSMAUnslotted, CSMASlotted}
		mk := macs[int(mkRaw)%len(macs)]
		node := int(nodeRaw) % 3
		at := sim.Time(atRaw%60) * sim.Second
		dur := sim.Time(durRaw%120)*sim.Second/2 + sim.Millisecond
		rebootNode := int(rebootNodeRaw) % 3
		rebootAt := sim.Time(rebootAtRaw%60) * sim.Second

		s := faults.Schedule{
			Outages:       []faults.Outage{{Node: node, At: at, Duration: dur, StopBeacons: beacons}},
			Reboots:       []faults.Reboot{{Node: rebootNode, At: rebootAt}},
			AckCorruption: []faults.Window{{At: at / 2, Duration: dur}},
			BeaconLoss:    []faults.BeaconLoss{{Node: (node + 1) % 3, At: at, Duration: dur}},
		}
		if err := s.Validate(3); err != nil {
			t.Fatalf("generated schedule invalid: %v", err)
		}
		res := Run(faultConfig(mk, uint64(mkRaw)+1, s))
		for i := range res.Nodes {
			n := &res.Nodes[i]
			if n.Delivered > n.Generated {
				t.Fatalf("node %d delivered %d > generated %d", i, n.Delivered, n.Generated)
			}
		}
		again := Run(faultConfig(mk, uint64(mkRaw)+1, s))
		for i := range res.Nodes {
			if res.Nodes[i].MAC != again.Nodes[i].MAC || res.Nodes[i].Radio != again.Nodes[i].Radio {
				t.Fatalf("node %d: identical fault runs diverged:\n%+v\n%+v", i, res.Nodes[i].MAC, again.Nodes[i].MAC)
			}
		}
		if res.Events != again.Events {
			t.Fatalf("event counts diverged: %d vs %d", res.Events, again.Events)
		}
	})
}

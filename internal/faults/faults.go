// Package faults defines deterministic infrastructure-level fault schedules
// for the robustness evaluation: coordinator/sink outages, node reboots that
// wipe volatile learning state, ACK-corruption windows and beacon loss. The
// channel-level disturbances of internal/scenario's DynamicsConfig perturb
// what the radio delivers; a fault Schedule perturbs the protocol machinery
// itself — the regime of the alarm-burst/recovery line of work (PAPERS.md).
//
// Everything is a fixed script: a Schedule draws no randomness of its own,
// and its zero value injects nothing, keeping every existing run
// byte-identical (the same convention DynamicsConfig pins).
package faults

import (
	"fmt"

	"qma/internal/sim"
)

// Outage takes one node — typically the coordinator/sink — completely off
// the network for [At, At+Duration): it neither receives nor acknowledges,
// and its own transmissions never reach the air. With StopBeacons the node
// is treated as the beacon source, so every other node additionally loses
// superframe synchronization for the beacon-aligned window derived by
// SuspendWindow and suspends channel access until resync.
type Outage struct {
	Node        int
	At          sim.Time
	Duration    sim.Time
	StopBeacons bool
}

// Reboot power-cycles one node at At: volatile MAC and learning state —
// Q-tables, policies, bandit value estimates, backoff progress, transmit
// queue, neighbour table, duplicate-rejection history — is wiped and the
// node re-enters its cautious startup phase. The radio finishes any in-air
// symbol; only state above the PHY is volatile.
type Reboot struct {
	Node int
	At   sim.Time
}

// Window is a global time window [At, At+Duration) during which every
// acknowledgement frame on the air is corrupted: receivers cannot decode
// ACKs, so transmitters see timeouts and retry even though the data got
// through. This isolates the ACK path, the classic asymmetric-failure mode.
type Window struct {
	At       sim.Time
	Duration sim.Time
}

// BeaconLoss makes one node miss every beacon inside [At, At+Duration)
// while the rest of the network stays synchronized. The node suspends
// channel access for the beacon-aligned window derived by SuspendWindow;
// its receiver stays on, so it keeps learning from overheard traffic.
type BeaconLoss struct {
	Node     int
	At       sim.Time
	Duration sim.Time
}

// Schedule is a deterministic fault script. The zero value is "no faults"
// and is guaranteed not to change a run in any way: arming a zero schedule
// schedules no events, draws no randomness and touches no node state.
type Schedule struct {
	// Outages are the coordinator/sink outage windows.
	Outages []Outage
	// Reboots are the node power-cycle events.
	Reboots []Reboot
	// AckCorruption are the global ACK-corruption windows.
	AckCorruption []Window
	// BeaconLoss are the per-node beacon-loss windows.
	BeaconLoss []BeaconLoss
}

// Enabled reports whether the schedule injects anything.
func (s *Schedule) Enabled() bool {
	return len(s.Outages) > 0 || len(s.Reboots) > 0 ||
		len(s.AckCorruption) > 0 || len(s.BeaconLoss) > 0
}

// Validate reports a descriptive error when the schedule is not realizable
// on a network of numNodes nodes.
func (s *Schedule) Validate(numNodes int) error {
	for i, o := range s.Outages {
		if o.Node < 0 || o.Node >= numNodes {
			return fmt.Errorf("faults: outage %d: node %d out of range [0,%d)", i, o.Node, numNodes)
		}
		if o.At < 0 {
			return fmt.Errorf("faults: outage %d: negative start %v", i, o.At)
		}
		if o.Duration <= 0 {
			return fmt.Errorf("faults: outage %d: duration %v must be positive", i, o.Duration)
		}
	}
	for i, r := range s.Reboots {
		if r.Node < 0 || r.Node >= numNodes {
			return fmt.Errorf("faults: reboot %d: node %d out of range [0,%d)", i, r.Node, numNodes)
		}
		if r.At < 0 {
			return fmt.Errorf("faults: reboot %d: negative instant %v", i, r.At)
		}
	}
	for i, w := range s.AckCorruption {
		if w.At < 0 {
			return fmt.Errorf("faults: ack corruption %d: negative start %v", i, w.At)
		}
		if w.Duration <= 0 {
			return fmt.Errorf("faults: ack corruption %d: duration %v must be positive", i, w.Duration)
		}
	}
	for i, b := range s.BeaconLoss {
		if b.Node < 0 || b.Node >= numNodes {
			return fmt.Errorf("faults: beacon loss %d: node %d out of range [0,%d)", i, b.Node, numNodes)
		}
		if b.At < 0 {
			return fmt.Errorf("faults: beacon loss %d: negative start %v", i, b.At)
		}
		if b.Duration <= 0 {
			return fmt.Errorf("faults: beacon loss %d: duration %v must be positive", i, b.Duration)
		}
	}
	return nil
}

// SuspendWindow maps a raw beacon-loss window [at, at+dur) onto the
// channel-access suspension it causes, given the superframe duration sfd.
// Beacons are implicit in this simulator — nodes synchronize through the
// shared superframe clock, with a notional beacon at every superframe start
// — so losing beacons translates into a suspension aligned to the beacon
// grid: sync is lost at the first beacon inside the window (a node coasts on
// its last good beacon until a beacon actually goes missing) and regained at
// the first beacon at or after the window's end. ok is false when the window
// contains no beacon at all, in which case the loss is absorbed entirely by
// coasting and nothing is suspended.
func SuspendWindow(sfd, at, dur sim.Time) (from, until sim.Time, ok bool) {
	if sfd <= 0 || dur <= 0 {
		return 0, 0, false
	}
	end := at + dur
	from = at
	if rem := at % sfd; rem != 0 {
		from = at - rem + sfd // first beacon at or after `at`
	}
	if from >= end {
		return 0, 0, false
	}
	until = end
	if rem := end % sfd; rem != 0 {
		until = end - rem + sfd // first beacon at or after `end`
	}
	return from, until, true
}

package scenario

import (
	"fmt"
	"hash/fnv"
	"testing"

	"qma/internal/barring"
	"qma/internal/faults"
	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// scriptedConfig is a 17-node path-loss star that arms every kind of
// set-up-time event a run can carry: a fade, a leave and a rejoin, two
// moves, a sink outage that stops the beacons, a reboot, an ACK-corruption
// window, a beacon loss, the start of measurement, the sampler and the
// barring loop.
func scriptedConfig() Config {
	cfg := Config{
		Network:      topo.Star17(topo.StarConfig{}),
		MAC:          QMA,
		Seed:         5,
		Duration:     24 * sim.Second,
		MeasureFrom:  4 * sim.Second,
		SamplePeriod: sim.Second,
		Barring:      barring.Config{Policy: barring.PolicyAIMD},
		Dynamics: DynamicsConfig{
			Fades: []FadeSpec{{Node: 2, At: 6 * sim.Second, Duration: sim.Second}},
			Churn: []ChurnSpec{
				{Node: 5, At: 7 * sim.Second, Leave: true},
				{Node: 5, At: 9 * sim.Second},
			},
			Moves: []MoveSpec{
				{Node: 3, At: 8 * sim.Second, To: radio.Position{X: 400}},
				{Node: 3, At: 11 * sim.Second, To: radio.Position{X: 1, Y: 1}},
			},
		},
		Faults: faults.Schedule{
			Outages:       []faults.Outage{{Node: 0, At: 10 * sim.Second, Duration: 2 * sim.Second, StopBeacons: true}},
			Reboots:       []faults.Reboot{{Node: 4, At: 13 * sim.Second}},
			AckCorruption: []faults.Window{{At: 15 * sim.Second, Duration: sim.Second}},
			BeaconLoss:    []faults.BeaconLoss{{Node: 6, At: 17 * sim.Second, Duration: sim.Second}},
		},
	}
	for i := 1; i < cfg.Network.NumNodes(); i++ {
		cfg.Traffic = append(cfg.Traffic, TrafficSpec{
			Origin:  frame.NodeID(i),
			Phases:  []traffic.Phase{{Rate: 8}},
			StartAt: sim.Second,
			Tag:     frame.TagEval,
		})
	}
	return cfg
}

// resultDigest is an FNV-64a hash over every field of a Result, the sampled
// series point by point.
func resultDigest(r *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v %v %v\n", r.Duration, r.Events, r.Truncated)
	if r.Summary != nil {
		fmt.Fprintf(h, "%+v\n", *r.Summary)
	}
	for _, n := range r.Nodes {
		fmt.Fprintf(h, "%v %q %+v %v %+v %+v %v %+v %v %v\n", n.ID, n.Label, n.Summary, n.AvgQueueLevel,
			n.MAC, n.Radio, n.PowerAirtime, n.Engine, n.Policy, n.TableBytes)
		for _, s := range []*stats.Series{n.CumQ, n.Rho, n.QueueSeries} {
			if s == nil {
				fmt.Fprint(h, "nil\n")
				continue
			}
			for i := 0; i < s.Len(); i++ {
				fmt.Fprintf(h, "%v ", s.At(i))
			}
			fmt.Fprint(h, "\n")
		}
	}
	return h.Sum64()
}

// TestScriptedEventsPinned pins the run that carries every set-up-time
// event kind bit for bit. No golden digest moves a node or loses a beacon,
// so this hash is what holds the scripted events' instants, their order
// among same-instant events and their effects fixed.
func TestScriptedEventsPinned(t *testing.T) {
	const want = 0x7763573626563fe1
	res := Run(scriptedConfig())
	if got := resultDigest(res); got != want {
		t.Errorf("scripted run digest = %#x, want %#x (events %d)", got, want, res.Events)
	}
}

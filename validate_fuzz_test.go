package qma_test

import (
	"fmt"
	"math"
	"testing"

	"qma"
)

// FuzzScenarioValidateRun builds short (≤2 s) scenarios from fuzzed values
// and pins the contract between Validate and Run: a scenario Validate
// rejects comes back from Run as the same error, never as a panic, and a
// scenario Validate accepts runs to completion. The inputs span traffic and
// broadcast origins and periods, one fade, churn event, outage and reboot,
// the drop policy and deadline, capture, the SummaryOnly/SampleSeries flags
// and the table kind, on the hidden-node triple or a 4-node custom topology
// whose node 3 is linked but unrouted.
func FuzzScenarioValidateRun(f *testing.F) {
	// custom, durMs, trOrigin, trRate, bcOrigin, bcPeriodMs, fadeNode,
	// fadeAtMs, fadeForMs, churnNode, churnAtMs, leave, outNode, outAtMs,
	// outForMs, rebootNode, rebootAtMs, drop, deadlineMs, captureDB,
	// summary, series, table
	f.Add(false, uint16(2000), int8(0), uint8(5), int8(2), int16(500), int8(-2), int16(0), int16(0),
		int8(-2), int16(0), false, int8(-2), int16(0), int16(0), int8(-2), int16(0), uint8(0), int16(0),
		int8(0), false, false, int16(0))
	// The unrouted origin: node 3 of the custom topology.
	f.Add(true, uint16(1000), int8(3), uint8(5), int8(-2), int16(0), int8(-2), int16(0), int16(0),
		int8(-2), int16(0), false, int8(-2), int16(0), int16(0), int8(-2), int16(0), uint8(0), int16(0),
		int8(0), false, false, int16(0))
	// Every disturbance at once on the custom topology, all valid.
	f.Add(true, uint16(2000), int8(2), uint8(20), int8(0), int16(100), int8(1), int16(300), int16(400),
		int8(2), int16(800), true, int8(1), int16(900), int16(200), int8(0), int16(1200), uint8(3), int16(250),
		int8(6), true, false, int16(2))
	// Rejected inputs, one rule each: a table kind that wraps in 8 bits,
	// SummaryOnly with series, a negative capture threshold, a zero duration
	// and an unknown drop policy.
	f.Add(false, uint16(2000), int8(0), uint8(5), int8(-2), int16(0), int8(-2), int16(0), int16(0),
		int8(-2), int16(0), false, int8(-2), int16(0), int16(0), int8(-2), int16(0), uint8(0), int16(0),
		int8(0), false, false, int16(256))
	f.Add(false, uint16(2000), int8(0), uint8(5), int8(-2), int16(0), int8(-2), int16(0), int16(0),
		int8(-2), int16(0), false, int8(-2), int16(0), int16(0), int8(-2), int16(0), uint8(0), int16(0),
		int8(0), true, true, int16(0))
	f.Add(false, uint16(2000), int8(0), uint8(5), int8(-2), int16(0), int8(-2), int16(0), int16(0),
		int8(-2), int16(0), false, int8(-2), int16(0), int16(0), int8(-2), int16(0), uint8(0), int16(0),
		int8(-3), false, false, int16(0))
	f.Add(false, uint16(0), int8(0), uint8(5), int8(-2), int16(0), int8(-2), int16(0), int16(0),
		int8(-2), int16(0), false, int8(-2), int16(0), int16(0), int8(-2), int16(0), uint8(0), int16(0),
		int8(0), false, false, int16(0))
	f.Add(false, uint16(2000), int8(0), uint8(5), int8(-2), int16(0), int8(-2), int16(0), int16(0),
		int8(-2), int16(0), false, int8(-2), int16(0), int16(0), int8(-2), int16(0), uint8(4), int16(0),
		int8(0), false, false, int16(0))
	f.Fuzz(func(t *testing.T, custom bool, durMs uint16, trOrigin int8, trRate uint8, bcOrigin int8,
		bcPeriodMs int16, fadeNode int8, fadeAtMs, fadeForMs int16, churnNode int8, churnAtMs int16,
		leave bool, outNode int8, outAtMs, outForMs int16, rebootNode int8, rebootAtMs int16,
		drop uint8, deadlineMs int16, captureDB int8, summary, series bool, table int16) {
		ms := func(v int16) float64 { return float64(v) / 1000 }
		topology := qma.HiddenNode()
		if custom {
			var err error
			topology, err = qma.NewTopology(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, 1, []int{1, -1, 1, -1})
			if err != nil {
				t.Fatal(err)
			}
		}
		sc := &qma.Scenario{
			Topology:            topology,
			Seed:                uint64(durMs),
			DurationSeconds:     float64(durMs%2001) / 1000,
			Traffic:             []qma.Traffic{{Origin: int(trOrigin), Phases: []qma.Phase{{Rate: float64(trRate % 50)}}}},
			DropPolicy:          []string{"", "tail", "oldest", "deadline", "lifo"}[drop%5],
			DropDeadlineSeconds: ms(deadlineMs),
			CaptureThresholdDB:  float64(captureDB),
			SummaryOnly:         summary,
			SampleSeries:        series,
			Table:               qma.TableKind(table),
		}
		if trRate >= 200 {
			sc.Traffic[0].Phases = nil
		}
		if bcOrigin >= 0 || bcPeriodMs != 0 {
			sc.Broadcasts = []qma.Broadcast{{Origin: int(bcOrigin), PeriodSeconds: ms(bcPeriodMs)}}
		}
		if fadeNode >= -1 || churnNode >= -1 {
			sc.Dynamics = &qma.Dynamics{}
			if fadeNode >= -1 {
				sc.Dynamics.Fades = []qma.Fade{{Node: int(fadeNode), AtSeconds: ms(fadeAtMs), ForSeconds: ms(fadeForMs)}}
			}
			if churnNode >= -1 {
				sc.Dynamics.Churn = []qma.Churn{{Node: int(churnNode), AtSeconds: ms(churnAtMs), Leave: leave}}
			}
		}
		if outNode >= -1 || rebootNode >= -1 {
			sc.Faults = &qma.Faults{}
			if outNode >= -1 {
				sc.Faults.Outages = []qma.Outage{{Node: int(outNode), AtSeconds: ms(outAtMs), ForSeconds: ms(outForMs)}}
			}
			if rebootNode >= -1 {
				sc.Faults.Reboots = []qma.RebootEvent{{Node: int(rebootNode), AtSeconds: ms(rebootAtMs)}}
			}
		}

		res, err := runRecovered(sc.Run)
		checkValidateRun(t, sc.Validate(), err, res != nil, sc)
	})
}

// FuzzMMTCValidateRun pins the same contract for the sharded city: the
// inputs span the device count, the cell grid, the duration in µs (down to
// sub-µs values that round to zero simulated time), the per-device rate,
// the epoch and window lengths and the MAC name, on ≤400-device cities run
// for ≤2 s.
func FuzzMMTCValidateRun(f *testing.F) {
	// nodes, cellsX, cellsY, durUs, rateTenths, epochMs, windowMs, mac
	f.Add(uint16(120), int8(2), int8(1), float64(500000), int8(5), int16(0), int16(0), "qma")
	// Rejected inputs, one rule each: a sub-µs duration, a zero rate, a
	// negative epoch, 10 devices on 4x4 cells and an unknown MAC.
	f.Add(uint16(40), int8(0), int8(0), float64(0.1), int8(1), int16(0), int16(0), "")
	f.Add(uint16(40), int8(1), int8(1), float64(100000), int8(0), int16(0), int16(0), "")
	f.Add(uint16(40), int8(1), int8(1), float64(100000), int8(1), int16(-5), int16(0), "")
	f.Add(uint16(10), int8(4), int8(4), float64(100000), int8(1), int16(0), int16(0), "")
	f.Add(uint16(40), int8(1), int8(1), float64(100000), int8(1), int16(0), int16(0), "carrier-pigeon")
	f.Fuzz(func(t *testing.T, nodes uint16, cellsX, cellsY int8, durUs float64, rateTenths int8,
		epochMs, windowMs int16, macName string) {
		sc := &qma.MMTCScenario{
			Nodes:           int(nodes % 401),
			CellsX:          int(cellsX),
			CellsY:          int(cellsY),
			MAC:             qma.MAC(macName),
			Seed:            uint64(nodes),
			DurationSeconds: math.Mod(durUs, 2e6) / 1e6,
			Rate:            float64(rateTenths) / 10,
			EpochSeconds:    float64(epochMs) / 1000,
			WindowSeconds:   float64(windowMs) / 1000,
			Parallel:        1,
		}
		res, err := runRecovered(sc.Run)
		checkValidateRun(t, sc.Validate(), err, res != nil, sc)
	})
}

// checkValidateRun asserts the Validate/Run contract on one input: verr is
// Validate's error, rerr and ok Run's error and whether it returned a result.
func checkValidateRun(t *testing.T, verr, rerr error, ok bool, sc any) {
	t.Helper()
	switch {
	case verr != nil && rerr == nil:
		t.Fatalf("Validate rejected the scenario (%v) but Run succeeded: %+v", verr, sc)
	case verr != nil && rerr.Error() != verr.Error():
		t.Fatalf("Run error %q differs from the Validate error %q", rerr, verr)
	case verr == nil && rerr != nil:
		t.Fatalf("Validate accepted the scenario but Run failed: %v\n%+v", rerr, sc)
	case verr == nil && !ok:
		t.Fatal("Run returned neither a result nor an error")
	}
}

// runRecovered calls run, converting a panic into an error naming it so the
// fuzz property reports it instead of crashing the harness.
func runRecovered[R any](run func() (*R, error)) (res *R, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("Run panicked: %v", v)
		}
	}()
	return run()
}

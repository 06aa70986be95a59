package dsme

import (
	"runtime"
	"testing"

	"qma/internal/mac"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/topo"
)

// maxMallocsPerSimSecond bounds the steady-state heap allocations of a
// 91-node DSME ring run per simulated second. Set-up allocates in
// proportion to the node count, not to the duration, so the difference
// between a 60 s and a 30 s run isolates what the running network
// allocates. The GTS path, the handshakes and the CAP engines recycle their
// frames, records and events; what remains is high-water growth that
// saturates: a node's first use of a GTS grid coordinate (its slot record),
// map and free-list growth, and the frame pool reaching its peak. That is
// about 64 objects per simulated second with QMA and 45 with slotted
// CSMA/CA, against some 35 000 kernel events; a per-transmission or
// per-handshake allocation would add thousands.
const maxMallocsPerSimSecond = 150

// TestDSMERingsAllocationCeiling pins that a DSME run allocates (almost)
// nothing per transmission or handshake: the extra 30 simulated seconds of
// a 60 s run over a 30 s run, with QMA and with slotted CSMA/CA in the CAP,
// stay under maxMallocsPerSimSecond heap objects per simulated second.
func TestDSMERingsAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	net := topo.RingsForCount(91)
	mallocs := func(mk mac.Name, d sim.Time) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		RunScenario(ScenarioConfig{Network: net, MAC: mk, Seed: 1, Duration: d, Warmup: 10 * sim.Second})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, mk := range []mac.Name{scenario.QMA, scenario.CSMASlotted} {
		short, long := mallocs(mk, 30*sim.Second), mallocs(mk, 60*sim.Second)
		perSec := (float64(long) - float64(short)) / 30
		t.Logf("%s: %d mallocs in 30 s, %d in 60 s: %.1f per simulated second", mk, short, long, perSec)
		if perSec > maxMallocsPerSimSecond {
			t.Errorf("%s: %.1f mallocs per simulated second, want <= %d", mk, perSec, maxMallocsPerSimSecond)
		}
	}
}

// TestScenarioFramePoolStaysBalanced pins the frame pool's symmetry: every
// frame the DSME layer or its CAP engines return to the pool came from it,
// and none comes back twice. InvariantChecks arms the pool's release
// checker, which panics on the first Put of a frame the pool has not handed
// out: a path that recycles a frame it built itself (say, a heap-allocated
// command frame recycled by the CAP MAC) or returns one twice.
func TestScenarioFramePoolStaysBalanced(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	for _, mk := range []mac.Name{scenario.QMA, scenario.CSMASlotted} {
		res := RunScenario(ScenarioConfig{
			Network:         topo.RingsForCount(43),
			MAC:             mk,
			Seed:            2,
			Duration:        40 * sim.Second,
			Warmup:          10 * sim.Second,
			InvariantChecks: true,
		})
		if res.Metrics.RequestsSent == 0 {
			t.Errorf("%s: no GTS request was sent, so the CAP engines recycled nothing", mk)
		}
	}
}

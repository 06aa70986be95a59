package dsme

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"qma/internal/barring"
	"qma/internal/mac"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/superframe"
	"qma/internal/topo"
	"qma/internal/traffic"
)

func TestSlotMapStates(t *testing.T) {
	cfg := superframe.DefaultConfig()
	m := NewSlotMap(cfg)
	g := superframe.GTS{Superframe: 1, Slot: 3, Channel: 7}

	if m.State(g) != SlotFree {
		t.Fatalf("initial state = %v, want free", m.State(g))
	}
	m.Set(g, SlotTX, 4)
	if m.State(g) != SlotTX || m.Peer(g) != 4 {
		t.Fatalf("after Set: state=%v peer=%d", m.State(g), m.Peer(g))
	}
	// MarkNeighbor must not overwrite ownership.
	m.MarkNeighbor(g, 5*sim.Second)
	if m.State(g) != SlotTX {
		t.Fatalf("MarkNeighbor overwrote owned slot: %v", m.State(g))
	}
	if first, ok := m.Nth(SlotTX, 0); m.Count(SlotTX) != 1 || !ok || first != g {
		t.Fatalf("Count/Nth inconsistent")
	}
	if _, ok := m.Nth(SlotTX, 1); ok {
		t.Fatalf("Nth(SlotTX, 1) found a second slot")
	}
	m.Clear(g)
	if m.State(g) != SlotFree || m.Peer(g) != -1 {
		t.Fatalf("Clear failed: %v %d", m.State(g), m.Peer(g))
	}
}

func TestSlotMapPickFree(t *testing.T) {
	cfg := superframe.DefaultConfig()
	m := NewSlotMap(cfg)
	total := cfg.GTSPerMultiframe()

	// Fill every slot except one; any pick index must return it.
	keep := superframe.GTS{Superframe: 0, Slot: 4, Channel: 9}
	for i := 0; i < total; i++ {
		g := superframe.GTSFromIndex(cfg, i)
		if g != keep {
			m.Set(g, SlotNeighbor, -1)
		}
	}
	for _, n := range []int{0, 1, 7, -3, 1 << 19} {
		g, ok := m.PickFree(n)
		if !ok || g != keep {
			t.Fatalf("PickFree(%d) = %v/%v, want %v", n, g, ok, keep)
		}
	}
	m.Set(keep, SlotTX, 1)
	if _, ok := m.PickFree(0); ok {
		t.Fatal("PickFree on a full map reported a free slot")
	}
}

func TestSlotMapPickFreeProperty(t *testing.T) {
	cfg := superframe.DefaultConfig()
	prop := func(occupied []uint16, pick int16) bool {
		m := NewSlotMap(cfg)
		for _, o := range occupied {
			m.Set(superframe.GTSFromIndex(cfg, int(o)%cfg.GTSPerMultiframe()), SlotNeighbor, -1)
		}
		g, ok := m.PickFree(int(pick))
		if !ok {
			return m.Count(SlotFree) == 0
		}
		return m.State(g) == SlotFree
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// twoNodeConfig wires one child streaming to the sink.
func twoNodeConfig(mk mac.Name, seed uint64) ScenarioConfig {
	net := topo.HiddenNode() // A and C stream to B over GTS
	return ScenarioConfig{
		Network:  net,
		MAC:      mk,
		Seed:     seed,
		Duration: 180 * sim.Second,
		Warmup:   60 * sim.Second,
		Phases:   []traffic.Phase{{Rate: 5}},
	}
}

func TestGTSAllocationAndDataDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	res := RunScenario(twoNodeConfig(scenario.QMA, 1))
	// Both leaves must end up owning TX slots.
	if res.SlotsOwned[0] == 0 || res.SlotsOwned[2] == 0 {
		t.Fatalf("slots owned = %v, want both leaves > 0", res.SlotsOwned)
	}
	// Primary data flows through the allocated GTS.
	m := res.Metrics
	if m.PrimaryGenerated == 0 {
		t.Fatal("no primary packets generated")
	}
	if pdr := m.PrimaryPDR(); pdr < 0.9 {
		t.Errorf("primary PDR = %.3f, want >= 0.9 (δ=5 is far below GTS capacity)", pdr)
	}
	// Handshakes completed.
	var completed uint64
	for _, ns := range res.Nodes {
		completed += ns.AllocCompleted
	}
	if completed == 0 {
		t.Error("no allocation handshake completed")
	}
	t.Logf("slots=%v primaryPDR=%.3f secondaryPDR=%.3f allocs/s=%.2f",
		res.SlotsOwned, m.PrimaryPDR(), m.SecondaryPDR(), res.AllocationsPerSecond)
}

func TestGTSDeallocationOnTrafficDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	cfg := twoNodeConfig(scenario.QMA, 2)
	// Traffic bursts then goes silent; nodes must give slots back.
	cfg.Phases = []traffic.Phase{{Rate: 20, Duration: 30 * sim.Second}, {Rate: 0, Duration: 90 * sim.Second}}
	cfg.Duration = 180 * sim.Second
	res := RunScenario(cfg)
	var dealloc uint64
	for _, ns := range res.Nodes {
		dealloc += ns.DeallocCompleted
	}
	if dealloc == 0 {
		t.Errorf("no deallocation completed despite traffic dropping to zero (slots=%v)", res.SlotsOwned)
	}
}

func TestRings7SecondaryTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	run := func(mk mac.Name) *ScenarioResult {
		return RunScenario(ScenarioConfig{
			Network:  topo.Rings(1),
			MAC:      mk,
			Seed:     3,
			Duration: 240 * sim.Second,
			Warmup:   90 * sim.Second,
		})
	}
	qma := run(scenario.QMA)
	csma := run(scenario.CSMAUnslotted)

	t.Logf("QMA : secondary=%.3f req=%.3f allocs/s=%.2f primary=%.3f",
		qma.Metrics.SecondaryPDR(), qma.Metrics.RequestSuccessRatio(),
		qma.AllocationsPerSecond, qma.Metrics.PrimaryPDR())
	t.Logf("CSMA: secondary=%.3f req=%.3f allocs/s=%.2f primary=%.3f",
		csma.Metrics.SecondaryPDR(), csma.Metrics.RequestSuccessRatio(),
		csma.AllocationsPerSecond, csma.Metrics.PrimaryPDR())

	if qma.Metrics.RequestsSent == 0 || csma.Metrics.RequestsSent == 0 {
		t.Fatal("no GTS requests were sent")
	}
	// Fig. 21: QMA's secondary PDR exceeds CSMA/CA's.
	if qma.Metrics.SecondaryPDR() < csma.Metrics.SecondaryPDR()-0.02 {
		t.Errorf("QMA secondary PDR %.3f below CSMA %.3f",
			qma.Metrics.SecondaryPDR(), csma.Metrics.SecondaryPDR())
	}
}

func TestScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	a := RunScenario(twoNodeConfig(scenario.QMA, 9))
	b := RunScenario(twoNodeConfig(scenario.QMA, 9))
	if a.Metrics != b.Metrics {
		t.Errorf("metrics differ between identical runs:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Errorf("node %d stats differ:\n%+v\n%+v", i, a.Nodes[i], b.Nodes[i])
		}
	}
}

func TestScenarioBudgetAndInvariantChecks(t *testing.T) {
	// A tiny event budget truncates the run and says so.
	cfg := twoNodeConfig(scenario.QMA, 3)
	cfg.EventBudget = 500
	if res := RunScenario(cfg); !res.Truncated {
		t.Fatal("500-event budget did not truncate a 180 s DSME run")
	}
	// With the invariant checkers armed and no budget, a short run completes
	// cleanly and is not marked truncated.
	clean := twoNodeConfig(scenario.QMA, 3)
	clean.Duration = 30 * sim.Second
	clean.Warmup = 10 * sim.Second
	clean.InvariantChecks = true
	if res := RunScenario(clean); res.Truncated {
		t.Error("unbudgeted run reports truncation")
	}
}

// TestScenarioBarring drives the DSME wiring of the access-barring loop.
// DSME carries its primary data over GTS, so the CAP rarely congests enough
// for AIMD to close admission — a fixed low factor instead exercises the
// full path (sink beacon push → per-node gate RNG → Barred counters)
// deterministically, and a disabled config must count nothing.
func TestScenarioBarring(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	overloaded := func(b barring.Config, seed uint64) ScenarioConfig {
		cfg := twoNodeConfig(scenario.QMA, seed)
		cfg.Duration = 90 * sim.Second
		cfg.Warmup = 30 * sim.Second
		cfg.Phases = []traffic.Phase{{Rate: 20}}
		cfg.Barring = b
		return cfg
	}
	barred := RunScenario(overloaded(barring.Config{Policy: barring.PolicyFixed, P: 0.25}, 4))
	var total uint64
	for _, s := range barred.CAP {
		total += s.Barred
	}
	if total == 0 {
		t.Error("fixed barring at P=0.25 never barred a CAP attempt")
	}
	again := RunScenario(overloaded(barring.Config{Policy: barring.PolicyFixed, P: 0.25}, 4))
	for i := range barred.CAP {
		if barred.CAP[i] != again.CAP[i] {
			t.Errorf("node %d: identical barred DSME runs diverged:\n%+v\n%+v", i, barred.CAP[i], again.CAP[i])
		}
	}
	// A disabled config counts nothing: the gate is never consulted.
	off := RunScenario(overloaded(barring.Config{}, 4))
	for i, s := range off.CAP {
		if s.Barred != 0 {
			t.Errorf("node %d: disabled barring still barred %d attempts", i, s.Barred)
		}
	}
}

// pinnedNodeStats is the per-node record the TestScenarioBarringPinned
// digests were taken over: the DSME counters with the GTS link's queue and
// delivery counters in front, in their original field order. Field names
// and order are part of the digest.
type pinnedNodeStats struct {
	PrimaryEnqueued, PrimaryQueueDrops              uint64
	GTSTxAttempts, GTSTxSuccess, GTSRetryDrops      uint64
	GTSIdle                                         uint64
	AllocStarted, AllocCompleted, AllocFailed       uint64
	DeallocStarted, DeallocCompleted, DeallocFailed uint64
	DuplicatesDetected                              uint64
	Starved                                         uint64
}

// pinnedNodeStatsOf assembles res's records. The link's Enqueued counts
// forwarded frames too; only fresh primary frames count as enqueued here.
func pinnedNodeStatsOf(res *ScenarioResult) []pinnedNodeStats {
	out := make([]pinnedNodeStats, len(res.Nodes))
	for i, n := range res.Nodes {
		g := res.GTS[i]
		out[i] = pinnedNodeStats{
			PrimaryEnqueued:    g.Enqueued - g.Forwarded,
			PrimaryQueueDrops:  g.QueueDrops,
			GTSTxAttempts:      g.TxAttempts,
			GTSTxSuccess:       g.TxSuccess,
			GTSRetryDrops:      g.RetryDrops,
			GTSIdle:            n.GTSIdle,
			AllocStarted:       n.AllocStarted,
			AllocCompleted:     n.AllocCompleted,
			AllocFailed:        n.AllocFailed,
			DeallocStarted:     n.DeallocStarted,
			DeallocCompleted:   n.DeallocCompleted,
			DeallocFailed:      n.DeallocFailed,
			DuplicatesDetected: n.DuplicatesDetected,
			Starved:            n.Starved,
		}
	}
	return out
}

// TestScenarioBarringPinned pins the per-node CAP and DSME counters of two
// barred runs to fixed digests: the fixed-P=0.25 run of TestScenarioBarring
// and an AIMD run on Rings(1) whose low collision target makes the
// controller close admission. No golden covers DSME with barring on, so
// these digests are what hold the barring streams, the sink-side loop and
// the event order of a DSME run in place.
func TestScenarioBarringPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	fixed := twoNodeConfig(scenario.QMA, 4)
	fixed.Duration = 90 * sim.Second
	fixed.Warmup = 30 * sim.Second
	fixed.Phases = []traffic.Phase{{Rate: 20}}
	fixed.Barring = barring.Config{Policy: barring.PolicyFixed, P: 0.25}
	aimd := ScenarioConfig{
		Network:  topo.Rings(1),
		MAC:      scenario.QMA,
		Seed:     3,
		Duration: 60 * sim.Second,
		Warmup:   20 * sim.Second,
		Barring:  barring.Config{Policy: barring.PolicyAIMD, Target: 0.01},
	}
	for _, tc := range []struct {
		name string
		cfg  ScenarioConfig
		want string
	}{
		{"fixed", fixed, "22063cf22e4ee24683e42c5a4c7b65e421e7d1149555ba061e8cd117e4666614"},
		{"aimd", aimd, "4f1a8f44aeb2551f1f21f956d82fc0d84d60f51ab452f15049ee05bc1bd09a0c"},
	} {
		res := RunScenario(tc.cfg)
		var barred uint64
		for _, s := range res.CAP {
			barred += s.Barred
		}
		if barred == 0 {
			t.Errorf("%s: barring never barred a CAP attempt", tc.name)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%+v", res.CAP, pinnedNodeStatsOf(res))))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: counter digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

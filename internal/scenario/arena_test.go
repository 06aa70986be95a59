package scenario

import (
	"reflect"
	"testing"

	"qma/internal/frame"
	"qma/internal/sim"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// arenaConfig is a shortened hidden-node run: long enough for traffic,
// retries and learning to happen, short enough to run three times cheaply.
func arenaConfig(seed uint64) Config {
	return Config{
		Network:  topo.HiddenNode(),
		MAC:      QMA,
		Seed:     seed,
		Duration: 40 * sim.Second,
		Traffic: []TrafficSpec{
			{Origin: 0, Phases: []traffic.Phase{{Rate: 10}}, StartAt: 1 * sim.Second, MaxPackets: 200, Tag: frame.TagEval},
			{Origin: 2, Phases: []traffic.Phase{{Rate: 10}}, StartAt: 1 * sim.Second, MaxPackets: 200, Tag: frame.TagEval},
		},
		MeasureFrom: 5 * sim.Second,
	}
}

// TestArenaRunsAreByteIdentical pins the recycling contract: a run on a cold
// arena, a run on the same arena after Begin rewound it, and a run with no
// arena at all must produce identical per-node results — reuse is invisible.
func TestArenaRunsAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	arena := NewArena()
	cold := arenaConfig(11)
	cold.Arena = arena
	a := Run(cold)

	warm := arenaConfig(11)
	warm.Arena = arena
	b := Run(warm)

	bare := Run(arenaConfig(11))

	for i := range a.Nodes {
		na, nb, nc := a.Nodes[i], b.Nodes[i], bare.Nodes[i]
		if !reflect.DeepEqual(na, nb) {
			t.Errorf("node %d: cold vs warm arena differ:\n%+v\n%+v", i, na, nb)
		}
		if !reflect.DeepEqual(na, nc) {
			t.Errorf("node %d: arena vs no arena differ:\n%+v\n%+v", i, na, nc)
		}
	}
	// The kernel's storage is recycled too; its event counts must agree.
	if a.Events != b.Events || a.Events != bare.Events {
		t.Errorf("kernel events: cold %d, warm %d, no arena %d", a.Events, b.Events, bare.Events)
	}
	if a.NetworkPDR() != bare.NetworkPDR() {
		t.Errorf("network PDR differs: %v vs %v", a.NetworkPDR(), bare.NetworkPDR())
	}
	// The per-node derived metrics must agree too (and be sane).
	for i := range a.Nodes {
		na, nc := &a.Nodes[i], &bare.Nodes[i]
		if na.PDR() != nc.PDR() || na.MeanDelay() != nc.MeanDelay() {
			t.Errorf("node %d: derived metrics differ", i)
		}
		if p := na.PDR(); p < 0 || p > 1 {
			t.Errorf("node %d: PDR = %v", i, p)
		}
		if d := na.MeanDelay(); d < 0 {
			t.Errorf("node %d: MeanDelay = %v", i, d)
		}
	}
}

// TestArenaSurvivesManyRuns reuses one arena across several different seeds
// and checks each matches its bare-run twin: the slab rewind may not leak
// state from one run into the next.
func TestArenaSurvivesManyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	arena := NewArena()
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := arenaConfig(seed)
		cfg.Arena = arena
		got := Run(cfg)
		want := Run(arenaConfig(seed))
		for i := range want.Nodes {
			if !reflect.DeepEqual(got.Nodes[i], want.Nodes[i]) {
				t.Errorf("seed %d node %d: warm-arena run diverged from bare run", seed, i)
			}
		}
	}
}

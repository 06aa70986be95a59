package scenario

import (
	"testing"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/sim"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// hiddenNodeConfig reproduces the §6.1 setup at reduced scale: nodes A and C
// send Poisson traffic to the sink B, with low-rate management traffic from
// t=0 standing in for the paper's association phase.
func hiddenNodeConfig(mk mac.Name, delta float64, seed uint64) Config {
	return Config{
		Network:  topo.HiddenNode(),
		MAC:      mk,
		Seed:     seed,
		Duration: 160 * sim.Second,
		Traffic: []TrafficSpec{
			{Origin: 0, Phases: []traffic.Phase{{Rate: 0.2}}, StartAt: 1 * sim.Second, Tag: frame.TagManagement},
			{Origin: 2, Phases: []traffic.Phase{{Rate: 0.2}}, StartAt: 1 * sim.Second, Tag: frame.TagManagement},
			{Origin: 0, Phases: []traffic.Phase{{Rate: delta}}, StartAt: 60 * sim.Second, MaxPackets: 500, Tag: frame.TagEval},
			{Origin: 2, Phases: []traffic.Phase{{Rate: delta}}, StartAt: 60 * sim.Second, MaxPackets: 500, Tag: frame.TagEval},
		},
		MeasureFrom: 60 * sim.Second,
	}
}

func TestHiddenNodeQMABeatsCSMA(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	delta := 25.0
	qmaRes := Run(hiddenNodeConfig(QMA, delta, 1))
	unslRes := Run(hiddenNodeConfig(CSMAUnslotted, delta, 1))

	qmaPDR, csmaPDR := qmaRes.NetworkPDR(), unslRes.NetworkPDR()
	t.Logf("δ=%.0f: QMA PDR=%.3f, unslotted CSMA/CA PDR=%.3f", delta, qmaPDR, csmaPDR)

	// The paper's headline: at δ=25 packets/s QMA keeps a high PDR while
	// CSMA/CA collapses in the hidden-node scenario (Fig. 7: 97% vs <3.5%).
	if qmaPDR < 0.8 {
		t.Errorf("QMA PDR = %.3f, want >= 0.8 in the hidden-node scenario", qmaPDR)
	}
	if csmaPDR > qmaPDR-0.3 {
		t.Errorf("CSMA PDR = %.3f vs QMA %.3f: expected a decisive QMA win", csmaPDR, qmaPDR)
	}
	// All generated packets are accounted for.
	for _, n := range qmaRes.Nodes {
		if n.Delivered > n.Generated {
			t.Errorf("node %s delivered %d > generated %d", n.Label, n.Delivered, n.Generated)
		}
	}
}

func TestHiddenNodeLowRateBothWork(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	// At δ=1 packet/s both schemes deliver nearly everything (Fig. 7, left
	// side: the performance difference becomes smaller for lower rates).
	for _, mk := range []mac.Name{QMA, CSMAUnslotted, CSMASlotted} {
		res := Run(hiddenNodeConfig(mk, 1, 2))
		if pdr := res.NetworkPDR(); pdr < 0.9 {
			t.Errorf("%v: PDR = %.3f at δ=1, want >= 0.9", mk, pdr)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	a := Run(hiddenNodeConfig(QMA, 10, 7))
	b := Run(hiddenNodeConfig(QMA, 10, 7))
	for i := range a.Nodes {
		na, nb := a.Nodes[i], b.Nodes[i]
		if na.Generated != nb.Generated || na.Delivered != nb.Delivered ||
			na.DelaySum != nb.DelaySum || na.MAC != nb.MAC || na.Radio != nb.Radio {
			t.Errorf("node %d differs between identical runs:\n%+v\n%+v", i, na, nb)
		}
	}
	c := Run(hiddenNodeConfig(QMA, 10, 8))
	same := true
	for i := range a.Nodes {
		if a.Nodes[i].MAC != c.Nodes[i].MAC {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical MAC counters (suspicious)")
	}
}

func TestQMASchedulesAreCollisionFree(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	res := Run(hiddenNodeConfig(QMA, 25, 3))
	// §6.1.3: "a collision-free schedule of subslots is created ... nodes A
	// and C never select action QCCA or QSend in the same subslot" in the
	// final policy.
	a, c := res.Nodes[0].Policy, res.Nodes[2].Policy
	if a == nil || c == nil {
		t.Fatal("policies not collected")
	}
	conflicts := 0
	txA, txC := 0, 0
	for m := range a {
		aTX := a[m] != 0 // not QBackoff
		cTX := c[m] != 0
		if aTX {
			txA++
		}
		if cTX {
			txC++
		}
		if aTX && cTX {
			conflicts++
		}
	}
	t.Logf("final policies: A claims %d subslots, C claims %d, conflicts %d", txA, txC, conflicts)
	if txA == 0 || txC == 0 {
		t.Errorf("both nodes should claim transmission subslots (A=%d, C=%d)", txA, txC)
	}
	if conflicts > 1 {
		t.Errorf("%d conflicting subslots in final policies, want <= 1", conflicts)
	}
}

func TestSamplingProducesSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	cfg := hiddenNodeConfig(QMA, 10, 4)
	cfg.Duration = 30 * sim.Second
	cfg.SamplePeriod = res122ms()
	res := Run(cfg)
	n := res.Nodes[0]
	if n.CumQ == nil || n.CumQ.Len() == 0 {
		t.Fatal("cumulative-Q series missing")
	}
	if n.Rho == nil || n.Rho.Len() != n.CumQ.Len() {
		t.Fatal("rho series missing or mismatched")
	}
	if n.QueueSeries == nil || n.QueueSeries.Len() == 0 {
		t.Fatal("queue series missing")
	}
	// Sampled roughly every superframe for 30 s.
	want := int(30 * sim.Second / res122ms())
	if n.CumQ.Len() < want-2 || n.CumQ.Len() > want+2 {
		t.Errorf("series length = %d, want ≈ %d", n.CumQ.Len(), want)
	}
}

func res122ms() sim.Time { return 122880 * sim.Microsecond }

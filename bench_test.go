package qma_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation at quick scale (run `cmd/qma-experiments -full` for paper-scale
// parameters) and measures the performance-critical primitives: the
// discrete event kernel, the three Q-table representations (the paper's
// §3.2 resource argument) and whole simulated seconds of each scenario.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"testing"

	"qma"
	"qma/internal/experiments"
	"qma/internal/frame"
	"qma/internal/markov"
	"qma/internal/qlearn"
	"qma/internal/radio"
	"qma/internal/sim"
)

// benchMode returns a reduced configuration so the whole suite finishes in
// minutes.
func benchMode() experiments.Mode {
	m := experiments.Quick()
	m.Reps = 2
	m.Packets = 200
	return m
}

// runExperiment executes one registered experiment per iteration and fails
// the benchmark if it produced no tables.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	mode := benchMode()
	for i := 0; i < b.N; i++ {
		tables, ok := experiments.Run(id, mode)
		if !ok || len(tables) == 0 {
			b.Fatalf("experiment %s produced no tables", id)
		}
		for _, t := range tables {
			t.Render(io.Discard)
		}
	}
}

// One bench per paper artefact.

func BenchmarkFig07to09HiddenNodeSweep(b *testing.B) { runExperiment(b, "fig07-09") }
func BenchmarkFig10to11Convergence(b *testing.B)     { runExperiment(b, "fig10-11") }
func BenchmarkFig12Adaptability(b *testing.B)        { runExperiment(b, "fig12") }
func BenchmarkFig13to15SlotUtilization(b *testing.B) { runExperiment(b, "fig13-15") }
func BenchmarkFig18TreePDR(b *testing.B)             { runExperiment(b, "fig18") }
func BenchmarkFig19StarPDR(b *testing.B)             { runExperiment(b, "fig19") }
func BenchmarkEnergyParity(b *testing.B)             { runExperiment(b, "energy") }
func BenchmarkFig21to22DSMEScalability(b *testing.B) { runExperiment(b, "fig21-22") }
func BenchmarkFig26HandshakeMarkov(b *testing.B)     { runExperiment(b, "fig26") }
func BenchmarkAblations(b *testing.B)                { runExperiment(b, "ablation") }
func BenchmarkDynamicsFamily(b *testing.B)           { runExperiment(b, "dynamics") }

// Microbenchmarks.

// BenchmarkKernelEvent measures raw event scheduling + dispatch.
func BenchmarkKernelEvent(b *testing.B) {
	k := sim.NewKernel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(1, func() {})
		k.Run(k.Now() + 1)
	}
}

// BenchmarkQTableUpdate measures one Eq. 5 update per representation — the
// per-decision cost on an embedded device.
func BenchmarkQTableUpdate(b *testing.B) {
	b.Run("float64", func(b *testing.B) {
		t := qlearn.NewFloatTable(54, 3, qlearn.DefaultParams())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t.Update(i%54, i%3, 4, (i+1)%54)
		}
	})
	b.Run("fixedQ8.8", func(b *testing.B) {
		t := qlearn.NewFixedTableOn(54, 3, qlearn.DefaultFixedParams(), nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t.Update(i%54, i%3, 4, (i+1)%54)
		}
	})
	b.Run("quant8bit", func(b *testing.B) {
		t := qlearn.NewQuantTableOn(54, 3, qlearn.DefaultQuantParams(), nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t.Update(i%54, i%3, 4, (i+1)%54)
		}
	})
}

// BenchmarkLearnerObserve measures a full Algorithm 1 learning step
// (update + policy maintenance).
func BenchmarkLearnerObserve(b *testing.B) {
	l := qlearn.NewLearner(qlearn.NewFloatTable(54, 3, qlearn.DefaultParams()), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Observe(i%54, i%3, float64(i%7)-3, (i+1)%54)
	}
}

// BenchmarkMediumTransmit measures one broadcast across a 10-node clique,
// including collision bookkeeping and delivery.
func BenchmarkMediumTransmit(b *testing.B) {
	k := sim.NewKernel()
	g := radio.NewGraphTopology(10)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			g.AddLink(frame.NodeID(i), frame.NodeID(j))
		}
	}
	m := radio.NewMedium(k, g, sim.NewRand(1))
	for i := 0; i < 10; i++ {
		m.Attach(frame.NodeID(i), radio.HandlerFunc(func(*frame.Frame) {}))
	}
	f := &frame.Frame{Kind: frame.Data, Src: 0, Dst: frame.Broadcast, MPDUBytes: 50}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Src = frame.NodeID(i % 10)
		m.StartTX(f.Src, f, 0)
		k.RunAll()
	}
}

// BenchmarkHiddenNodeSecond measures one simulated second of the 3-node QMA
// scenario (δ=25) end to end.
func BenchmarkHiddenNodeSecond(b *testing.B) {
	sc := &qma.Scenario{
		Topology:        qma.HiddenNode(),
		MAC:             qma.QMA,
		Seed:            1,
		DurationSeconds: float64(b.N),
		Traffic: []qma.Traffic{
			{Origin: 0, Phases: []qma.Phase{{Rate: 25}}},
			{Origin: 2, Phases: []qma.Phase{{Rate: 25}}},
		},
	}
	b.ReportAllocs()
	if _, err := sc.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDSMESecond measures one simulated second of the 19-node DSME
// scenario under QMA.
func BenchmarkDSMESecond(b *testing.B) {
	rings, err := qma.Rings(2)
	if err != nil {
		b.Fatal(err)
	}
	sc := &qma.DSMEScenario{
		Topology:        rings,
		MAC:             qma.QMA,
		Seed:            1,
		DurationSeconds: float64(b.N + 1),
		WarmupSeconds:   1,
	}
	b.ReportAllocs()
	if _, err := sc.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFactoryHallEventsPerSec measures end-to-end simulation throughput
// on the large-scale factory-hall family: one simulated second per iteration
// with low-rate traffic from every routed node, reporting kernel events per
// wall-clock second. The three sizes pin the O(N + E) medium: events/s
// should stay within the same order of magnitude from 100 to 10,000 nodes.
func BenchmarkFactoryHallEventsPerSec(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			topo, err := qma.FactoryHall(n, 0, 42)
			if err != nil {
				b.Fatal(err)
			}
			sc := &qma.Scenario{
				Topology:        topo,
				MAC:             qma.QMA,
				Seed:            1,
				DurationSeconds: float64(b.N),
			}
			for i := 0; i < topo.NumNodes(); i++ {
				if i == topo.Sink() || !topo.HasRoute(i) {
					continue
				}
				sc.Traffic = append(sc.Traffic,
					qma.Traffic{Origin: i, Phases: []qma.Phase{{Rate: 0.2}}})
			}
			b.ReportAllocs()
			b.ResetTimer()
			res, err := sc.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkProtocolMatrix measures end-to-end simulation throughput per
// registered MAC protocol: one simulated second of the 10-node testbed tree
// per iteration with δ=2 from every non-sink node, reporting kernel events
// per wall-clock second. The sub-benchmarks enumerate the registry, so a new
// protocol package appears here without edits.
func BenchmarkProtocolMatrix(b *testing.B) {
	for _, mk := range qma.MACs() {
		b.Run(string(mk), func(b *testing.B) {
			topo := qma.Tree10()
			sc := &qma.Scenario{
				Topology:        topo,
				MAC:             mk,
				Seed:            1,
				DurationSeconds: float64(b.N),
			}
			for i := 0; i < topo.NumNodes(); i++ {
				if i == topo.Sink() {
					continue
				}
				sc.Traffic = append(sc.Traffic,
					qma.Traffic{Origin: i, Phases: []qma.Phase{{Rate: 2}}})
			}
			b.ReportAllocs()
			b.ResetTimer()
			res, err := sc.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkHandshakeMatrix measures the Eq. 11 fundamental-matrix solve.
func BenchmarkHandshakeMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if markov.ExpectedHandshakeMessages(0.5) < 3 {
			b.Fatal("impossible expectation")
		}
	}
}

package main

import (
	"bytes"
	"reflect"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"qma/internal/core"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/superframe"
	"qma/internal/topo"
	"qma/internal/traffic"
)

func TestLayerOfStack(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"qma engine", []string{"qma/internal/core.(*Engine).tick"}, "mac"},
		{"csma", []string{"qma/internal/csma.(*Engine).backoff"}, "mac"},
		{"aloha", []string{"qma/internal/aloha.(*Engine).Start"}, "mac"},
		{"bandit", []string{"qma/internal/bandit.(*Engine).decide"}, "mac"},
		{"noma", []string{"qma/internal/noma.(*Engine).tick"}, "mac"},
		{"mac base", []string{"qma/internal/mac.(*Base).Deliver"}, "mac"},
		{"traffic", []string{"qma/internal/traffic.(*Source).fire"}, "scenario"},
		{"frame", []string{"qma/internal/frame.(*Pool).Get"}, "scenario"},
		{"superframe", []string{"qma/internal/superframe.(*Clock).Subslot"}, "scenario"},
		{"experiments", []string{"qma/internal/experiments.runGrid.func1"}, "scenario"},
		{"kernel", []string{"qma/internal/sim.(*Kernel).Run"}, "sim"},
		{"medium", []string{"qma/internal/radio.(*Medium).StartTX"}, "radio"},
		{"learner", []string{"qma/internal/qlearn.(*FloatTable).Update"}, "qlearn"},
		{"topology", []string{"qma/internal/topo.bfsTree"}, "topo"},
		{"pool", []string{"qma/internal/stats.RunPool.func1"}, "stats"},
		{"dsme", []string{"qma/internal/dsme.(*Node).onBeacon"}, "dsme"},
		{"public api", []string{"qma.(*Scenario).Run"}, "scenario"},
		{"std lib folds into caller", []string{"runtime.memmove", "sort.Slice", "qma/internal/scenario.runShardedDep.func2"}, "scenario"},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{"allocation", []string{"runtime.nextFreeFast", "runtime.mallocgc", "qma/internal/mac.NewBase"}, "runtime"},
		{"benchmark", []string{"runtime.nanotime", "time.Now", "main.(*span).begin", "qma/internal/radio.(*Medium).endTX"}, "unattributed"},
		{"scheduler", []string{"runtime.futex", "runtime.mcall"}, "unattributed"},
	}
	for _, c := range cases {
		if got := layerOfStack(c.frames); got != c.want {
			t.Errorf("%s: %v charged to %q, want %q", c.name, c.frames, got, c.want)
		}
	}
	for pkg, l := range layerOf {
		if !slices.Contains(layers, l) {
			t.Errorf("package %s maps to %q, which is not a reported layer", pkg, l)
		}
	}
}

var sink float64

func TestFoldProfileSumsToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			sink += float64(i) * 1.0000001
		}
	}
	pprof.StopCPUProfile()
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range layers {
		sum += shares[l]
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Fatalf("shares %v sum to %v", shares, sum)
	}
	// The spin loop lives in this package, which the table charges to no
	// simulator layer.
	if shares["unattributed"] < 0.5 {
		t.Fatalf("spin loop charged elsewhere: %v", shares)
	}
}

// hiddenNode is a two-second QMA run of the paper's 3-node scenario.
type hiddenNode struct {
	t       *testing.T
	wantQMA bool // the engines must be the unwrapped *core.Engine
}

func (h *hiddenNode) setup() (float64, float64) { return 0.001, 0.001 }
func (h *hiddenNode) workers() int              { return 1 }
func (h *hiddenNode) params() map[string]any    { return nil }

func (h *hiddenNode) rep() (outcome, error) {
	out := scenario.RunWithEngines(scenario.Config{
		Network:  topo.HiddenNode(),
		MAC:      scenario.QMA,
		Seed:     3,
		Duration: 2 * sim.Second,
		Traffic: []scenario.TrafficSpec{
			{Origin: 0, Phases: []traffic.Phase{{Rate: 25}}},
			{Origin: 2, Phases: []traffic.Phase{{Rate: 25}}},
		},
	})
	for _, e := range out.Engines {
		if _, ok := e.(*core.Engine); ok != h.wantQMA {
			h.t.Errorf("engine type %T in a rep that wants unwrapped engines=%v", e, h.wantQMA)
		}
	}
	o := outcome{Events: out.Events, PDR: out.NetworkPDR(), DelayMS: 1000 * out.MeanDelay()}
	for i := range out.Nodes {
		n := &out.Nodes[i]
		o.Generated += n.Generated
		o.Delivered += n.Delivered
		o.DelaySum += n.DelaySum
		o.Radio.Accumulate(n.Radio)
	}
	return o, nil
}

// The untraced run must leave the protocol registry as the program built
// it: the baselines family enumerates mac.Names(), so an extra protocol, or
// engines of another type, would change the paper-golden digest.
func TestUntracedRunKeepsRegistryAndEngines(t *testing.T) {
	names := mac.Names()
	r := measure(&hiddenNode{t: t, wantQMA: true}, &recorder{}, 0)
	if !r.Correct || r.Attempted < minReps {
		t.Fatalf("untraced run: %+v", r)
	}
	if got := mac.Names(); !reflect.DeepEqual(got, names) {
		t.Fatalf("registry changed from %v to %v", names, got)
	}
	assertUnwrapped(t)
}

func TestTracedRepMatchesUntracedAndRestores(t *testing.T) {
	names := mac.Names()
	rec := &recorder{}
	ref, _, _, err := runRep(&hiddenNode{t: t, wantQMA: true}, rec, false)
	if err != nil {
		t.Fatal(err)
	}
	tr, spans, _, err := runRep(&hiddenNode{t: t, wantQMA: false}, rec, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, tr) {
		t.Fatalf("traced rep %+v differs from untraced %+v", tr, ref)
	}
	if spans.deliver.calls == 0 || spans.enqueue.calls == 0 || spans.qlearn.calls == 0 {
		t.Fatalf("spans recorded nothing: %+v", spans)
	}
	if spans.enqueue.calls != ref.Generated {
		t.Fatalf("%d enqueue spans for %d generated packets", spans.enqueue.calls, ref.Generated)
	}
	if got := mac.Names(); !reflect.DeepEqual(got, names) {
		t.Fatalf("registry changed from %v to %v", names, got)
	}
	assertUnwrapped(t)
}

// assertUnwrapped checks that the QMA factory builds the unwrapped engine.
func assertUnwrapped(t *testing.T) {
	t.Helper()
	p, _ := mac.Lookup(core.ProtocolName)
	e, err := mac.Build(p.Name, hiddenNodeMACConfig(), nil, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*core.Engine); !ok {
		t.Fatalf("qma factory builds %T after restore", e)
	}
}

func hiddenNodeMACConfig() mac.Config {
	net := topo.HiddenNode()
	k := sim.NewKernel()
	return mac.Config{
		ID:     frame.NodeID(0),
		Kernel: k,
		Medium: radio.NewMedium(k, net.Topology, sim.NewRand(1)),
		Clock:  superframe.NewClock(superframe.DefaultConfig()),
		Router: net,
	}
}

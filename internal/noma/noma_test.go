package noma

import (
	"strings"
	"testing"

	"qma/internal/core"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// afterFunc schedules fn d after the current instant as the kernel's one
// event form, a static callback over a record: here the record is the
// closure.
func afterFunc(k *sim.Kernel, d sim.Time, fn func()) sim.EventID {
	return k.AtCall(k.Now()+d, callFunc, fn)
}

func callFunc(fn any) { fn.(func())() }

// macConfig wires node id of an n-node chain 0–1–…–(n-1) on a fresh kernel.
func macConfig(n int) func(id int) mac.Config {
	g := radio.NewGraphTopology(n)
	for i := 1; i < n; i++ {
		g.AddLink(frame.NodeID(i-1), frame.NodeID(i))
	}
	k := sim.NewKernel()
	m := radio.NewMedium(k, g, sim.NewRand(1))
	clock := superframe.NewClock(superframe.DefaultConfig())
	return func(id int) mac.Config {
		return mac.Config{ID: frame.NodeID(id), Kernel: k, Medium: m, Clock: clock, MaxRetries: mac.DefaultMaxRetries}
	}
}

// TestEndToEndDelivery runs a registry-built engine autonomously (default
// startup, parameter-based exploration, K=2) on an idle channel: every
// queued frame must eventually be delivered.
func TestEndToEndDelivery(t *testing.T) {
	cfg := macConfig(2)
	var engines []*core.Engine
	for i := 0; i < 2; i++ {
		c := cfg(i)
		e := NewFromOptions(Options{}, c, sim.NewRandStream(7, uint64(i)))
		c.Medium.Attach(c.ID, e)
		e.Start()
		engines = append(engines, e)
	}
	k := cfg(0).Kernel
	for i := 0; i < 20; i++ {
		f := &frame.Frame{Kind: frame.Data, Src: 0, Dst: 1, Origin: 0, Sink: 1, Seq: uint32(i + 1), MPDUBytes: 40}
		afterFunc(k, sim.Time(i)*100*sim.Millisecond, func() { engines[0].Enqueue(f) })
	}
	k.Run(10 * sim.Second)
	if s := engines[0].Base().Stats(); s.TxSuccess != 20 {
		t.Fatalf("stats: %+v, want 20 successes", s)
	}
	if got := engines[1].Base().Stats().Delivered; got != 20 {
		t.Fatalf("receiver delivered %d, want 20", got)
	}
}

// TestNewFromOptionsThroughRegistry pins the registry construction path: the
// factory builds the shared QMA engine with K power levels, and rejects an
// out-of-range K.
func TestNewFromOptionsThroughRegistry(t *testing.T) {
	cfg := macConfig(2)
	eng, err := mac.Build(Proto, cfg(0), Options{Levels: 3, StartupSubslots: -1}, sim.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := eng.(*core.Engine)
	if !ok {
		t.Fatalf("noma factory builds %T, want *core.Engine", eng)
	}
	if got := e.Learner().Table().Actions(); got != core.NumActions*3 {
		t.Errorf("table actions = %d, want %d (K=3)", got, core.NumActions*3)
	}
	eng, _ = mac.Build(Proto, cfg(1), nil, sim.NewRand(3))
	if got := eng.(*core.Engine).Learner().Table().Actions(); got != core.NumActions*DefaultLevels {
		t.Errorf("nil options: table actions = %d, want %d (K=DefaultLevels)", got, core.NumActions*DefaultLevels)
	}

	if _, err := mac.Build(Proto, cfg(1), Options{Levels: 99}, sim.NewRand(3)); err == nil {
		t.Error("Build accepted out-of-range Levels")
	}
}

// TestStartupConventionThroughRegistry pins the scenario-level cautious
// startup convention both Q-learning protocols share: 0 selects two full
// frames, a negative value disables it and a positive value is Δ. It counts
// the observations an idle engine makes over three superframes.
func TestStartupConventionThroughRegistry(t *testing.T) {
	subslots := superframe.DefaultConfig().Subslots
	for _, c := range []struct {
		startup, want int
	}{{0, 2 * subslots}, {-1, 0}, {10, 10}} {
		for _, proto := range []string{core.ProtocolName, Proto} {
			var opts any = core.Options{StartupSubslots: c.startup}
			if proto == Proto {
				opts = Options{StartupSubslots: c.startup}
			}
			mc := macConfig(1)(0)
			eng, err := mac.Build(proto, mc, opts, sim.NewRand(1))
			if err != nil {
				t.Fatal(err)
			}
			eng.Start()
			mc.Kernel.Run(3 * superframe.DefaultConfig().SuperframeDuration())
			if got := eng.(*core.Engine).EngineStats().StartupObservations; got != uint64(c.want) {
				t.Errorf("%s StartupSubslots=%d: %d startup observations, want %d", proto, c.startup, got, c.want)
			}
		}
	}
}

// TestRegistry pins the protocol's registry contract.
func TestRegistry(t *testing.T) {
	p, ok := mac.Lookup(Proto)
	if !ok {
		t.Fatal("noma is not registered")
	}
	if !p.NeedsCapture {
		t.Error("noma must declare NeedsCapture (capture-less comparison families skip it)")
	}
	if alias, ok := mac.Lookup("noma-ql"); !ok || alias.Name != Proto {
		t.Error("alias noma-ql does not resolve to noma")
	}
	if err := p.Validate(Options{Levels: MaxLevels + 1}); err == nil {
		t.Error("Validate accepted Levels beyond MaxLevels")
	}
	if err := p.Validate(Options{LevelStepDB: -3}); err == nil {
		t.Error("Validate accepted a negative step")
	}
	if err := p.Validate(struct{}{}); err == nil {
		t.Error("Validate accepted foreign options")
	}
	if err := p.Validate(nil); err != nil {
		t.Errorf("Validate rejected nil options: %v", err)
	}
}

// TestParseOptions pins the -mac-opt surface.
func TestParseOptions(t *testing.T) {
	p, _ := mac.Lookup(Proto)
	got, err := p.ParseOptions(map[string]string{"levels": "3", "step": "4.5", "alpha": "0.25"})
	if err != nil {
		t.Fatal(err)
	}
	o := got.(Options)
	if o.Levels != 3 || o.LevelStepDB != 4.5 {
		t.Errorf("parsed %+v", o)
	}
	if o.Learn.Alpha != 0.25 || o.Learn.Gamma != qlearn.DefaultParams().Gamma {
		t.Errorf("partial learn override drifted from defaults: %+v", o.Learn)
	}
	if _, err := p.ParseOptions(map[string]string{"power": "11"}); err == nil ||
		!strings.Contains(err.Error(), "levels") {
		t.Errorf("unknown key error %v should list supported keys", err)
	}
	if _, err := p.ParseOptions(map[string]string{"levels": "two"}); err == nil {
		t.Error("malformed integer accepted")
	}
}

// TestAdoptExplorer pins the scenario-level explorer pass-through.
func TestAdoptExplorer(t *testing.T) {
	p, _ := mac.Lookup(Proto)
	ex := qlearn.Constant{Eps: 0.2}
	o := p.AdoptExplorer(nil, ex).(Options)
	if o.Explorer != ex {
		t.Errorf("AdoptExplorer(nil) = %+v", o)
	}
	prior := qlearn.Constant{Eps: 0.9}
	o = p.AdoptExplorer(Options{Explorer: prior}, ex).(Options)
	if o.Explorer != prior {
		t.Error("AdoptExplorer overrode an explorer already present in the options")
	}
}

package scenario

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"qma/internal/core"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// arenaConfig is a shortened hidden-node run: long enough for traffic,
// retries and learning to happen, short enough to run several times cheaply.
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

// useEmptyArenaPool gives the test a pool of its own, empty, so the runs
// it makes take exactly the arenas it hands them or fresh ones.
func useEmptyArenaPool(t *testing.T) {
	old := arenas
	arenas = new(sync.Pool)
	t.Cleanup(func() { arenas = old })
}

// runOn executes cfg through Run on arena a: a fresh one, or one an earlier
// run left behind. sync.Pool may drop what it is handed (it does so at
// random under the race detector), so it retries until the run took a.
func runOn(t *testing.T, a *arena, cfg Config) *Result {
	t.Helper()
	useEmptyArenaPool(t)
	for range 100 {
		arenas = new(sync.Pool)
		arenas.Put(a)
		k := a.kernel
		res := Run(cfg)
		if a.kernel != k {
			return res
		}
	}
	t.Fatal("no run took the arena")
	return nil
}

// freshArena is an arena no run has used.
func freshArena() *arena { return &arena{kernel: sim.NewKernel()} }

// TestArenaRunsAreByteIdentical pins the recycling contract: a run on a
// fresh arena, a run on the same arena rewound after it, and a run on that
// arena after a larger run of another protocol dirtied its slab and frame
// pool must produce identical per-node results and kernel event counts —
// reuse is invisible.
func TestArenaRunsAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	a := freshArena()
	cold := runOn(t, a, arenaConfig(11))
	warm := runOn(t, a, arenaConfig(11))
	other := Config{Network: topo.Tree10(), MAC: CSMAUnslotted, Seed: 3, Duration: 20 * sim.Second}
	for i := 1; i < other.Network.NumNodes(); i++ {
		other.Traffic = append(other.Traffic, TrafficSpec{Origin: frame.NodeID(i), Phases: []traffic.Phase{{Rate: 20}}, Tag: frame.TagEval})
	}
	runOn(t, a, other)
	dirty := runOn(t, a, arenaConfig(11))

	for name, r := range map[string]*Result{"warm": warm, "dirty": dirty} {
		for i := range cold.Nodes {
			if !reflect.DeepEqual(cold.Nodes[i], r.Nodes[i]) {
				t.Errorf("node %d: fresh vs %s arena differ:\n%+v\n%+v", i, name, cold.Nodes[i], r.Nodes[i])
			}
		}
		// The kernel's storage is recycled too; its event counts must agree.
		if cold.Events != r.Events {
			t.Errorf("kernel events: fresh %d, %s %d", cold.Events, name, r.Events)
		}
	}
	// The per-node derived metrics must be sane.
	for i := range cold.Nodes {
		n := &cold.Nodes[i]
		if p := n.PDR(); p < 0 || p > 1 {
			t.Errorf("node %d: PDR = %v", i, p)
		}
		if d := n.MeanDelay(); d < 0 {
			t.Errorf("node %d: MeanDelay = %v", i, d)
		}
	}
}

// TestArenaSurvivesManyRuns reuses one arena across several different seeds
// and checks each run matches its fresh-arena twin: the slab rewind may not
// leak state from one run into the next.
func TestArenaSurvivesManyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	a := freshArena()
	for seed := uint64(1); seed <= 4; seed++ {
		got := runOn(t, a, arenaConfig(seed))
		want := runOn(t, freshArena(), arenaConfig(seed))
		for i := range want.Nodes {
			if !reflect.DeepEqual(got.Nodes[i], want.Nodes[i]) {
				t.Errorf("seed %d node %d: warm-arena run diverged from fresh run", seed, i)
			}
		}
		if got.Events != want.Events {
			t.Errorf("seed %d: kernel events %d on the warm arena, %d on a fresh one", seed, got.Events, want.Events)
		}
	}
}

// engineState reads what the QMA engines keep in the slab: each one's
// cumulative policy Q and its policy.
func engineState(engines []mac.Engine) []any {
	var st []any
	for _, e := range engines {
		q := e.(*core.Engine)
		st = append(st, q.CumulativePolicyQ(), q.PolicyKinds())
	}
	return st
}

// TestFinishedRunSurvivesStorageReuse pins what a later run may not touch.
// Run hands its storage on, so no field of its Result may alias the slab or
// the frame pool; RunWithEngines keeps its storage, so its engines' Q-tables
// must stay as the run left them while later runs come and go.
func TestFinishedRunSurvivesStorageReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	useEmptyArenaPool(t)
	cfg := arenaConfig(5)
	cfg.SamplePeriod = sim.Second
	res := Run(cfg)
	// This run takes res's arena, if the pool kept it.
	out := RunWithEngines(arenaConfig(6))
	engines := engineState(out.Engines)
	// These take out's arena, unless RunWithEngines kept it.
	for seed := uint64(7); seed <= 9; seed++ {
		Run(arenaConfig(seed))
	}

	twin := runOn(t, freshArena(), cfg)
	if !reflect.DeepEqual(res, twin) {
		t.Errorf("a finished Run's result changed after later runs reused its storage")
	}
	if got := engineState(out.Engines); !reflect.DeepEqual(got, engines) {
		t.Errorf("RunWithEngines' engines changed after later runs: %v, want %v", got, engines)
	}
}

// TestConcurrentRunsShareThePool runs replications on four workers at once,
// every run taking its arena from and handing it back to the one pool, and
// checks each result against its sequential twin.
func TestConcurrentRunsShareThePool(t *testing.T) {
	const n = 8
	want := make([]*Result, n)
	for i := range want {
		want[i] = Run(arenaConfig(uint64(i)))
	}
	got := make([]*Result, n)
	if errs := stats.ForEach(n, 4, func(i int) { got[i] = Run(arenaConfig(uint64(i))) }); errs != nil {
		t.Fatalf("replications panicked: %v", errs)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("seed %d: the concurrent run diverged from the sequential one", i)
		}
	}
}

// TestReleasedArenaDropsTheRun pins that an idle pooled arena keeps nothing
// of the run that handed it back: Release recycles the kernel, whose queued
// events would otherwise keep the finished run's engines (and through them
// its medium and records) reachable for as long as the arena sits in the
// pool. One GC leaves the arena in the pool's victim cache, so only a
// released kernel lets the engine go.
func TestReleasedArenaDropsTheRun(t *testing.T) {
	useEmptyArenaPool(t)
	cfg := arenaConfig(3)
	cfg.Duration = 10 * sim.Second
	for i := range cfg.Traffic {
		cfg.Traffic[i].MaxPackets = 0 // the run ends with traffic still queued
	}
	engine := func() weak.Pointer[core.Engine] {
		r := build(cfg)
		r.Kernel.Run(cfg.Duration)
		if r.Kernel.Live() == 0 {
			t.Fatal("the run left no event queued")
		}
		r.collect()
		r.Release()
		return weak.Make(r.qma[0])
	}()
	runtime.GC()
	if engine.Value() != nil {
		t.Error("a released arena keeps the finished run's engine reachable")
	}
}

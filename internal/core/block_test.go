package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// blockMACConfig returns the MAC wiring of node id over n unconnected nodes
// sharing one kernel, clock and run arena.
func blockMACConfig(n int, scratch *mac.Scratch) func(id int) mac.Config {
	k := sim.NewKernel()
	m := radio.NewMedium(k, radio.NewGraphTopology(n), sim.NewRand(1))
	clock := superframe.NewClock(superframe.DefaultConfig())
	return func(id int) mac.Config {
		return mac.Config{ID: frame.NodeID(id), Kernel: k, Medium: m, Clock: clock, Scratch: scratch}
	}
}

// TestNewFromOptionsHeapObjects pins what one QMA node costs the heap on a
// warmed run arena. The five objects are the engine block itself, the two
// MAC hooks it installs (OnOverhear, OnAccept) and the two immediate-ACK
// callbacks of its mac.Base. The MAC base, learner, float64 table header
// and RNG live inside the block; the Q row, π and the queue buffer come
// from the arena; the default explorer is shared by every engine.
func TestNewFromOptionsHeapObjects(t *testing.T) {
	const want = 5
	scratch := &mac.Scratch{}
	cfg := blockMACConfig(1, scratch)(0)
	rng := sim.NewRand(1)
	// AllocsPerRun's warm-up call carves the arena's blocks.
	got := testing.AllocsPerRun(50, func() {
		scratch.Reset()
		NewFromOptions(Options{}, cfg, rng)
	})
	if got != want {
		t.Errorf("NewFromOptions allocates %v heap objects, want %d", got, want)
	}
}

// TestEngineBlockSizeClass pins the engine block to the runtime's
// 1024-byte allocation size class: the next class is 1152 bytes, which
// would add 128 bytes to every node of a 20k-device city.
func TestEngineBlockSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Engine{}); size > 1024 {
		t.Errorf("core.Engine is %d bytes, want at most 1024", size)
	}
}

// TestTickFieldsInPrefetchedPrefix pins the engine block's layout to the
// kernel's same-instant prefetch: every field a subslot tick without a
// transmission reads or writes must end within the first
// sim.ContextPrefetchBytes of the block, which the kernel loads while the
// previous tick of the same boundary runs. (The barring gate's state beyond
// cfg.BarringRng is read only when barring is on, and stays out.) A block in
// the 1024-byte size class starts on a cache line, so the prefix is exactly
// ContextPrefetchBytes/64 lines.
func TestTickFieldsInPrefetchedPrefix(t *testing.T) {
	var e Engine
	var c mac.Config
	type field struct {
		name     string
		off, len uintptr
	}
	fields := []field{
		{"learner", unsafe.Offsetof(e.learner), unsafe.Sizeof(e.learner)},
		{"explorer", unsafe.Offsetof(e.explorer), unsafe.Sizeof(e.explorer)},
		{"rng", unsafe.Offsetof(e.rng), unsafe.Sizeof(e.rng)},
		{"startupLeft", unsafe.Offsetof(e.startupLeft), unsafe.Sizeof(e.startupLeft)},
		{"armed", unsafe.Offsetof(e.armed), unsafe.Sizeof(e.armed)},
		{"armedAt", unsafe.Offsetof(e.armedAt), unsafe.Sizeof(e.armedAt)},
		{"armedSubslot", unsafe.Offsetof(e.armedSubslot), unsafe.Sizeof(e.armedSubslot)},
		{"pend", unsafe.Offsetof(e.pend), unsafe.Sizeof(e.pend)},
		{"rhoSum", unsafe.Offsetof(e.rhoSum), unsafe.Sizeof(e.rhoSum)},
		{"rhoCount", unsafe.Offsetof(e.rhoCount), unsafe.Sizeof(e.rhoCount)},
		{"ticks", unsafe.Offsetof(e.ticks), unsafe.Sizeof(e.ticks)},
		{"floatTable", unsafe.Offsetof(e.floatTable), unsafe.Sizeof(e.floatTable)},
		{"hasPend", unsafe.Offsetof(e.hasPend), unsafe.Sizeof(e.hasPend)},
		{"overhear", unsafe.Offsetof(e.overhear), unsafe.Sizeof(e.overhear)},
		{"startupPunish", unsafe.Offsetof(e.startupPunish), unsafe.Sizeof(e.startupPunish)},
		{"levels", unsafe.Offsetof(e.levels), unsafe.Sizeof(e.levels)},
	}
	// mac.Base's fields are unexported, so their offsets come from reflect.
	base := reflect.TypeOf(e.base)
	for _, name := range []string{"busyUntil", "neighbors", "queue"} {
		f, ok := base.FieldByName(name)
		if !ok {
			t.Fatalf("mac.Base has no field %s", name)
		}
		fields = append(fields, field{"base." + name, unsafe.Offsetof(e.base) + f.Offset, f.Type.Size()})
	}
	cfg, ok := base.FieldByName("cfg")
	if !ok {
		t.Fatal("mac.Base has no field cfg")
	}
	at := unsafe.Offsetof(e.base) + cfg.Offset
	fields = append(fields,
		field{"base.cfg.Kernel", at + unsafe.Offsetof(c.Kernel), unsafe.Sizeof(c.Kernel)},
		field{"base.cfg.Clock", at + unsafe.Offsetof(c.Clock), unsafe.Sizeof(c.Clock)},
		field{"base.cfg.NeighborStaleAfter", at + unsafe.Offsetof(c.NeighborStaleAfter), unsafe.Sizeof(c.NeighborStaleAfter)},
		field{"base.cfg.BarringRng", at + unsafe.Offsetof(c.BarringRng), unsafe.Sizeof(c.BarringRng)},
	)
	for _, f := range fields {
		if end := f.off + f.len; end > sim.ContextPrefetchBytes {
			t.Errorf("tick field %s ends at byte %d, beyond the %d-byte prefetched prefix", f.name, end, sim.ContextPrefetchBytes)
		}
	}
}

// TestRebootKeepsBlockPointers checks that a power-cycle fault resets the
// node's learner and MAC base in place: the pointers handed out before the
// reboot stay valid and see the fresh state.
func TestRebootKeepsBlockPointers(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, nil)
	e := r.engines[0]
	l, b := e.Learner(), e.Base()
	for i := 0; i < 20; i++ {
		e.Enqueue(dataTo(1, 0, uint32(i+1)))
		r.k.Run(r.k.Now() + 100*sim.Millisecond)
	}
	if l.Updates() == 0 {
		t.Fatal("setup: no Q-updates before the reboot")
	}
	e.Reboot()
	if e.Learner() != l || e.Base() != b {
		t.Fatal("Reboot replaced the learner or MAC base instead of resetting it in place")
	}
	if l.Updates() != 0 || l.CumulativePolicyQ() != -10*float64(l.Table().States()) {
		t.Errorf("learner not reset in place: updates=%d ΣQ=%v", l.Updates(), l.CumulativePolicyQ())
	}
	if b.Stats().Reboots != 1 || !b.Queue().Empty() {
		t.Errorf("MAC base not reset in place: reboots=%d queue=%d", b.Stats().Reboots, b.Queue().Len())
	}
}

// BenchmarkEngineTick measures the MAC engine layer on its own. tickEngines
// engines share one kernel, each holding one queued frame, and every subslot
// boundary runs one idle tick per engine: a policy decision that backs off,
// then the evaluation of that backoff. That is the regime that dominates the
// sharded city's profile. The Fig. 4 explorer runs with an all-zero table,
// so no tick transmits and the loop must not allocate. One op is one tick.
// The cases are QMA and the NOMA configuration with K=2 power levels.
// The engines tick in a seeded order that differs from their memory order.
func BenchmarkEngineTick(b *testing.B) {
	b.Run("qma", func(b *testing.B) { benchEngineTick(b, 1) })
	b.Run("noma-K=2", func(b *testing.B) { benchEngineTick(b, 2) })
}

func benchEngineTick(b *testing.B, levels int) {
	const tickEngines = 5000
	cfg := blockMACConfig(tickEngines, &mac.Scratch{})
	quiet := &qlearn.ParameterBased{Rho: make([]float64, len(qlearn.DefaultRhoTable()))}
	k, clock := cfg(0).Kernel, cfg(0).Clock
	engines := make([]*Engine, tickEngines)
	for i := range engines {
		c := cfg(i)
		ec := Options{Explorer: quiet, StartupSubslots: -1}.Config(c, sim.NewRandStream(1, uint64(i)))
		if levels > 1 {
			ec.Levels, ec.LevelStepDB, ec.CapturedOver = levels, 6, true
		}
		engines[i] = New(ec)
		c.Medium.Attach(c.ID, engines[i])
	}
	// Arm the engines in a seeded permutation: each boundary then ticks them
	// in an order unrelated to their addresses, as the city's cells do, and
	// the hardware prefetcher cannot hide cold engine blocks.
	for _, i := range rand.New(rand.NewSource(1)).Perm(tickEngines) {
		engines[i].Enqueue(dataTo(0, frame.NodeID(i), 1))
		engines[i].Start()
	}
	// run fires whole subslot boundaries until at least ticks events ran.
	run := func(ticks uint64) {
		for target := k.Processed() + ticks; k.Processed() < target; {
			k.Run(clock.NextSubslotStart(k.Now() + 1))
		}
	}
	run(uint64(2 * clock.Config().Subslots * tickEngines)) // warm the kernel over two superframes
	// The heap counters are process-wide, so the loop runs after a
	// collection and on one P, as in testing.AllocsPerRun: an allocation by
	// the runtime or the testing harness inside the window would otherwise
	// be charged to the ticks.
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := k.Processed()
	b.ResetTimer()
	run(uint64(b.N))
	b.StopTimer()
	runtime.ReadMemStats(&after)
	ticks := k.Processed() - start
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
	if n := after.Mallocs - before.Mallocs; n != 0 {
		b.Errorf("%d heap objects allocated over %d ticks, want 0", n, ticks)
	}
}

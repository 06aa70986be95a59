package scenario

import (
	"sync"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/sim"
)

// arena bundles the allocations a simulation run can recycle: the frame pool,
// the per-node hot-state slab (mac.Scratch) and the kernel's event arena and
// timing wheel. NewSubstrate takes one from arenas for every run, and a
// runner that owns the end of its run (Run, and dsme.RunScenario through
// Substrate.Release) hands it back once the result is collected, so the
// thousands of back-to-back runs of a sweep re-carve the same blocks instead
// of allocating them afresh.
//
// Reuse is invisible to the simulation: frames are zeroed when the pool
// hands them out and slab slices are zeroed when carved, so a run behaves
// byte-identically whether its arena is fresh or warm — which is what keeps
// results independent of the worker count. Each run still gets a kernel of
// its own: Release hands the run's kernel storage to a new kernel
// (sim.Kernel.Recycle), so the finished run's kernel stays readable for its
// counters while an idle arena references nothing of that run.
type arena struct {
	pool    frame.Pool
	scratch mac.Scratch
	kernel  *sim.Kernel // empty, over the storage of the arena's previous run
}

// arenas holds the arenas no run is using. A sync.Pool hands each to one
// run at a time and lets the garbage collector drop the idle ones.
var arenas = new(sync.Pool)

// takeArena returns an arena readied for a new run: the slab rewinds (every
// engine of the arena's previous run is gone by now) and the frame pool keeps
// its free list — recycled frames are zeroed on Get.
func takeArena() *arena {
	a, _ := arenas.Get().(*arena)
	if a == nil {
		return &arena{kernel: sim.NewKernel()}
	}
	a.scratch.Reset()
	// Drop the frame tracking a previous checked run left behind; the new
	// run re-enables it when it wants checks.
	a.pool.SetChecks(false)
	return a
}

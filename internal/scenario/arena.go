package scenario

import (
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/sim"
)

// Arena bundles the allocations a simulation run can recycle: the frame pool,
// the per-node hot-state slab (mac.Scratch) and the kernel's event arena and
// timing wheel. A replicated sweep creates one Arena per worker and hands it
// to every run that worker executes; each run rewinds the slab and re-carves
// the same blocks, so a worker's memory footprint stays constant no matter
// how many replications it runs.
//
// Reuse is invisible to the simulation: frames are zeroed when the pool
// hands them out and slab slices are zeroed when carved, so a run behaves
// byte-identically whether its arena is fresh or warm — which is what keeps
// results independent of the worker count. Each run still gets a kernel of
// its own (sim.Kernel.Recycle), so the previous run's kernel stays readable
// for its counters.
//
// An Arena must only ever be used by one run at a time (workers are
// sequential); the zero value is ready to use.
type Arena struct {
	pool    frame.Pool
	scratch mac.Scratch
	kernel  *sim.Kernel // the previous run's, whose storage the next run takes over
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Begin readies the arena for the next run and exposes its parts: the slab
// rewinds (every engine of the previous run is gone by now), the frame pool
// keeps its free list — recycled frames are zeroed on Get — and the new
// kernel takes over the previous one's event storage. NewSubstrate calls it
// once per run; nothing else does, so Run and the DSME runner share one
// recycling path.
func (a *Arena) Begin() (*sim.Kernel, *frame.Pool, *mac.Scratch) {
	a.scratch.Reset()
	// Drop any double-release tracking a previous (possibly crashed) checked
	// run left behind; the new run re-enables it when it wants checks.
	a.pool.SetChecks(false)
	if a.kernel == nil {
		a.kernel = sim.NewKernel()
	} else {
		a.kernel = a.kernel.Recycle()
	}
	return a.kernel, &a.pool, &a.scratch
}

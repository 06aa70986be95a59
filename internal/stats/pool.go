package stats

import (
	"sort"
	"sync"
)

// This file is the dependency-driven counterpart to replicate.go's
// fixed-index worker pool: RunPool keeps Workers(parallel) goroutines alive
// for the whole workload and feeds them from a dynamic ready queue instead
// of re-dispatching a fresh pool per phase. A completing job reports which
// items its completion made ready, so irregular dependency graphs (the
// sharded scheduler's per-cell epoch lattice) run without any global
// barrier: a worker that finishes one item immediately picks up the
// highest-priority ready item instead of idling until the slowest item of a
// phase completes.
//
// Determinism is the caller's problem by design: the pool guarantees only
// that every pushed item runs exactly once and that a job's writes
// happen-before the execution of every item it pushed (the push and the
// dequeue synchronize on the pool lock). Callers that want byte-identical
// results across worker counts must make each item's effect independent of
// execution order, exactly like ForEachWorker jobs.

// Item is one schedulable unit of work for RunPool.
type Item struct {
	// ID addresses the item; the pool passes it through to the job.
	ID int
	// Priority orders the ready queue: among ready items, larger dequeues
	// first. Work-aware callers use a work estimate (e.g. the item's event
	// count last time around) so the critical path starts early.
	Priority uint64
	// Affinity is the preferred worker index (-1 = any): a worker first
	// takes the best ready item that prefers it, and only then the best
	// ready item overall. Callers use it to re-run an item on the worker
	// whose cache already holds the item's state (arena affinity).
	Affinity int
}

// pool is the shared state of one RunPool invocation.
type pool struct {
	mu   sync.Mutex
	cond *sync.Cond
	// ready holds the schedulable items; outstanding counts ready plus
	// in-flight items, so outstanding == 0 means the workload is drained.
	ready       []Item
	outstanding int
	aborted     bool
	errs        []*RepError
}

// RunPool executes a dependency-driven workload on persistent workers: the
// initial items are ready immediately, and a completing job returns the
// items its completion made ready (each item must be returned exactly once
// over the whole run). The pool exits when every item completed or after an
// item failed; it returns nil on full success.
//
// A panicking job is recorded as a RepError (Attempts 1) and aborts the pool:
// unlike ForEachWorker's independent replications, an item is never retried,
// because a job that panicked midway may have left state its dependants read
// half-updated, and later items must not run against a broken dependency
// (pending items are dropped, in-flight items finish). Callers treat a
// non-nil error slice as fatal for the whole workload.
func RunPool(parallel int, initial []Item, job func(w, id int) []Item) []*RepError {
	if len(initial) == 0 {
		return nil
	}
	workers := Workers(parallel)
	if workers > len(initial) {
		// Items beyond the initial set only become ready as earlier ones
		// complete, so concurrency can never exceed the initial width here;
		// callers with wider dynamic fan-out size their initial set instead.
		workers = len(initial)
	}
	p := &pool{
		ready:       append([]Item(nil), initial...),
		outstanding: len(initial),
	}
	p.cond = sync.NewCond(&p.mu)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			p.work(w, job)
		}(w)
	}
	wg.Wait()
	sort.Slice(p.errs, func(a, b int) bool { return p.errs[a].Index < p.errs[b].Index })
	return p.errs
}

// work is one persistent worker's loop: take the best ready item, run it,
// push what its completion readied, repeat until drained or aborted.
func (p *pool) work(w int, job func(w, id int) []Item) {
	for {
		p.mu.Lock()
		for len(p.ready) == 0 && p.outstanding > 0 && !p.aborted {
			p.cond.Wait()
		}
		if p.aborted || len(p.ready) == 0 {
			p.mu.Unlock()
			return
		}
		it := p.take(w)
		p.mu.Unlock()

		var pushes []Item
		re := capturePanic(it.ID, func() { pushes = job(w, it.ID) })

		p.mu.Lock()
		if re != nil {
			p.errs = append(p.errs, re)
			p.aborted = true
			p.ready = nil
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		if p.aborted {
			// Another worker failed while this item ran; its pushes are moot.
			p.mu.Unlock()
			return
		}
		p.ready = append(p.ready, pushes...)
		p.outstanding += len(pushes) - 1
		if len(pushes) > 0 || p.outstanding == 0 {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}
}

// take removes and returns the best ready item for worker w under p.mu:
// the highest-priority item preferring w, else the highest-priority item
// overall; ID breaks ties so selection is stable. The queue stays small
// (bounded by the workload's ready width), so a linear scan beats heap
// bookkeeping here.
func (p *pool) take(w int) Item {
	best, bestAff := -1, false
	for i := range p.ready {
		aff := p.ready[i].Affinity == w
		if best >= 0 {
			b := &p.ready[i]
			cur := &p.ready[best]
			if bestAff && !aff {
				continue
			}
			if aff == bestAff &&
				(b.Priority < cur.Priority || (b.Priority == cur.Priority && b.ID > cur.ID)) {
				continue
			}
		}
		best, bestAff = i, aff
	}
	it := p.ready[best]
	p.ready[best] = p.ready[len(p.ready)-1]
	p.ready = p.ready[:len(p.ready)-1]
	return it
}

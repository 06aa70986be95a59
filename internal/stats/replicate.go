package stats

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
)

// This file is the replication engine behind every figure: independent
// simulation runs (replications, and independent sweep points) are sharded
// across RunPool's workers as items that push no successors. Determinism is
// by construction — each job is addressed by its index, derives all
// randomness from its seed, and writes only its own result slot; merging
// then walks the slots in index order, so the output is byte-identical for
// any worker count.
//
// The pool is also the process's crash barrier: a panicking replication is
// recovered, retried once (against e.g. a transient OOM kill of a goroutine
// stack) and, if it panics again, recorded as a structured RepError instead
// of taking down a sweep of thousands of runs. The sweep completes with the
// surviving replications; the RepError carries the exact cell and seed
// needed to reproduce the crash in a single-threaded run.

// RepError describes one job that panicked on every attempt. It carries
// everything needed for a single-threaded repro: the sweep cell, the seed,
// the recovered panic value and the stack of the final attempt.
type RepError struct {
	// Cell is the sweep point (set by ReplicateGrid; 0 under ForEach,
	// whose callers address jobs by Index).
	Cell int
	// Seed is the replication seed (set by ReplicateGrid, like Cell).
	Seed uint64
	// Index is the flat job index: the job index under ForEach,
	// cell·reps + seed under ReplicateGrid.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the final panic.
	Stack []byte
	// Attempts is how many times the job was tried: 2 (initial + one retry)
	// for the independent jobs of ForEach and ReplicateGrid, 1 for a
	// RunPool item, which is never retried.
	Attempts int
}

// Error implements error.
func (e *RepError) Error() string {
	return fmt.Sprintf("stats: replication cell=%d seed=%d panicked after %d attempts: %v",
		e.Cell, e.Seed, e.Attempts, e.Value)
}

// Workers resolves a parallelism request: values <= 0 select GOMAXPROCS
// (use all hardware threads), anything else is taken literally.
func Workers(parallel int) int {
	if parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallel
}

// capturePanic runs fn under a recover barrier: nil when fn returns, else a
// one-attempt RepError for job i carrying the panic value and stack (Cell and
// Seed are left for the caller). It is the one recover path both pools share.
func capturePanic(i int, fn func()) (re *RepError) {
	defer func() {
		if v := recover(); v != nil {
			re = &RepError{Index: i, Value: v, Stack: debug.Stack(), Attempts: 1}
		}
	}()
	fn()
	return nil
}

// runJob executes job(i) with one retry: replications are independent, so
// re-running one cannot disturb another. It returns nil on success and the
// second attempt's RepError when both attempts panicked.
func runJob(i int, job func(i int)) *RepError {
	if capturePanic(i, func() { job(i) }) == nil {
		return nil
	}
	re := capturePanic(i, func() { job(i) })
	if re != nil {
		re.Attempts = 2
	}
	return re
}

// ForEach runs job(0..n-1) on up to Workers(parallel) goroutines and waits
// for all of them. Jobs must be independent and must confine their writes to
// per-index state. With one worker (or n == 1) every job runs on the calling
// goroutine.
//
// A job that panics is retried once and, failing again, reported in the
// returned slice (ordered by job index) instead of crashing the pool; its
// result slot is simply never written. A nil return means every job
// completed. Jobs are dispatched in index order.
func ForEach(n, parallel int, job func(i int)) []*RepError {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, Affinity: -1}
	}
	return runIndependent(parallel, items, job)
}

// runIndependent runs each item's job once on RunPool, pushing no
// successors. The retry and the error record live inside the item's job,
// so a job that panicked twice is reported, ordered by ID, instead of
// aborting the pool.
func runIndependent(parallel int, items []Item, job func(i int)) []*RepError {
	var mu sync.Mutex
	var errs []*RepError
	// runJob recovers every panic, so RunPool itself records none.
	_ = RunPool(parallel, items, func(_, i int) []Item {
		if re := runJob(i, job); re != nil {
			mu.Lock()
			errs = append(errs, re)
			mu.Unlock()
		}
		return nil
	})
	sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
	return errs
}

// ReplicateGrid shards a whole sweep — cells independent experiment
// points, reps replications each — across one worker pool, so parallelism
// is not throttled by the replication count of a single point (Quick mode
// runs only 3 replications per point, far fewer than a modern machine has
// cores). fn(cell, seed) must be independent across all (cell, seed) pairs.
// The result is one Estimate per metric name per cell, merged in seed order,
// so it does not depend on which worker ran which replication.
//
// Cells are dispatched from the last one down (the cell is the item's
// priority), each in seed order. Sweeps list their points from small to
// large, so the most expensive cells start first and the cheap ones fill in
// behind them, instead of one large cell starting last and running alone.
//
// A replication that panicked twice is excluded from its cell's merge (the
// cell's Estimates simply average one fewer run) and reported in the error
// slice with its exact cell and seed, so the sweep of every other point
// completes and the crash stays reproducible single-threaded. Index is then
// the cell-major flat index cell·reps + seed.
func ReplicateGrid(cells, reps, parallel int, fn func(cell int, seed uint64) map[string]float64) ([]map[string]Estimate, []*RepError) {
	results := make([]map[string]float64, cells*reps)
	items := make([]Item, cells*reps)
	for i := range items {
		items[i] = Item{ID: i, Priority: uint64(i / reps), Affinity: -1}
	}
	errs := runIndependent(parallel, items, func(i int) {
		results[i] = fn(i/reps, uint64(i%reps))
	})
	for _, e := range errs {
		e.Cell = e.Index / reps
		e.Seed = uint64(e.Index % reps)
	}
	out := make([]map[string]Estimate, cells)
	for c := 0; c < cells; c++ {
		out[c] = mergeRuns(results[c*reps : (c+1)*reps])
	}
	return out, errs
}

// mergeRuns folds per-replication metric maps into Estimates, visiting the
// replications in slice (seed) order so the accumulation is deterministic.
// Nil entries (failed replications) are skipped: iterating a nil map yields
// nothing, so a lost run lowers every Estimate's N by one instead of
// poisoning the merge.
func mergeRuns(results []map[string]float64) map[string]Estimate {
	acc := make(map[string]*Running)
	for _, m := range results {
		for k, v := range m {
			if acc[k] == nil {
				acc[k] = &Running{}
			}
			acc[k].Add(v)
		}
	}
	out := make(map[string]Estimate, len(acc))
	for k, r := range acc {
		out[k] = r.Estimate()
	}
	return out
}

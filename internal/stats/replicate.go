package stats

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the replication engine behind every figure: independent
// simulation runs (replications, and independent sweep points) are sharded
// across a bounded worker pool. Determinism is by construction — each job is
// addressed by its index, derives all randomness from its seed, and writes
// only its own result slot; merging then walks the slots in index order, so
// the output is byte-identical for any worker count.
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
	// Cell is the sweep point (always 0 for non-grid drivers).
	Cell int
	// Seed is the replication seed (equal to Index for non-grid drivers).
	Seed uint64
	// Index is the flat job index the driver dispatched.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the final panic.
	Stack []byte
	// Attempts is how many times the job was tried: 2 (initial + one retry)
	// under ForEachWorker, 1 under RunPool, which never retries.
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

// runJob executes job(w, i) with one retry: replications are independent, so
// re-running one cannot disturb another. It returns nil on success and the
// second attempt's RepError when both attempts panicked.
func runJob(w, i int, job func(w, i int)) *RepError {
	if capturePanic(i, func() { job(w, i) }) == nil {
		return nil
	}
	re := capturePanic(i, func() { job(w, i) })
	if re != nil {
		re.Attempts = 2
	}
	return re
}

// ForEach runs job(0..n-1) on up to Workers(parallel) goroutines and waits
// for all of them. Jobs must be independent and must confine their writes to
// per-index state. With one worker (or n == 1) it degrades to a plain loop
// on the calling goroutine.
//
// A job that panics is retried once and, failing again, reported in the
// returned slice (ordered by job index) instead of crashing the pool; its
// result slot is simply never written. A nil return means every job
// completed.
func ForEach(n, parallel int, job func(i int)) []*RepError {
	return ForEachWorker(n, parallel, func(_, i int) { job(i) })
}

// ForEachWorker is ForEach with a worker identity: job additionally receives
// the index w of the worker goroutine executing it, 0 <= w < Workers(parallel).
// Jobs on the same w run strictly sequentially, which is what lets a job
// reuse per-worker state (scratch arenas, frame pools) without locking. The
// results must not depend on that state — each job stays addressed purely by
// its index i.
func ForEachWorker(n, parallel int, job func(w, i int)) []*RepError {
	var next atomic.Int64
	var mu sync.Mutex
	var errs []*RepError
	work := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if re := runJob(w, i, job); re != nil {
				mu.Lock()
				errs = append(errs, re)
				mu.Unlock()
			}
		}
	}
	if workers := min(Workers(parallel), n); workers <= 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		wg.Wait()
	}
	sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
	return errs
}

// Replicate runs fn for seeds 0..n-1, each invocation independent, sharded
// over the worker pool, and returns the per-seed results in seed order.
// Every figure of the evaluation aggregates such replications; determinism
// comes from fn deriving all randomness from the seed. A replication that
// panicked twice leaves zero in its slot and is reported in the error slice.
func Replicate(n, parallel int, fn func(seed uint64) float64) ([]float64, []*RepError) {
	out := make([]float64, n)
	errs := ForEach(n, parallel, func(i int) { out[i] = fn(uint64(i)) })
	for _, e := range errs {
		e.Seed = uint64(e.Index)
	}
	return out, errs
}

// ReplicateMany is Replicate for functions returning several named metrics;
// it returns one Estimate per metric name, accumulated in seed order. Failed
// replications contribute nothing — each Estimate's N reports how many
// replications actually survived.
func ReplicateMany(n, parallel int, fn func(seed uint64) map[string]float64) (map[string]Estimate, []*RepError) {
	results := make([]map[string]float64, n)
	errs := ForEach(n, parallel, func(i int) { results[i] = fn(uint64(i)) })
	for _, e := range errs {
		e.Seed = uint64(e.Index)
	}
	return mergeRuns(results), errs
}

// ReplicateGrid shards a whole sweep — cells independent experiment points,
// reps replications each — across one worker pool, so parallelism is not
// throttled by the replication count of a single point (Quick mode runs only
// 3 replications per point, far fewer than a modern machine has cores).
// fn(cell, seed) must be independent across all (cell, seed) pairs; the
// result is one Estimate per metric name per cell, merged in seed order.
//
// A replication that panicked twice is excluded from its cell's merge (the
// cell's Estimates simply average one fewer run) and reported in the error
// slice with its exact cell and seed, so the sweep of every other point
// completes and the crash stays reproducible single-threaded.
func ReplicateGrid(cells, reps, parallel int, fn func(cell int, seed uint64) map[string]float64) ([]map[string]Estimate, []*RepError) {
	return ReplicateGridWorker(cells, reps, parallel,
		func(_, cell int, seed uint64) map[string]float64 { return fn(cell, seed) })
}

// ReplicateGridWorker is ReplicateGrid handing fn the worker index executing
// the replication (see ForEachWorker), so a sweep can reuse one arena per
// worker across its runs. The merged Estimates must not depend on the worker
// assignment.
func ReplicateGridWorker(cells, reps, parallel int, fn func(w, cell int, seed uint64) map[string]float64) ([]map[string]Estimate, []*RepError) {
	results := make([]map[string]float64, cells*reps)
	errs := ForEachWorker(cells*reps, parallel, func(w, i int) {
		results[i] = fn(w, i/reps, uint64(i%reps))
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

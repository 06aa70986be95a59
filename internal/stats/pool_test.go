package stats

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunPoolRunsEveryItemOnce pins the basic contract on a dynamic
// workload: a chain of pushes where each item readies the next, across
// several workers, with every item executing exactly once.
func TestRunPoolRunsEveryItemOnce(t *testing.T) {
	const n = 200
	var ran [n]atomic.Int32
	errs := RunPool(4, []Item{{ID: 0}}, func(_, id int) []Item {
		ran[id].Add(1)
		if id+1 < n {
			return []Item{{ID: id + 1}}
		}
		return nil
	})
	if errs != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("item %d ran %d times, want 1", i, got)
		}
	}
}

// TestRunPoolDependencyOrder runs a diamond dependency (0 -> {1,2} -> 3,
// readiness managed by the caller exactly like the sharded scheduler does)
// on many workers and asserts no item ran before everything it depends on.
func TestRunPoolDependencyOrder(t *testing.T) {
	deps := map[int][]int{1: {0}, 2: {0}, 3: {1, 2}}
	children := map[int][]int{0: {1, 2}, 1: {3}, 2: {3}}
	var mu sync.Mutex
	done := make(map[int]bool)
	pendingDeps := map[int]int{1: 1, 2: 1, 3: 2}
	errs := RunPool(8, []Item{{ID: 0}}, func(_, id int) []Item {
		mu.Lock()
		defer mu.Unlock()
		for _, d := range deps[id] {
			if !done[d] {
				t.Errorf("item %d ran before its dependency %d", id, d)
			}
		}
		done[id] = true
		var ready []Item
		for _, c := range children[id] {
			pendingDeps[c]--
			if pendingDeps[c] == 0 {
				ready = append(ready, Item{ID: c})
			}
		}
		return ready
	})
	if errs != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(done) != 4 {
		t.Fatalf("ran %d items, want 4", len(done))
	}
}

// TestRunPoolPriorityOrder pins the dequeue policy on one worker: ready
// items run largest-priority first, ID ascending on ties.
func TestRunPoolPriorityOrder(t *testing.T) {
	initial := []Item{
		{ID: 0, Priority: 5, Affinity: -1},
		{ID: 1, Priority: 9, Affinity: -1},
		{ID: 2, Priority: 9, Affinity: -1},
		{ID: 3, Priority: 1, Affinity: -1},
	}
	var order []int
	if errs := RunPool(1, initial, func(_, id int) []Item {
		order = append(order, id)
		return nil
	}); errs != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	want := []int{1, 2, 0, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// TestRunPoolAffinityPreference pins that a worker drains the items
// preferring it before touching higher-priority items bound elsewhere.
func TestRunPoolAffinityPreference(t *testing.T) {
	initial := []Item{
		{ID: 0, Priority: 100, Affinity: 1}, // prefers a worker that does not exist
		{ID: 1, Priority: 1, Affinity: 0},
	}
	var order []int
	if errs := RunPool(1, initial, func(_, id int) []Item {
		order = append(order, id)
		return nil
	}); errs != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if order[0] != 1 {
		t.Fatalf("execution order %v, want the affinity-0 item first", order)
	}
}

// TestRunPoolRetriesOnce pins RunPool's retry policy: unlike ForEach,
// which retries a replication once, a pool item runs exactly once. A panic
// on the first attempt — even a transient one — is never retried, on one
// worker or several, and surfaces as a one-attempt RepError.
func TestRunPoolRetriesOnce(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var attempts atomic.Int32
		errs := RunPool(workers, []Item{{ID: 7}}, func(_, id int) []Item {
			if attempts.Add(1) == 1 {
				panic("transient")
			}
			return nil
		})
		if len(errs) != 1 {
			t.Fatalf("workers=%d: got %d errors, want 1: %v", workers, len(errs), errs)
		}
		if e := errs[0]; e.Index != 7 || e.Attempts != 1 || e.Value != "transient" {
			t.Fatalf("workers=%d: RepError = %+v, want index 7, 1 attempt, value %q", workers, e, "transient")
		}
		if got := attempts.Load(); got != 1 {
			t.Fatalf("workers=%d: job attempted %d times, want exactly 1", workers, got)
		}
	}
}

// TestRunPoolAbortsAfterDoublePanic pins the abort: with two poisoned items
// queued ahead of a healthy one, the first panic aborts the pool, so neither
// the second poisoned item nor the healthy one runs.
func TestRunPoolAbortsAfterDoublePanic(t *testing.T) {
	var panicked, survivors atomic.Int32
	errs := RunPool(1, []Item{{ID: 3, Priority: 10}, {ID: 5, Priority: 5}, {ID: 4}}, func(_, id int) []Item {
		if id == 3 || id == 5 {
			panicked.Add(1)
			panic("poisoned")
		}
		survivors.Add(1)
		return []Item{{ID: id + 100}}
	})
	if len(errs) != 1 {
		t.Fatalf("got %d errors, want 1: %v", len(errs), errs)
	}
	e := errs[0]
	if e.Index != 3 || e.Attempts != 1 || e.Value != "poisoned" {
		t.Fatalf("RepError = %+v, want index 3, 1 attempt, value %q", e, "poisoned")
	}
	if got := panicked.Load(); got != 1 {
		t.Fatalf("%d poisoned items ran, want 1 (the abort must drop the second)", got)
	}
	// Item 3 has the highest priority, so the single worker runs it first and
	// the abort must drop items 5 and 4 entirely.
	if got := survivors.Load(); got != 0 {
		t.Fatalf("%d items ran after the abort, want 0", got)
	}
}

// TestRunPoolEmptyInitial pins the degenerate case.
func TestRunPoolEmptyInitial(t *testing.T) {
	if errs := RunPool(4, nil, func(_, id int) []Item { return nil }); errs != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
}

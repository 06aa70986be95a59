package stats

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, parallel := range []int{1, 2, 7, 0} {
		const n = 100
		var hits [n]int32
		ForEach(n, parallel, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("parallel=%d: index %d visited %d times", parallel, i, h)
			}
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	ForEach(0, 4, func(i int) { t.Fatal("job called for n=0") })
	calls := 0
	ForEach(1, 8, func(i int) { calls++ })
	if calls != 1 {
		t.Fatalf("n=1: job called %d times", calls)
	}
}

// TestReplicateSeedOrder pins that per-seed results land in seed order when
// replications are sharded: job i writes slot i, whatever worker ran it.
func TestReplicateSeedOrder(t *testing.T) {
	got := make([]float64, 8)
	errs := ForEach(len(got), 3, func(i int) { got[i] = float64(i * i) })
	if len(errs) != 0 {
		t.Fatalf("unexpected replication errors: %v", errs)
	}
	for i, v := range got {
		if v != float64(i*i) {
			t.Fatalf("result[%d] = %v, want %d", i, v, i*i)
		}
	}
}

func TestReplicateManyDeterministicAcrossParallelism(t *testing.T) {
	fn := func(_ int, seed uint64) map[string]float64 {
		return map[string]float64{
			"a": math.Sin(float64(seed)),
			"b": float64(seed) / 7,
		}
	}
	want, _ := ReplicateGrid(1, 13, 1, fn)
	for _, parallel := range []int{2, 5, 0} {
		got, _ := ReplicateGrid(1, 13, parallel, fn)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel=%d: estimates differ: %v vs %v", parallel, got, want)
		}
	}
}

func TestReplicateGridDeterministicAcrossParallelism(t *testing.T) {
	fn := func(cell int, seed uint64) map[string]float64 {
		return map[string]float64{"v": float64(cell)*100 + math.Cos(float64(seed))}
	}
	want, _ := ReplicateGrid(5, 4, 1, fn)
	for _, parallel := range []int{3, 16, 0} {
		got, _ := ReplicateGrid(5, 4, parallel, fn)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel=%d: grid estimates differ", parallel)
		}
	}
	// Welford accumulation in seed order: cell c sees seeds 0..3 exactly.
	for c, est := range want {
		var r Running
		for seed := 0; seed < 4; seed++ {
			r.Add(float64(c)*100 + math.Cos(float64(seed)))
		}
		if est["v"] != r.Estimate() {
			t.Fatalf("cell %d merged out of seed order: %v vs %v", c, est["v"], r.Estimate())
		}
	}
}

// TestReplicateGridDispatchesLargestCellsFirst pins the dispatch order on
// one worker: sweeps list their points from small to large, so the grid
// hands out the last cell first and works down, each cell's seeds in order.
func TestReplicateGridDispatchesLargestCellsFirst(t *testing.T) {
	var order [][2]int
	est, errs := ReplicateGrid(3, 2, 1, func(cell int, seed uint64) map[string]float64 {
		order = append(order, [2]int{cell, int(seed)})
		return map[string]float64{"cell": float64(cell)}
	})
	if len(errs) != 0 {
		t.Fatalf("unexpected replication errors: %v", errs)
	}
	want := [][2]int{{2, 0}, {2, 1}, {1, 0}, {1, 1}, {0, 0}, {0, 1}}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
	// Results still land in their own cells.
	for c, m := range est {
		if m["cell"].Mean != float64(c) || m["cell"].N != 2 {
			t.Fatalf("cell %d merged %+v", c, m["cell"])
		}
	}
}

// TestReplicateGridSurvivesPanickingReplication pins the hardened-pool
// contract: one replication panicking on both attempts must not kill the
// sweep — the other 99 replications merge normally and the failure comes
// back as one structured RepError naming the exact cell and seed for a
// single-threaded repro.
func TestReplicateGridSurvivesPanickingReplication(t *testing.T) {
	const cells, reps = 10, 10
	for _, parallel := range []int{1, 4, 0} {
		est, errs := ReplicateGrid(cells, reps, parallel, func(cell int, seed uint64) map[string]float64 {
			if cell == 7 && seed == 3 {
				panic("protocol stub exploded")
			}
			return map[string]float64{"v": 1}
		})
		if len(errs) != 1 {
			t.Fatalf("parallel=%d: got %d errors, want 1", parallel, len(errs))
		}
		e := errs[0]
		if e.Cell != 7 || e.Seed != 3 || e.Index != 73 || e.Attempts != 2 {
			t.Fatalf("parallel=%d: RepError = %+v, want cell=7 seed=3 index=73 attempts=2", parallel, e)
		}
		if e.Value != "protocol stub exploded" || len(e.Stack) == 0 {
			t.Fatalf("parallel=%d: RepError missing panic value or stack: %+v", parallel, e)
		}
		if e.Error() == "" {
			t.Fatal("RepError.Error() empty")
		}
		// The failed cell degrades to reps-1 merged runs; all others are whole.
		for c := 0; c < cells; c++ {
			wantN := reps
			if c == 7 {
				wantN = reps - 1
			}
			if got := est[c]["v"].N; got != wantN {
				t.Fatalf("parallel=%d: cell %d merged %d runs, want %d", parallel, c, got, wantN)
			}
		}
	}
}

// TestForEachRetriesTransientPanic pins the one-retry policy: a job that
// panics once and then succeeds is not reported as failed.
func TestForEachRetriesTransientPanic(t *testing.T) {
	var firstTry [4]atomic.Bool
	hits := [4]int32{}
	errs := ForEach(4, 2, func(i int) {
		if i == 2 && !firstTry[i].Swap(true) {
			panic("transient")
		}
		atomic.AddInt32(&hits[i], 1)
	})
	if len(errs) != 0 {
		t.Fatalf("transient panic reported as failure: %v", errs)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d completed %d times, want 1", i, h)
		}
	}
}

// TestForEachReportsErrorsInIndexOrder pins the ordering contract under
// concurrency.
func TestForEachReportsErrorsInIndexOrder(t *testing.T) {
	errs := ForEach(50, 8, func(i int) {
		if i%7 == 0 {
			panic(i)
		}
	})
	var want []int
	for i := 0; i < 50; i += 7 {
		want = append(want, i)
	}
	if len(errs) != len(want) {
		t.Fatalf("got %d errors, want %d", len(errs), len(want))
	}
	for k, e := range errs {
		if e.Index != want[k] {
			t.Fatalf("errs[%d].Index = %d, want %d", k, e.Index, want[k])
		}
		if e.Value != want[k] {
			t.Fatalf("errs[%d].Value = %v, want %d", k, e.Value, want[k])
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("Workers(3) != 3")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("Workers(<=0) must resolve to at least one worker")
	}
}

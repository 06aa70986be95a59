package sim_test

import (
	"testing"

	"qma/internal/markov"
	. "qma/internal/sim"
)

// The event arena and freelist exist so the hot loop performs no heap
// allocations; these tests pin that property so a refactor cannot silently
// reintroduce per-event garbage (BenchmarkKernelEvent reports the same
// number, but only when someone reads the bench output). The file is an
// external test package so it can also pin allocation-free behaviour of
// packages that themselves import sim (markov below).

func TestAtCallSteadyStateDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	type ctx struct{ n int }
	c := &ctx{}
	fn := func(a any) { a.(*ctx).n++ }
	k.AtCall(k.Now()+1, fn, c)
	k.Run(k.Now() + 1)
	allocs := testing.AllocsPerRun(1000, func() {
		k.AtCall(k.Now()+1, fn, c)
		k.Run(k.Now() + 1)
	})
	if allocs != 0 {
		t.Errorf("steady-state AtCall+Run allocates %.1f objects per event, want 0", allocs)
	}
	if c.n < 1000 {
		t.Errorf("callback ran %d times, want >= 1000", c.n)
	}
}

func TestCancelSteadyStateDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	fn := func(any) {}
	allocs := testing.AllocsPerRun(1000, func() {
		ev := k.AtCall(k.Now()+1, fn, nil)
		ev.Cancel()
		k.Run(k.Now() + 1)
	})
	if allocs != 0 {
		t.Errorf("schedule+cancel cycle allocates %.1f objects per event, want 0", allocs)
	}
}

func TestAtCallEarlySteadyStateDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	fn := func(any) {}
	k.AtCallEarly(k.Now()+1, fn, nil)
	k.Run(k.Now() + 1)
	allocs := testing.AllocsPerRun(1000, func() {
		k.AtCallEarly(k.Now()+1, fn, nil)
		k.Run(k.Now() + 1)
	})
	if allocs != 0 {
		t.Errorf("steady-state AtCallEarly+Run allocates %.1f objects per event, want 0", allocs)
	}
}

// Events a page or more ahead travel through the coarse ring, and events
// beyond its horizon through the overflow heap, before they cascade into a
// fine bucket; once capacity is warm, neither level may allocate.
func TestWheelLevelsSteadyStateDoNotAllocate(t *testing.T) {
	for _, level := range []struct {
		name string
		d    Time
	}{{"coarse", 5 * Millisecond}, {"overflow", 10 * Second}} {
		k := NewKernel()
		fn := func(any) {}
		k.AtCall(k.Now()+level.d, fn, nil)
		k.AtCallEarly(k.Now()+level.d, fn, nil)
		k.Run(Never)
		allocs := testing.AllocsPerRun(1000, func() {
			k.AtCall(k.Now()+level.d, fn, nil)
			k.AtCallEarly(k.Now()+level.d, fn, nil)
			k.Run(Never)
		})
		if allocs != 0 {
			t.Errorf("%s level: steady-state schedule+fire allocates %.1f objects per round, want 0", level.name, allocs)
		}
		// Two events per round: ours, AllocsPerRun's warm-up and its 1000.
		if want := uint64(2 * 1002); k.Processed() != want {
			t.Errorf("%s level: processed %d events, want %d", level.name, k.Processed(), want)
		}
	}
}

func TestExpectedHandshakeMessagesDoesNotAllocate(t *testing.T) {
	// The Eq. 12 solve runs on a pooled workspace; a sweep over p (the
	// Fig. 26 curve, BenchmarkHandshakeMatrix) must not allocate per point.
	if raceEnabled {
		t.Skip("sync.Pool allocates under the race detector")
	}
	markov.ExpectedHandshakeMessages(0.5) // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		if markov.ExpectedHandshakeMessages(0.5) < 3 {
			t.Fatal("impossible expectation")
		}
	})
	if allocs != 0 {
		t.Errorf("ExpectedHandshakeMessages allocates %.1f objects per solve, want 0", allocs)
	}
}

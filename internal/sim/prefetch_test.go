package sim

import (
	"fmt"
	"slices"
	"testing"
)

// tinyCtx is a context smaller than one cache line, boxed by value or
// pointed to.
type tinyCtx struct{ b byte }

func (c *tinyCtx) id() int { return int(c.b) }

// prefetchContexts are same-instant event contexts whose data word is not
// an engine block: deep in a burst Run prefetches behind them, and none may
// fault or change what runs.
func prefetchContexts() map[string]func(i int) any {
	return map[string]func(i int) any{
		"nil":           func(int) any { return nil },
		"boxed-int64":   func(i int) any { return int64(i) },
		"boxed-byte":    func(i int) any { return byte(i) },
		"tiny-struct":   func(i int) any { return tinyCtx{byte(i)} },
		"tiny-pointer":  func(i int) any { return &tinyCtx{byte(i)} },
		"empty-struct":  func(int) any { return struct{}{} },
		"string-header": func(i int) any { return fmt.Sprint(i) },
	}
}

// probeRec is one fired probe event: when it ran and which one it was.
type probeRec struct {
	at Time
	id int
}

// burstLen is the number of same-instant successors runProbes puts ahead of
// each probe: enough that Run prefetches behind the last few of them and
// behind the probe itself.
const burstLen = prefetchAfter + 8

// runProbes schedules probes 7 ms apart (each on its own page, so they
// pass through the coarse ring). When ctx is non-nil, burstLen events at
// the probe's instant precede it, each carrying its own ctx value. It
// returns the probe trace, the kernel's final clock and how many probes
// fired; every burst event must receive exactly the context it was
// scheduled with.
func runProbes(t *testing.T, probes int, ctx func(i int) any) ([]probeRec, Time, uint64) {
	t.Helper()
	k := NewKernel()
	k.SetInvariantChecks(true)
	var trace []probeRec
	probe := func(a any) {
		trace = append(trace, probeRec{k.Now(), a.(*tinyCtx).id()})
	}
	fired := 0
	for i := 0; i < probes; i++ {
		at := Time(i) * 7 * Millisecond
		for j := 0; ctx != nil && j < burstLen; j++ {
			want := ctx(i*burstLen + j)
			k.AtCall(at, func(got any) {
				fired++
				if got != want {
					t.Errorf("burst event at %v received context %#v, want %#v", k.Now(), got, want)
				}
			}, want)
		}
		k.AtCall(at, probe, &tinyCtx{byte(i)})
	}
	k.RunAll()
	if ctx != nil && fired != burstLen*probes {
		t.Errorf("%d burst events fired, want %d", fired, burstLen*probes)
	}
	return trace, k.Now(), k.Processed() - uint64(fired)
}

// TestPrefetchIsInert shows the same-instant prefetch is only a hint:
// whatever the contexts of a burst long enough to be prefetched — nil, a
// boxed non-pointer value, a tiny struct, a pointer to one — the probes
// behind the bursts fire at the same instants in the same order as without
// them, and every burst event receives its own context unchanged.
func TestPrefetchIsInert(t *testing.T) {
	const probes = 50
	want, wantNow, wantProbes := runProbes(t, probes, nil)
	if len(want) != probes {
		t.Fatalf("baseline fired %d probes, want %d", len(want), probes)
	}
	for name, ctx := range prefetchContexts() {
		t.Run(name, func(t *testing.T) {
			got, now, fired := runProbes(t, probes, ctx)
			if !slices.Equal(got, want) {
				t.Errorf("probe trace differs behind a same-instant burst")
			}
			if now != wantNow || fired != wantProbes {
				t.Errorf("clock %v, %d probes fired; want %v, %d", now, fired, wantNow, wantProbes)
			}
		})
	}
	// prefetchContext never hands the stub a null pointer, but the hint
	// must not fault on one either.
	prefetchLines(nil, ContextPrefetchBytes/64)
}

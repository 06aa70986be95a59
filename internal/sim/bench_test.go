package sim_test

import (
	"testing"

	. "qma/internal/sim"
)

// spreadPending is BenchmarkKernelSpread's steady queue population.
const spreadPending = 1000

// spreadDistances draws schedule distances in the shape measured on the
// paper-golden workload: 86% within 8.2 ms (mostly the next page or two of
// the fine ring), 10% at 131–262 ms (a beacon interval ahead, on the coarse
// ring), and the rest spread to 16 s, about a quarter of them beyond the
// coarse horizon in the overflow heap. A seeded stream keeps the mix
// identical across runs.
func spreadDistances() []Time {
	r := NewRand(1)
	d := make([]Time, 4096)
	for i := range d {
		switch u := r.Float64(); {
		case u < 0.86:
			d[i] = Time(r.Intn(8192))
		case u < 0.96:
			d[i] = 131*Millisecond + Time(r.Intn(int(131*Millisecond)))
		default:
			d[i] = 262*Millisecond + Time(r.Intn(int(16*Second-262*Millisecond)))
		}
	}
	return d
}

// spread is the benchmark's event context: every fired event schedules its
// successor, so the population stays at spreadPending.
type spread struct {
	k    *Kernel
	dist []Time
	n    int
}

func spreadFire(arg any) {
	s := arg.(*spread)
	s.n++
	s.k.AtCall(s.k.Now()+s.dist[s.n&4095], spreadFire, s)
}

// BenchmarkKernelSpread measures the kernel on a golden-shaped schedule: a
// steady population of 1,000 pending events whose successors land at the
// distances of spreadDistances. One op is one fired event; the run is 0
// allocs/op once the arena and the overflow heap are warm.
func BenchmarkKernelSpread(b *testing.B) {
	k := NewKernel()
	s := &spread{k: k, dist: spreadDistances()}
	for i := 0; i < spreadPending; i++ {
		k.AtCall(s.dist[(i*7)&4095], spreadFire, s)
	}
	k.SetBudget(20 * spreadPending) // warm the arena and every wheel level
	k.Run(Never)
	b.ReportAllocs()
	b.ResetTimer()
	k.SetBudget(k.Processed() + uint64(b.N))
	k.Run(Never)
	b.StopTimer()
	if k.Live() != spreadPending {
		b.Fatalf("pending population drifted to %d, want %d", k.Live(), spreadPending)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

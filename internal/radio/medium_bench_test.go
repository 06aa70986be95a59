package radio

import (
	"fmt"
	"math"
	"testing"

	"qma/internal/frame"
	"qma/internal/sim"
)

// BenchmarkMediumLargeN measures building a medium over a sparse large-N
// path-loss deployment plus a burst of StartTX/CCA activity. The per-op cost
// must scale ~linearly in N: the CI bench smoke runs the N=1000 case with
// -benchtime=1x so an accidental O(N²) (dense matrix, global CCA scan)
// regression fails fast instead of silently melting large scenarios.
func BenchmarkMediumLargeN(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			rng := sim.NewRand(uint64(n))
			// Scale the area with N so mean degree stays ~constant (sparse
			// regime, ~35 m decode range with the default link budget).
			side := 200 * math.Sqrt(float64(n)/100)
			pos := make([]Position, n)
			for i := range pos {
				pos[i] = Position{X: rng.Float64() * side, Y: rng.Float64() * side}
			}
			f := &frame.Frame{Kind: frame.Data, Src: 0, Dst: frame.Broadcast, MPDUBytes: 50}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				topo := NewPathLossTopology(DefaultPathLossConfig(), pos)
				k := sim.NewKernel()
				m := NewMedium(k, topo, sim.NewRand(1))
				for id := 0; id < n; id++ {
					m.Attach(frame.NodeID(id), HandlerFunc(func(*frame.Frame) {}))
				}
				// One TX and a few CCAs per 10 nodes, spread over time.
				for id := 0; id < n; id += 10 {
					src := frame.NodeID(id)
					if !m.Transmitting(src) {
						f.Src = src
						m.StartTX(src, f, 0)
					}
					m.CCA(frame.NodeID((id + 5) % n))
				}
				k.Run(sim.Never)
			}
		})
	}
}

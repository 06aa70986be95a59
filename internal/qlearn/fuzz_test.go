package qlearn

import (
	"math"
	"testing"
)

// FuzzIntTableUpdate drives arbitrary parameters, table shapes and
// (s, a, r, next) streams, NaN and ±Inf rewards included, through both
// integer widths. Each step is checked against Eq. 5's integer arithmetic
// written out here on a shadow copy of the table: the updated raw value,
// every other entry, the returned value and the improved flag. Parameters
// outside a width's bounds must be rejected by Validate instead.
func FuzzIntTableUpdate(f *testing.F) {
	f.Add(uint8(1), uint16(230), int32(512), int32(-2560), uint8(2), []byte{0, 0, 1, 16, 1, 2, 0, 250, 0, 1, 1, 251, 1, 1, 0, 252})
	f.Add(uint8(0), uint16(256), int32(8), int32(-40), uint8(11), []byte{3, 2, 0, 120, 0, 0, 3, 133, 2, 1, 2, 253, 1, 0, 1, 254})
	// Valid at Q8.8 only: the 8-bit width caps the shift at 7 and InitQ at int8.
	f.Add(uint8(8), uint16(0), int32(0), int32(-100), uint8(31), []byte{0, 0, 0, 255, 1, 1, 1, 127, 0, 0, 0, 128})
	f.Add(uint8(1), uint16(230), int32(0), int32(-1000), uint8(31), []byte{0, 0, 0, 255, 1, 1, 1, 127})
	f.Add(uint8(3), uint16(200), int32(2147483647), int32(127), uint8(5), []byte{0, 0, 0, 250, 0, 0, 0, 1})
	specials := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e12, -1e12, 0.5}
	f.Fuzz(func(t *testing.T, shift uint8, gammaNum uint16, xi, initQ int32, dims uint8, stream []byte) {
		states, actions := 1+int(dims%8), 1+int(dims/8%4)
		p := rawParams{AlphaShift: uint(shift % 10), GammaNum: int32(gammaNum % 258), Xi: xi, InitQ: initQ}
		for _, c := range intCases {
			valid := p.AlphaShift <= c.maxShift && p.GammaNum <= 256 && p.Xi >= 0 &&
				int64(p.InitQ) >= c.min && int64(p.InitQ) <= c.max
			if err := c.validate(p); (err == nil) != valid {
				t.Fatalf("%s: Validate(%+v) = %v, want valid=%v", c.name, p, err, valid)
			}
			if !valid {
				continue
			}
			tab := c.mk(states, actions, p)
			shadow := make([]int64, states*actions)
			for i := range shadow {
				shadow[i] = int64(p.InitQ)
			}
			for st := stream; len(st) >= 4; st = st[4:] {
				s, a, next := int(st[0])%states, int(st[1])%actions, int(st[2])%states
				r := float64(int8(st[3])) / 3
				if st[3] >= 250 {
					r = specials[st[3]-250]
				}
				i := s*actions + a
				old := shadow[i]
				maxNext := shadow[next*actions]
				for _, v := range shadow[next*actions+1 : (next+1)*actions] {
					maxNext = max(maxNext, v)
				}
				target := int64(quantize(r, c.scale)) + (int64(p.GammaNum)*maxNext)>>8
				newV := old - (old >> p.AlphaShift) + (target >> p.AlphaShift)
				shadow[i] = min(max(newV, old-int64(p.Xi), c.min), c.max)

				got, improved := tab.Update(s, a, r, next)
				if want := float64(shadow[i]) / c.scale; got != want || improved != (newV > old) {
					t.Fatalf("%s Update(%d,%d,%v,%d) = (%v, %v), want (%v, %v)", c.name, s, a, r, next, got, improved, want, newV > old)
				}
				for j, v := range shadow {
					if raw := tab.rawAt(j/actions, j%actions); raw != v {
						t.Fatalf("%s after Update(%d,%d,%v,%d): raw[%d] = %d, want %d", c.name, s, a, r, next, j, raw, v)
					}
				}
			}
		}
	})
}

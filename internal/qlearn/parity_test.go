package qlearn

import (
	"math"
	"math/rand"
	"testing"
)

// This file pins two contracts across the three Table implementations:
//
//   - Non-finite inputs (NaN, ±Inf) saturate deterministically instead of
//     going through Go's implementation-defined float→int conversion.
//   - The Eq. 3 "improved" flag means the same thing everywhere: the newly
//     computed value strictly exceeded the previously stored one. FloatTable
//     returns stored > old and the integer tables return newV > old; the
//     property tests below prove the formulations coincide (exactly in
//     float, and up to the storage rails in fixed/quant).

// TestIntSetQNonFinite pins SetQ's rounding and saturation at both widths,
// non-finite and far out-of-range inputs included.
func TestIntSetQNonFinite(t *testing.T) {
	type setCase struct {
		in   float64
		want int64
	}
	cases := map[string][]setCase{
		"fixed": {
			{200, math.MaxInt16}, // 200·256 = 51200 > 32767
			{-200, math.MinInt16},
			{1.5, 384},
			{-1.5, -384},
		},
		"quant": {
			{100, math.MaxInt8}, // 100·4 = 400 > 127
			{-100, math.MinInt8},
			{1.25, 5},
			{-1.25, -5},
		},
	}
	for _, c := range intCases {
		t.Run(c.name, func(t *testing.T) {
			all := append([]setCase{
				{math.NaN(), 0},
				{math.Inf(1), c.max},
				{math.Inf(-1), c.min},
				{1e12, c.max}, // finite but far past the width: must clamp, not wrap
				{-1e12, c.min},
			}, cases[c.name]...)
			for _, tc := range all {
				tab := c.mk(2, 2, c.def)
				tab.SetQ(0, 0, tc.in)
				if got := tab.rawAt(0, 0); got != tc.want {
					t.Errorf("SetQ(%v): raw %d, want %d", tc.in, got, tc.want)
				}
			}
		})
	}
}

// TestUpdateNonFiniteRewardDeterministic drives Update with non-finite
// rewards and checks the outcome is the documented saturation, twice, on
// independent tables — deterministic by value, not by accident.
func TestUpdateNonFiniteRewardDeterministic(t *testing.T) {
	for _, c := range intCases {
		for name, r := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
			var raws [2]int64
			for i := range raws {
				tab := c.mk(2, 2, c.def)
				tab.Update(0, 0, r, 1)
				raws[i] = tab.rawAt(0, 0)
			}
			if raws[0] != raws[1] {
				t.Errorf("%s reward %s: two identical updates stored %d and %d", c.name, name, raws[0], raws[1])
			}
		}
		// +Inf reward must drive the value to the positive rail, −Inf to the
		// negative one, and NaN must act as reward 0 (quantize maps it there).
		tab := c.mk(2, 2, c.def)
		tab.Update(0, 0, math.Inf(1), 1)
		if tab.rawAt(0, 0) != c.max {
			t.Errorf("%s +Inf reward: raw %d, want %d", c.name, tab.rawAt(0, 0), c.max)
		}
		// A −Inf reward does NOT slam the value to the negative rail: the QMA
		// rule floors every decrease at old−ξ (Eq. 5), so the stored value
		// decays by exactly ξ.
		tab = c.mk(2, 2, c.def)
		tab.Update(0, 0, math.Inf(-1), 1)
		if want := int64(c.def.InitQ - c.def.Xi); tab.rawAt(0, 0) != want {
			t.Errorf("%s -Inf reward: raw %d, want old-ξ = %d", c.name, tab.rawAt(0, 0), want)
		}
		nanTab, zeroTab := c.mk(2, 2, c.def), c.mk(2, 2, c.def)
		nanTab.Update(0, 0, math.NaN(), 1)
		zeroTab.Update(0, 0, 0, 1)
		if nanTab.rawAt(0, 0) != zeroTab.rawAt(0, 0) {
			t.Errorf("%s NaN reward stored %d, want the reward-0 result %d", c.name, nanTab.rawAt(0, 0), zeroTab.rawAt(0, 0))
		}
	}
}

// TestFloatImprovedFlagEquivalence proves, over random update streams for
// several ξ, that FloatTable's stored > old formulation of the Eq. 3
// improved flag coincides with the newV > old formulation the integer
// tables use: stored = max(newV, old−ξ) with ξ ≥ 0, so stored > old exactly
// when newV > old.
func TestFloatImprovedFlagEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, xi := range []float64{0, 0.5, 2} {
		p := Params{Alpha: 0.5, Gamma: 0.9, Xi: xi, InitQ: -10}
		tab := NewFloatTable(8, 3, p)
		for step := 0; step < 5000; step++ {
			s, a, next := rng.Intn(8), rng.Intn(3), rng.Intn(8)
			r := float64(rng.Intn(9) - 4)
			old := tab.Q(s, a)
			newV := (1-p.Alpha)*old + p.Alpha*(r+p.Gamma*tab.MaxQ(next))
			stored, improved := tab.Update(s, a, r, next)
			if improved != (newV > old) {
				t.Fatalf("xi=%v step %d: improved=%v but newV>old=%v (old=%v newV=%v)",
					xi, step, improved, newV > old, old, newV)
			}
			if improved != (stored > old) {
				t.Fatalf("xi=%v step %d: improved=%v but stored>old=%v (old=%v stored=%v)",
					xi, step, improved, stored > old, old, stored)
			}
		}
	}
}

// TestIntegerImprovedFlagMatchesPreSaturation recomputes each integer
// update externally and checks the tables' improved flag is exactly
// newV > old — and that it can disagree with the float formulation
// (storedSat > old) only when saturation clamped the stored value at a
// rail, where a spuriously-true flag merely triggers a harmless policy
// re-scan in Learner.Observe.
func TestIntegerImprovedFlagMatchesPreSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	slam := map[string]float64{"fixed": 500, "quant": 100} // past each positive rail
	for _, c := range intCases {
		p := c.def
		tab := c.mk(8, 3, p)
		for step := 0; step < 20000; step++ {
			s, a, next := rng.Intn(8), rng.Intn(3), rng.Intn(8)
			r := float64(rng.Intn(9) - 4)
			if step%100 == 0 {
				r = slam[c.name]
			}
			old := tab.rawAt(s, a)
			maxNext := tab.rawAt(next, 0)
			for a2 := 1; a2 < 3; a2++ {
				maxNext = max(maxNext, tab.rawAt(next, a2))
			}
			rQ := int64(quantize(r, c.scale))
			target := rQ + (int64(p.GammaNum)*maxNext)>>8
			newV := old - (old >> p.AlphaShift) + (target >> p.AlphaShift)
			_, improved := tab.Update(s, a, r, next)
			if improved != (newV > old) {
				t.Fatalf("%s step %d: improved=%v, want newV>old=%v", c.name, step, improved, newV > old)
			}
			storedSat := tab.rawAt(s, a)
			if improved != (storedSat > old) && !(improved && storedSat == c.max) {
				t.Fatalf("%s step %d: flag diverges from storedSat>old away from the rail (old=%d storedSat=%d)",
					c.name, step, old, storedSat)
			}
		}
	}
}

// TestTableDifferentialDivergence runs the identical update stream through
// all three representations (float parameters chosen to match the integer
// ones: α=0.5, γ=230/256, ξ=2, Q₀=−10) and bounds the divergence. The
// fixed table rounds each step to 1/256 with the M3's round-toward−∞
// shifts, the quant table to 1/4; the discounting keeps the accumulated
// error proportional to the resolution, so fixed stays within a few
// hundredths and quant within a couple of units on bounded rewards.
func TestTableDifferentialDivergence(t *testing.T) {
	p := Params{Alpha: 0.5, Gamma: 230.0 / 256.0, Xi: 2, InitQ: -10}
	ft := NewFloatTable(54, 3, p)
	xt := NewFixedTableOn(54, 3, DefaultFixedParams(), nil)
	qt := NewQuantTableOn(54, 3, DefaultQuantParams(), nil)
	rng := rand.New(rand.NewSource(3))
	var maxFixed, maxQuant float64
	for step := 0; step < 30000; step++ {
		s, a, next := rng.Intn(54), rng.Intn(3), rng.Intn(54)
		r := float64(rng.Intn(8) - 3) // integer rewards, exactly representable
		ft.Update(s, a, r, next)
		xt.Update(s, a, r, next)
		qt.Update(s, a, r, next)
		if d := math.Abs(ft.Q(s, a) - xt.Q(s, a)); d > maxFixed {
			maxFixed = d
		}
		if d := math.Abs(ft.Q(s, a) - qt.Q(s, a)); d > maxQuant {
			maxQuant = d
		}
	}
	if maxFixed > 0.25 {
		t.Errorf("float vs fixed diverged by %v, want <= 0.25", maxFixed)
	}
	if maxQuant > 4.0 {
		t.Errorf("float vs quant diverged by %v, want <= 4.0", maxQuant)
	}
	t.Logf("max divergence: fixed %.4f, quant %.4f", maxFixed, maxQuant)
}

package qlearn

import (
	"math"
	"testing"
	"testing/quick"

	"qma/internal/sim"
)

func TestParameterBasedMatchesFigure4(t *testing.T) {
	e := NewParameterBased()
	// The x axis of Fig. 4 is (local queue level − neighbours' avg), the y
	// axis the listed ρ values.
	want := map[int]float64{
		0: 0, 1: 0.0001, 2: 0.001, 3: 0.008, 4: 0.02, 5: 0.05, 6: 0.1, 7: 0.18, 8: 0.3,
	}
	for diff, rho := range want {
		got := e.Rate(ExploreContext{QueueLevel: diff, AvgNeighborQueue: 0})
		if got != rho {
			t.Errorf("ρ(diff=%d) = %v, want %v", diff, got, rho)
		}
	}
}

func TestParameterBasedNegativeDiffIsZero(t *testing.T) {
	e := NewParameterBased()
	// "If the average queue level of all neighbouring nodes is larger than
	// the local queue level, ρ = 0" (§4.2).
	if got := e.Rate(ExploreContext{QueueLevel: 2, AvgNeighborQueue: 5}); got != 0 {
		t.Errorf("ρ(negative diff) = %v, want 0", got)
	}
	// Equal levels also stay at 0 (table entry for 0 is 0).
	if got := e.Rate(ExploreContext{QueueLevel: 4, AvgNeighborQueue: 4}); got != 0 {
		t.Errorf("ρ(zero diff) = %v, want 0", got)
	}
}

func TestParameterBasedClampsAboveTable(t *testing.T) {
	e := NewParameterBased()
	if got := e.Rate(ExploreContext{QueueLevel: 50, AvgNeighborQueue: 0}); got != 0.3 {
		t.Errorf("ρ(diff=50) = %v, want 0.3 (clamped)", got)
	}
}

func TestParameterBasedFractionalDiffFloors(t *testing.T) {
	e := NewParameterBased()
	// diff = 6 − 0.5 = 5.5 floors to index 5.
	if got := e.Rate(ExploreContext{QueueLevel: 6, AvgNeighborQueue: 0.5}); got != 0.05 {
		t.Errorf("ρ(diff=5.5) = %v, want 0.05", got)
	}
}

func TestParameterBasedMonotoneProperty(t *testing.T) {
	e := NewParameterBased()
	prop := func(q1, q2 uint8, avgRaw uint16) bool {
		avg := float64(avgRaw%800) / 100 // [0, 8)
		lo, hi := int(q1%9), int(q2%9)
		if lo > hi {
			lo, hi = hi, lo
		}
		rLo := e.Rate(ExploreContext{QueueLevel: lo, AvgNeighborQueue: avg})
		rHi := e.Rate(ExploreContext{QueueLevel: hi, AvgNeighborQueue: avg})
		// ρ is non-decreasing in the local queue level and always in [0,0.3].
		return rLo <= rHi && rLo >= 0 && rHi <= 0.3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonGreedyDecay(t *testing.T) {
	e := &EpsilonGreedy{Eps0: 0.4, HalfLife: 10 * sim.Second, Min: 0.01}
	if got := e.Rate(ExploreContext{Now: 0}); got != 0.4 {
		t.Errorf("ε(0) = %v, want 0.4", got)
	}
	if got := e.Rate(ExploreContext{Now: 10 * sim.Second}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("ε(halflife) = %v, want 0.2", got)
	}
	// Decays to the floor, never below.
	if got := e.Rate(ExploreContext{Now: 1000 * sim.Second}); got != 0.01 {
		t.Errorf("ε(late) = %v, want floor 0.01", got)
	}
	// The weakness the paper criticizes: ε never increases again, regardless
	// of queue state.
	congested := e.Rate(ExploreContext{Now: 1000 * sim.Second, QueueLevel: 8})
	if congested != 0.01 {
		t.Errorf("ε ignores congestion by design, got %v", congested)
	}
}

func TestEpsilonGreedyNoDecayWhenHalfLifeZero(t *testing.T) {
	e := &EpsilonGreedy{Eps0: 0.25}
	if got := e.Rate(ExploreContext{Now: 500 * sim.Second}); got != 0.25 {
		t.Errorf("ε without half-life = %v, want constant 0.25", got)
	}
}

func TestConstantAndNone(t *testing.T) {
	if got := (Constant{Eps: 0.07}).Rate(ExploreContext{QueueLevel: 8}); got != 0.07 {
		t.Errorf("Constant.Rate = %v, want 0.07", got)
	}
	if got := (None{}).Rate(ExploreContext{QueueLevel: 8}); got != 0 {
		t.Errorf("None.Rate = %v, want 0", got)
	}
}

// TestValidateExplorer pins the one range check of the explorer parameters:
// probabilities in [0,1] and a non-negative half-life, NaN rejected.
func TestValidateExplorer(t *testing.T) {
	nan := math.NaN()
	for _, e := range []Explorer{nil, None{}, NewParameterBased(), Constant{Eps: 0}, &Constant{Eps: 1},
		&EpsilonGreedy{Eps0: 1, Min: 0}, &EpsilonGreedy{Eps0: 0.3, HalfLife: 30 * sim.Second, Min: 0.02}} {
		if err := ValidateExplorer(e); err != nil {
			t.Errorf("%#v rejected: %v", e, err)
		}
	}
	for _, e := range []Explorer{Constant{Eps: nan}, Constant{Eps: 1.5}, &Constant{Eps: -0.1},
		&EpsilonGreedy{Eps0: nan}, &EpsilonGreedy{Eps0: 5}, &EpsilonGreedy{Eps0: -1},
		&EpsilonGreedy{Eps0: 0.3, Min: nan}, &EpsilonGreedy{Eps0: 0.3, Min: 2},
		&EpsilonGreedy{Eps0: 0.3, HalfLife: -sim.Second}} {
		if err := ValidateExplorer(e); err == nil {
			t.Errorf("%#v accepted", e)
		}
	}
}

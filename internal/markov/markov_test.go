package markov

import (
	"math"
	"testing"
	"testing/quick"

	"qma/internal/sim"
)

func TestHandshakeChainIsStochastic(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 1} {
		if err := HandshakeChain(p).Validate(); err != nil {
			t.Errorf("p=%v: %v", p, err)
		}
	}
}

func TestPerfectChannelNeedsExactlyThreeMessages(t *testing.T) {
	if got := ExpectedHandshakeMessages(1); math.Abs(got-3) > 1e-9 {
		t.Errorf("E[messages | p=1] = %v, want 3", got)
	}
}

// TestMatrixMatchesClosedForm cross-checks the Eq. 10/11/12 matrix solution
// against the independent closed-form derivation for the whole Fig. 26
// p-range.
func TestMatrixMatchesClosedForm(t *testing.T) {
	for p := 0.05; p <= 1.0; p += 0.05 {
		m := ExpectedHandshakeMessages(p)
		c := ExpectedHandshakeMessagesClosedForm(p)
		if math.Abs(m-c) > 1e-6*math.Max(m, 1) {
			t.Errorf("p=%.2f: matrix %v vs closed form %v", p, m, c)
		}
	}
}

// TestMonteCarloAgrees cross-checks against a third, simulation-based
// estimate.
func TestMonteCarloAgrees(t *testing.T) {
	rng := sim.NewRand(42)
	for _, p := range []float64{0.3, 0.5, 0.8, 1.0} {
		want := ExpectedHandshakeMessages(p)
		got := SimulateHandshakes(p, 200000, rng)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("p=%v: Monte Carlo %v vs matrix %v (>2%% off)", p, got, want)
		}
	}
}

// TestPaperHighPValues verifies the matrix reproduces the paper's printed
// Fig. 26 values where the figure and the printed matrix agree (large p);
// below p≈0.7 the printed curve diverges from the matrix (see PaperFig26).
func TestPaperHighPValues(t *testing.T) {
	for _, tc := range []struct{ p, want float64 }{
		{1.0, 3.0}, {0.9, 3.33}, {0.8, 3.74},
	} {
		got := ExpectedHandshakeMessages(tc.p)
		if math.Abs(got-tc.want)/tc.want > 0.005 {
			t.Errorf("p=%v: %v, want paper value %v (±0.5%%)", tc.p, got, tc.want)
		}
	}
}

func TestExpectedMessagesMonotoneProperty(t *testing.T) {
	prop := func(a, b uint16) bool {
		p1 := 0.05 + 0.95*float64(a)/65535
		p2 := 0.05 + 0.95*float64(b)/65535
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		// Fewer messages are needed on a better channel, and never fewer
		// than 3.
		e1, e2 := ExpectedHandshakeMessages(p1), ExpectedHandshakeMessages(p2)
		return e1 >= e2-1e-9 && e2 >= 3-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAbsorptionIsCertain(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		b, err := HandshakeChain(p).AbsorptionProbs()
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		for i, row := range b {
			if math.Abs(row[0]-1) > 1e-9 {
				t.Errorf("p=%v: absorption from state %d = %v, want 1", p, i, row[0])
			}
		}
	}
}

func TestFundamentalSingular(t *testing.T) {
	// A chain that never leaves its transient states has singular I−Q.
	c := &Chain{
		Q: [][]float64{{0, 1}, {1, 0}},
		R: [][]float64{{0}, {0}},
	}
	if _, err := c.Fundamental(); err == nil {
		t.Fatal("expected singularity error for a non-absorbing chain")
	}
}

func TestValidateRejectsBadChains(t *testing.T) {
	bad := []*Chain{
		{Q: [][]float64{{0.5}}, R: [][]float64{{0.2}}},  // row sums to 0.7
		{Q: [][]float64{{-0.1}}, R: [][]float64{{1.1}}}, // negative entry
		{Q: [][]float64{{0, 0.5}}, R: [][]float64{{0.5}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a bad chain", i)
		}
	}
}

func TestHandshakeChainPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p out of range")
		}
	}()
	HandshakeChain(1.5)
}

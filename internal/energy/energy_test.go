package energy

import (
	"math"
	"testing"

	"qma/internal/radio"
	"qma/internal/sim"
)

func TestAccountBreakdown(t *testing.T) {
	p := AT86RF231()
	total := 100 * sim.Second
	capOn := 50 * sim.Second
	stats := radio.NodeStats{TxAirtime: 2 * sim.Second}
	r := Account(p, total, capOn, stats)

	if r.TxTime != 2*sim.Second || r.ListenTime != 48*sim.Second || r.OffTime != 50*sim.Second {
		t.Fatalf("time breakdown: tx=%v listen=%v off=%v", r.TxTime, r.ListenTime, r.OffTime)
	}
	wantTx := 2.0 * 14.0 * 3.0
	wantListen := 48.0 * 12.3 * 3.0
	wantOff := 50.0 * 0.4 * 3.0
	if math.Abs(r.TxMilliJoule-wantTx) > 1e-9 {
		t.Errorf("TxMilliJoule = %v, want %v", r.TxMilliJoule, wantTx)
	}
	if math.Abs(r.ListenMilliJoule-wantListen) > 1e-9 {
		t.Errorf("ListenMilliJoule = %v, want %v", r.ListenMilliJoule, wantListen)
	}
	if math.Abs(r.OffMilliJoule-wantOff) > 1e-9 {
		t.Errorf("OffMilliJoule = %v, want %v", r.OffMilliJoule, wantOff)
	}
	if math.Abs(r.TotalMilliJoule()-(wantTx+wantListen+wantOff)) > 1e-9 {
		t.Errorf("TotalMilliJoule = %v", r.TotalMilliJoule())
	}
}

func TestAccountClampsNegatives(t *testing.T) {
	p := AT86RF231()
	// TX airtime exceeding CAP residency (pathological inputs) must not
	// produce negative listen time.
	r := Account(p, 10*sim.Second, 1*sim.Second, radio.NodeStats{TxAirtime: 2 * sim.Second})
	if r.ListenTime != 0 {
		t.Errorf("ListenTime = %v, want 0", r.ListenTime)
	}
	r = Account(p, 1*sim.Second, 2*sim.Second, radio.NodeStats{})
	if r.OffTime != 0 {
		t.Errorf("OffTime = %v, want 0", r.OffTime)
	}
}

// TestTxMilliAmpAtSteps pins the datasheet-step TX draw model: requested
// powers round up to the next programmable setting, the extremes clamp, and
// the maximum setting draws the datasheet's 14 mA at +3 dBm.
func TestTxMilliAmpAtSteps(t *testing.T) {
	p := AT86RF231()
	cases := []struct{ dbm, want float64 }{
		{3, 14.0},  // maximum setting
		{10, 14.0}, // above the strongest step: clamp to max
		{0, 12.7},  // exact step
		{-1, 12.7}, // between −3 and 0: round up to 0 dBm
		{-3, 11.8}, // exact step
		{-9, 10.4}, // exact step
		{-15, 9.9}, // between −17 and −12: round up to the −12 dBm setting
		{-17, 9.5}, // weakest setting
		{-40, 9.5}, // below the weakest: clamp to min
	}
	for _, c := range cases {
		if got := p.TxMilliAmpAt(c.dbm); got != c.want {
			t.Errorf("TxMilliAmpAt(%g) = %g, want %g", c.dbm, got, c.want)
		}
	}
	if p.MaxTxDBm() != 3 || p.TxMilliAmpAt(p.MaxTxDBm()) != 14.0 {
		t.Errorf("maximum step = %g dBm at %g mA, want 3 dBm at 14 mA", p.MaxTxDBm(), p.TxMilliAmpAt(p.MaxTxDBm()))
	}
}

// TestAccountPoweredBreakdown pins the power-aware TX accounting: airtime
// split across levels is charged at each level's draw, a nil breakdown
// collapses to Account, and transmitting lower always costs less.
func TestAccountPoweredBreakdown(t *testing.T) {
	p := AT86RF231()
	total, capOn := 100*sim.Second, 50*sim.Second
	stats := radio.NodeStats{TxAirtime: 3 * sim.Second}
	byPower := []radio.PowerAirtime{
		{ReduceDB: 0, Airtime: 1 * sim.Second}, // +3 dBm → 14.0 mA
		{ReduceDB: 6, Airtime: 2 * sim.Second}, // −3 dBm → 11.8 mA
	}
	r := AccountPowered(p, total, capOn, stats, 3, byPower)
	wantTx := (1.0*14.0 + 2.0*11.8) * 3.0
	if math.Abs(r.TxMilliJoule-wantTx) > 1e-9 {
		t.Errorf("TxMilliJoule = %v, want %v", r.TxMilliJoule, wantTx)
	}
	if r.ListenTime != 47*sim.Second {
		t.Errorf("ListenTime = %v, want 47s (breakdown must not change the time split)", r.ListenTime)
	}

	flatEquivalent := AccountPowered(p, total, capOn, stats, 3, nil)
	if flatEquivalent != Account(p, total, capOn, stats) {
		t.Error("nil breakdown at the reference power differs from Account")
	}

	allReduced := AccountPowered(p, total, capOn, stats, 3,
		[]radio.PowerAirtime{{ReduceDB: 12, Airtime: 3 * sim.Second}})
	if allReduced.TxMilliJoule >= r.TxMilliJoule {
		t.Errorf("deeper reduction must cost less: %v vs %v", allReduced.TxMilliJoule, r.TxMilliJoule)
	}
}

// TestEnergyParityArgument reproduces the §6.2.1 reasoning: with equal
// transmission attempts, the listening floor dominates and two schemes
// differ by well under a percent.
func TestEnergyParityArgument(t *testing.T) {
	p := AT86RF231()
	total := 400 * sim.Second
	capOn := 200 * sim.Second
	qma := Account(p, total, capOn, radio.NodeStats{TxAirtime: 3 * sim.Second})
	csma := Account(p, total, capOn, radio.NodeStats{TxAirtime: 3300 * sim.Millisecond})
	rel := math.Abs(qma.TotalMilliJoule()-csma.TotalMilliJoule()) / qma.TotalMilliJoule()
	if rel > 0.01 {
		t.Errorf("energy difference %.3f%%, want < 1%% (listening floor dominates)", rel*100)
	}
}

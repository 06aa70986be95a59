package barring

import (
	"math"
	"testing"

	"qma/internal/sim"
)

func TestZeroConfigDisabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
}

func TestValidateRejectsBadKnobs(t *testing.T) {
	bad := []Config{
		{Policy: "banana"},
		{Policy: PolicyFixed, P: -0.1},
		{Policy: PolicyFixed, P: 1.5},
		{Policy: PolicyAIMD, Target: 1},
		{Policy: PolicyAIMD, MinP: 2},
		{Policy: PolicyPID, Interval: -sim.Second},
		{Policy: PolicyPID, Backoff: -1},
		{Policy: PolicyFixed, P: math.NaN()},
		{Policy: PolicyAIMD, Target: math.NaN()},
		{Policy: PolicyAIMD, MinP: math.NaN()},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v passed validation", c)
		}
	}
	good := Config{Policy: PolicyAIMD, P: 0.8, Target: 0.2, MinP: 0.01,
		Interval: sim.Second, Backoff: sim.Millisecond}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestFixedHoldsItsFactor(t *testing.T) {
	ctrl := New(Config{Policy: PolicyFixed, P: 0.3})
	for i := 0; i < 10; i++ {
		if p := ctrl.Update(Observation{Collided: uint64(i * 100)}); p != 0.3 {
			t.Fatalf("fixed factor drifted to %v", p)
		}
	}
	// P=0 selects fully open, not fully barred.
	if p := New(Config{Policy: PolicyFixed}).Update(Observation{}); p != 1 {
		t.Fatalf("zero-P fixed controller returned %v, want 1", p)
	}
}

func TestAIMDReactsToCongestion(t *testing.T) {
	ctrl := New(Config{Policy: PolicyAIMD})
	congested := Observation{Delivered: 10, Collided: 90}
	healthy := Observation{Delivered: 100, Collided: 2}

	p := ctrl.Update(congested)
	if p >= 1 {
		t.Fatalf("congestion did not cut the factor: %v", p)
	}
	for i := 0; i < 20; i++ {
		p = ctrl.Update(congested)
	}
	if p != DefaultMinP {
		t.Fatalf("sustained congestion did not pin the floor: %v", p)
	}
	for i := 0; i < 40; i++ {
		p = ctrl.Update(healthy)
	}
	if p != 1 {
		t.Fatalf("sustained health did not reopen admission: %v", p)
	}
}

func TestPIDConvergesOnSetpoint(t *testing.T) {
	ctrl := New(Config{Policy: PolicyPID, Target: 0.2})
	// A synthetic plant: collision ratio grows with admission. The controller
	// should settle near the admission level where the ratio hits the target.
	plant := func(p float64) Observation {
		ratio := 0.5 * p // target 0.2 is reached at p = 0.4
		return Observation{Delivered: uint64(1000 * (1 - ratio)), Collided: uint64(1000 * ratio)}
	}
	p := 1.0
	for i := 0; i < 200; i++ {
		p = ctrl.Update(plant(p))
	}
	if math.Abs(p-0.4) > 0.05 {
		t.Fatalf("PID settled at %v, want ≈0.4", p)
	}
}

func TestExplicitKnobsOverrideDefaults(t *testing.T) {
	// A raised admission floor must stop the multiplicative decrease above
	// the default floor.
	ctrl := New(Config{Policy: PolicyAIMD, MinP: 0.4})
	congested := Observation{Delivered: 10, Collided: 90}
	var p float64
	for i := 0; i < 20; i++ {
		p = ctrl.Update(congested)
	}
	if p != 0.4 {
		t.Errorf("sustained congestion pinned p=%v, want the configured floor 0.4", p)
	}
	// The PID floor applies too, even under a wildly negative error.
	pidCtrl := New(Config{Policy: PolicyPID, MinP: 0.3, Target: 0.01})
	for i := 0; i < 50; i++ {
		p = pidCtrl.Update(congested)
	}
	if p != 0.3 {
		t.Errorf("PID under sustained congestion pinned p=%v, want the configured floor 0.3", p)
	}
}

func TestNewPanicsOnDisabledPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New on a disabled config did not panic")
		}
	}()
	New(Config{})
}

func TestCollisionRatioEdgeCases(t *testing.T) {
	if r := (Observation{}).CollisionRatio(); r != 0 {
		t.Errorf("empty interval ratio = %v, want 0", r)
	}
	if r := (Observation{Delivered: 3, Collided: 6, Captured: 3}).CollisionRatio(); math.Abs(r-0.75) > 1e-12 {
		t.Errorf("ratio = %v, want 0.75", r)
	}
}

// FuzzBarringControl throws arbitrary congestion traces at every policy:
// whatever the trace, the controller output must stay in [0,1] (with the
// adaptive policies never dropping below their admission floor), replay
// deterministically, and AIMD must converge — a sufficiently long all-healthy
// tail reopens admission fully, an all-congested tail pins the floor.
func FuzzBarringControl(f *testing.F) {
	f.Add(uint8(1), uint64(100), uint64(5), uint64(0), uint16(300), uint8(8))
	f.Add(uint8(2), uint64(0), uint64(900), uint64(30), uint16(1200), uint8(40))
	f.Add(uint8(0), uint64(1), uint64(0), uint64(0), uint16(0), uint8(1))
	f.Fuzz(func(t *testing.T, polRaw uint8, delivered, collided, captured uint64, busyRaw uint16, steps uint8) {
		policies := []Policy{PolicyFixed, PolicyAIMD, PolicyPID}
		cfg := Config{
			Policy: policies[int(polRaw)%len(policies)],
			P:      float64(polRaw%11) / 10,
			Target: float64(polRaw%10) / 10,
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("generated config invalid: %v", err)
		}
		// Derive a pseudo-arbitrary trace from the seed counters: each step
		// permutes the counts so the controller sees both congested and idle
		// intervals in fuzzer-chosen patterns.
		n := int(steps%64) + 1
		trace := make([]Observation, n)
		d, c, cap0 := delivered, collided, captured
		for i := range trace {
			trace[i] = Observation{
				Delivered:    d % 10000,
				Collided:     c % 10000,
				Captured:     cap0 % 10000,
				BusyFraction: float64(busyRaw%2000) / 1000,
			}
			d, c, cap0 = c+uint64(i), cap0*3+1, d/2
		}

		floor := cfg.minP()
		out := replay(cfg, trace)
		for i, p := range out {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("step %d: factor %v escaped [0,1] (policy %s)", i, p, cfg.Policy)
			}
			if cfg.Policy != PolicyFixed && p < floor {
				t.Fatalf("step %d: factor %v under the %v floor (policy %s)", i, p, floor, cfg.Policy)
			}
		}
		again := replay(cfg, trace)
		for i := range out {
			if out[i] != again[i] {
				t.Fatalf("step %d: replay diverged: %v vs %v", i, out[i], again[i])
			}
		}

		// AIMD convergence: append a long healthy run and a long congested
		// run; the factor must hit 1 and the floor respectively.
		if cfg.Policy == PolicyAIMD {
			ctrl := New(cfg)
			for _, o := range trace {
				ctrl.Update(o)
			}
			var p float64
			for i := 0; i < 64; i++ {
				p = ctrl.Update(Observation{Delivered: 100})
			}
			if p != 1 {
				t.Fatalf("AIMD did not reopen after a healthy tail: %v", p)
			}
			for i := 0; i < 64; i++ {
				p = ctrl.Update(Observation{Collided: 100})
			}
			if p != floor {
				t.Fatalf("AIMD did not pin the floor after a congested tail: %v", p)
			}
		}
	})
}

// replay runs a fresh controller for cfg over a congestion trace and returns
// the factor after each observation. It is the pure reference the fuzz
// harness checks invariants against.
func replay(cfg Config, trace []Observation) []float64 {
	ctrl := New(cfg)
	out := make([]float64, len(trace))
	for i, o := range trace {
		out[i] = ctrl.Update(o)
	}
	return out
}

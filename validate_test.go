package qma_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"qma"
)

// TestScenarioValidateErrorPaths covers every Validate error branch,
// including the dynamics block, and pins a fragment of each message so the
// errors stay actionable.
func TestScenarioValidateErrorPaths(t *testing.T) {
	base := func() *qma.Scenario {
		return &qma.Scenario{
			Topology:        qma.HiddenNode(),
			DurationSeconds: 10,
			Traffic:         []qma.Traffic{{Origin: 0, Phases: []qma.Phase{{Rate: 1}}}},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*qma.Scenario)
		wantErr string
	}{
		{"negative traffic origin", func(s *qma.Scenario) {
			s.Traffic[0].Origin = -1
		}, "out of range"},
		{"traffic origin beyond the 16-bit node ids", func(s *qma.Scenario) {
			s.Traffic[0].Origin = 1 << 16 // would wrap onto node 0
		}, "out of range"},
		{"broadcast origin range", func(s *qma.Scenario) {
			s.Broadcasts = []qma.Broadcast{{Origin: 9, PeriodSeconds: 1}}
		}, "out of range"},
		{"negative broadcast period", func(s *qma.Scenario) {
			s.Broadcasts = []qma.Broadcast{{Origin: 0, PeriodSeconds: -2}}
		}, "positive period"},
		{"traffic starting in the past", func(s *qma.Scenario) {
			s.Traffic[0].StartSeconds = -1
		}, "starts in the past"},
		{"broadcast starting in the past", func(s *qma.Scenario) {
			s.Broadcasts = []qma.Broadcast{{Origin: 0, PeriodSeconds: 1, StartSeconds: -3}}
		}, "starts in the past"},
		{"unregistered MAC", func(s *qma.Scenario) {
			s.MAC = "token-ring"
		}, "unknown MAC"},
		{"unknown table kind", func(s *qma.Scenario) {
			s.Table = qma.TableKind(9)
		}, "unknown table kind"},
		{"negative table kind", func(s *qma.Scenario) {
			s.Table = qma.TableKind(-1)
		}, "unknown table kind"},
		{"table kind wrapping to float", func(s *qma.Scenario) {
			s.Table = qma.TableKind(256)
		}, "unknown table kind"},
		{"learning rate out of range", func(s *qma.Scenario) {
			s.Learn = qma.LearnParams{Alpha: 2, Gamma: 0.9, Xi: 2, InitQ: -10}
		}, "alpha=2"},
		{"learning parameters via MAC options", func(s *qma.Scenario) {
			s.MACOptions = map[string]string{"alpha": "2"}
		}, "alpha=2"},
		{"integer table with learning parameters", func(s *qma.Scenario) {
			s.Table = qma.TableFixed
			s.Learn = qma.LearnParams{Alpha: 0.3, Gamma: 0.9, Xi: 0, InitQ: -10}
		}, "integer tables run fixed learning parameters"},
		{"integer table with learning parameters via MAC options", func(s *qma.Scenario) {
			s.MACOptions = map[string]string{"table": "quant", "alpha": "0.3", "xi": "0"}
		}, "integer tables run fixed learning parameters"},
		{"NaN penalty", func(s *qma.Scenario) {
			s.Learn = qma.LearnParams{Alpha: 0.5, Gamma: 0.9, Xi: math.NaN(), InitQ: -10}
		}, "xi=NaN"},
		{"NaN learning rate via MAC options", func(s *qma.Scenario) {
			s.MACOptions = map[string]string{"alpha": "NaN"}
		}, "alpha=NaN"},
		{"infinite initial Q", func(s *qma.Scenario) {
			s.Learn = qma.LearnParams{Alpha: 0.5, Gamma: 0.9, Xi: 2, InitQ: math.Inf(1)}
		}, "initq=+Inf"},
		{"NaN UCB constant", func(s *qma.Scenario) {
			s.MAC = "bandit"
			s.MACOptions = map[string]string{"ucbc": "NaN"}
		}, "UCBC"},
		{"NaN NOMA level step", func(s *qma.Scenario) {
			s.MAC, s.CaptureThresholdDB = "noma", 6
			s.MACOptions = map[string]string{"step": "NaN"}
		}, "LevelStepDB=NaN"},
		{"NOMA learning parameters", func(s *qma.Scenario) {
			s.MAC, s.CaptureThresholdDB = "noma", 6
			s.MACOptions = map[string]string{"xi": "-1"}
		}, "xi=-1"},
		{"GE negative sojourn", func(s *qma.Scenario) {
			s.Dynamics = &qma.Dynamics{Channel: qma.GilbertElliott{MeanGoodSeconds: -1, MeanBadSeconds: 1}}
		}, "must not be negative"},
		{"GE one-sided sojourn", func(s *qma.Scenario) {
			s.Dynamics = &qma.Dynamics{Channel: qma.GilbertElliott{MeanGoodSeconds: 5}}
		}, "both MeanGoodSeconds and MeanBadSeconds"},
		{"GE loss NaN", func(s *qma.Scenario) {
			s.Dynamics = &qma.Dynamics{Channel: qma.GilbertElliott{
				MeanGoodSeconds: 5, MeanBadSeconds: 1, LossGood: math.NaN()}}
		}, "[0,1]"},
		{"GE loss out of range", func(s *qma.Scenario) {
			s.Dynamics = &qma.Dynamics{Channel: qma.GilbertElliott{
				MeanGoodSeconds: 5, MeanBadSeconds: 1, LossBad: 1.5}}
		}, "[0,1]"},
		{"fade node range", func(s *qma.Scenario) {
			s.Dynamics = &qma.Dynamics{Fades: []qma.Fade{{Node: 3, AtSeconds: 1, ForSeconds: 1}}}
		}, "fade node"},
		{"fade in the past", func(s *qma.Scenario) {
			s.Dynamics = &qma.Dynamics{Fades: []qma.Fade{{Node: 0, AtSeconds: -1, ForSeconds: 1}}}
		}, "past"},
		{"fade without duration", func(s *qma.Scenario) {
			s.Dynamics = &qma.Dynamics{Fades: []qma.Fade{{Node: 0, AtSeconds: 1}}}
		}, "positive duration"},
		{"churn node range", func(s *qma.Scenario) {
			s.Dynamics = &qma.Dynamics{Churn: []qma.Churn{{Node: -2, AtSeconds: 1}}}
		}, "churn node"},
		{"churn in the past", func(s *qma.Scenario) {
			s.Dynamics = &qma.Dynamics{Churn: []qma.Churn{{Node: 0, AtSeconds: -1}}}
		}, "past"},
		{"moves on a graph topology", func(s *qma.Scenario) {
			s.Dynamics = &qma.Dynamics{Moves: []qma.Move{{Node: 0, AtSeconds: 1, X: 5, Y: 5}}}
		}, "position-based topology"},
		{"outage node range", func(s *qma.Scenario) {
			s.Faults = &qma.Faults{Outages: []qma.Outage{{Node: 7, AtSeconds: 1, ForSeconds: 1}}}
		}, "out of range"},
		{"outage negative start", func(s *qma.Scenario) {
			s.Faults = &qma.Faults{Outages: []qma.Outage{{Node: 1, AtSeconds: -1, ForSeconds: 1}}}
		}, "negative start"},
		{"outage without duration", func(s *qma.Scenario) {
			s.Faults = &qma.Faults{Outages: []qma.Outage{{Node: 1, AtSeconds: 1}}}
		}, "must be positive"},
		{"reboot node range", func(s *qma.Scenario) {
			s.Faults = &qma.Faults{Reboots: []qma.RebootEvent{{Node: -1, AtSeconds: 1}}}
		}, "out of range"},
		{"reboot negative instant", func(s *qma.Scenario) {
			s.Faults = &qma.Faults{Reboots: []qma.RebootEvent{{Node: 0, AtSeconds: -2}}}
		}, "negative instant"},
		{"ack corruption negative start", func(s *qma.Scenario) {
			s.Faults = &qma.Faults{AckCorruption: []qma.AckCorruption{{AtSeconds: -1, ForSeconds: 1}}}
		}, "negative start"},
		{"ack corruption without duration", func(s *qma.Scenario) {
			s.Faults = &qma.Faults{AckCorruption: []qma.AckCorruption{{AtSeconds: 1}}}
		}, "must be positive"},
		{"beacon loss node range", func(s *qma.Scenario) {
			s.Faults = &qma.Faults{BeaconLoss: []qma.BeaconLoss{{Node: 3, AtSeconds: 1, ForSeconds: 1}}}
		}, "out of range"},
		{"beacon loss without duration", func(s *qma.Scenario) {
			s.Faults = &qma.Faults{BeaconLoss: []qma.BeaconLoss{{Node: 1, AtSeconds: 1}}}
		}, "must be positive"},
		{"barring unknown policy", func(s *qma.Scenario) {
			s.Barring = &qma.Barring{Policy: "token-bucket"}
		}, "unknown policy"},
		{"barring factor out of range", func(s *qma.Scenario) {
			s.Barring = &qma.Barring{Policy: "fixed", P: 1.5}
		}, "outside [0,1]"},
		{"barring factor NaN", func(s *qma.Scenario) {
			s.Barring = &qma.Barring{Policy: "fixed", P: math.NaN()}
		}, "outside [0,1]"},
		{"barring floor NaN", func(s *qma.Scenario) {
			s.Barring = &qma.Barring{Policy: "aimd", MinP: math.NaN()}
		}, "MinP=NaN"},
		{"barring target out of range", func(s *qma.Scenario) {
			s.Barring = &qma.Barring{Policy: "aimd", Target: 1}
		}, "outside [0,1)"},
		{"barring negative interval", func(s *qma.Scenario) {
			s.Barring = &qma.Barring{Policy: "pid", IntervalSeconds: -1}
		}, "negative interval"},
		{"barring negative backoff", func(s *qma.Scenario) {
			s.Barring = &qma.Barring{Policy: "aimd", BackoffSeconds: -0.5}
		}, "negative backoff"},
		{"unknown drop policy", func(s *qma.Scenario) {
			s.DropPolicy = "lifo"
		}, "drop policy"},
		{"negative drop deadline", func(s *qma.Scenario) {
			s.DropDeadlineSeconds = -1
		}, "must not be negative"},
	}
	for _, tc := range cases {
		sc := base()
		tc.mutate(sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a bad scenario", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
		if _, err := sc.Run(); err == nil {
			t.Errorf("%s: Run accepted a bad scenario", tc.name)
		}
	}

	// Move validation on a position-based topology checks node bounds.
	sc := &qma.Scenario{
		Topology:        qma.Star17(),
		DurationSeconds: 10,
		Dynamics:        &qma.Dynamics{Moves: []qma.Move{{Node: 99, AtSeconds: 1}}},
	}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "move node") {
		t.Errorf("move node range: got %v", err)
	}
	sc.Dynamics.Moves[0] = qma.Move{Node: 1, AtSeconds: -1}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "past") {
		t.Errorf("move in the past: got %v", err)
	}
}

// TestScenarioValidateAccepts pins the valid configurations, including a
// fully loaded dynamics block on a position-based topology.
func TestScenarioValidateAccepts(t *testing.T) {
	ok := []*qma.Scenario{
		{Topology: qma.HiddenNode(), DurationSeconds: 1},
		{Topology: qma.HiddenNode(), DurationSeconds: 1,
			Explorer: &qma.Explorer{Kind: "epsilon", Eps0: 0.5}},
		{Topology: qma.HiddenNode(), DurationSeconds: 1,
			Explorer: &qma.Explorer{Kind: "constant", Eps0: 0.1}},
		{Topology: qma.HiddenNode(), DurationSeconds: 1,
			Dynamics: &qma.Dynamics{}},
		{Topology: qma.HiddenNode(), DurationSeconds: 1,
			Dynamics: &qma.Dynamics{
				Channel: qma.GilbertElliott{MeanGoodSeconds: 5, MeanBadSeconds: 0.5, LossBad: 1},
				Fades:   []qma.Fade{{Node: 1, AtSeconds: 2, ForSeconds: 3}},
				Churn:   []qma.Churn{{Node: 0, AtSeconds: 1, Leave: true}, {Node: 0, AtSeconds: 2}},
			}},
		{Topology: qma.Star17(), DurationSeconds: 1,
			Dynamics: &qma.Dynamics{Moves: []qma.Move{{Node: 3, AtSeconds: 0.5, X: 1, Y: -2}}}},
		{Topology: qma.HiddenNode(), DurationSeconds: 1, Faults: &qma.Faults{}},
		{Topology: qma.HiddenNode(), DurationSeconds: 1, Barring: &qma.Barring{}},
		{Topology: qma.HiddenNode(), DurationSeconds: 1,
			Barring: &qma.Barring{Policy: "aimd", P: 0.5, Target: 0.2, MinP: 0.1,
				IntervalSeconds: 0.5, BackoffSeconds: 0.25},
			DropPolicy: "deadline", DropDeadlineSeconds: 3},
		{Topology: qma.HiddenNode(), DurationSeconds: 1,
			Faults: &qma.Faults{
				Outages:       []qma.Outage{{Node: 1, AtSeconds: 2, ForSeconds: 3, StopBeacons: true}},
				Reboots:       []qma.RebootEvent{{Node: 0, AtSeconds: 5}},
				AckCorruption: []qma.AckCorruption{{AtSeconds: 1, ForSeconds: 2}},
				BeaconLoss:    []qma.BeaconLoss{{Node: 2, AtSeconds: 4, ForSeconds: 1}},
			}},
	}
	for i, sc := range ok {
		if err := sc.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected a good scenario: %v", i, err)
		}
	}
}

// TestZeroDynamicsIsByteIdentical pins the headline guarantee at the public
// API: attaching an empty Dynamics block changes nothing about a run.
func TestZeroDynamicsIsByteIdentical(t *testing.T) {
	run := func(dyn *qma.Dynamics) *qma.Result {
		sc := &qma.Scenario{
			Topology:        qma.HiddenNode(),
			DurationSeconds: 30,
			Seed:            7,
			Traffic: []qma.Traffic{
				{Origin: 0, Phases: []qma.Phase{{Rate: 5}}, StartSeconds: 1},
				{Origin: 2, Phases: []qma.Phase{{Rate: 5}}, StartSeconds: 1},
			},
			Dynamics: dyn,
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(nil)
	zero := run(&qma.Dynamics{})
	if !reflect.DeepEqual(static, zero) {
		t.Fatal("a zero-valued Dynamics block changed the run's results")
	}
}

// TestZeroFaultsIsByteIdentical pins the same guarantee for the fault
// subsystem: attaching an empty Faults block changes nothing about a run.
func TestZeroFaultsIsByteIdentical(t *testing.T) {
	run := func(f *qma.Faults) *qma.Result {
		sc := &qma.Scenario{
			Topology:        qma.HiddenNode(),
			DurationSeconds: 30,
			Seed:            7,
			Traffic: []qma.Traffic{
				{Origin: 0, Phases: []qma.Phase{{Rate: 5}}, StartSeconds: 1},
				{Origin: 2, Phases: []qma.Phase{{Rate: 5}}, StartSeconds: 1},
			},
			Faults: f,
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	zero := run(&qma.Faults{})
	if !reflect.DeepEqual(clean, zero) {
		t.Fatal("a zero-valued Faults block changed the run's results")
	}
}

// TestZeroBarringIsByteIdentical pins the same guarantee for the overload
// subsystem: attaching an empty Barring block (and the zero drop policy /
// deadline) changes nothing about a run — the barring RNG streams are not
// even allocated.
func TestZeroBarringIsByteIdentical(t *testing.T) {
	run := func(b *qma.Barring) *qma.Result {
		sc := &qma.Scenario{
			Topology:        qma.HiddenNode(),
			DurationSeconds: 30,
			Seed:            7,
			Traffic: []qma.Traffic{
				{Origin: 0, Phases: []qma.Phase{{Rate: 5}}, StartSeconds: 1},
				{Origin: 2, Phases: []qma.Phase{{Rate: 5}}, StartSeconds: 1},
			},
			Barring:             b,
			DropPolicy:          "tail",
			DropDeadlineSeconds: 0,
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	zero := run(&qma.Barring{})
	if !reflect.DeepEqual(clean, zero) {
		t.Fatal("a zero-valued Barring block changed the run's results")
	}
}

// TestBarringEndToEnd drives the access-barring controller through the
// public API on a deliberately overloaded hidden-node pair: barring must
// actually bite (barred attempts accumulate), the run must stay plausible,
// and identical configurations must replay byte-identically.
func TestBarringEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	build := func(b *qma.Barring) *qma.Scenario {
		return &qma.Scenario{
			Topology:        qma.HiddenNode(),
			DurationSeconds: 60,
			Seed:            3,
			Barring:         b,
			Traffic: []qma.Traffic{
				{Origin: 0, Phases: []qma.Phase{{Rate: 20}}, StartSeconds: 1},
				{Origin: 2, Phases: []qma.Phase{{Rate: 20}}, StartSeconds: 1},
			},
		}
	}
	barred, err := build(&qma.Barring{Policy: "aimd"}).Run()
	if err != nil {
		t.Fatal(err)
	}
	var totalBarred uint64
	for _, n := range barred.Nodes {
		totalBarred += n.Barred
	}
	if totalBarred == 0 {
		t.Error("AIMD barring under 2x20 pkt/s overload never barred an attempt")
	}
	if barred.NetworkPDR <= 0.05 {
		t.Errorf("barred PDR %.3f implausibly low — barring locked the network out", barred.NetworkPDR)
	}
	again, err := build(&qma.Barring{Policy: "aimd"}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(barred, again) {
		t.Error("identical barring configurations produced different results")
	}
}

// TestFaultsEndToEnd drives every fault mechanism together through the
// public API: the disturbances must bite (PDR drops versus the fault-free
// run) and identical fault scripts must replay byte-identically.
func TestFaultsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	build := func(f *qma.Faults) *qma.Scenario {
		sc := &qma.Scenario{
			Topology:        qma.HiddenNode(),
			DurationSeconds: 60,
			Seed:            3,
			Faults:          f,
			Traffic: []qma.Traffic{
				{Origin: 0, Phases: []qma.Phase{{Rate: 5}}, StartSeconds: 1},
				{Origin: 2, Phases: []qma.Phase{{Rate: 5}}, StartSeconds: 1},
			},
		}
		return sc
	}
	script := func() *qma.Faults {
		return &qma.Faults{
			Outages:       []qma.Outage{{Node: 1, AtSeconds: 20, ForSeconds: 5, StopBeacons: true}},
			Reboots:       []qma.RebootEvent{{Node: 0, AtSeconds: 35}},
			AckCorruption: []qma.AckCorruption{{AtSeconds: 45, ForSeconds: 2}},
			BeaconLoss:    []qma.BeaconLoss{{Node: 2, AtSeconds: 50, ForSeconds: 1}},
		}
	}
	clean, err := build(nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := build(script()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if faulty.NetworkPDR >= clean.NetworkPDR {
		t.Errorf("faults did not reduce PDR: clean %.3f, faulty %.3f",
			clean.NetworkPDR, faulty.NetworkPDR)
	}
	if faulty.NetworkPDR <= 0.1 {
		t.Errorf("faulty PDR %.3f implausibly low — the script broke the run", faulty.NetworkPDR)
	}
	again, err := build(script()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(faulty, again) {
		t.Error("identical fault scripts produced different results")
	}
}

// TestDynamicsEndToEnd exercises every dynamics mechanism together through
// the public API on a position-based topology and sanity-checks that the
// disturbances actually bite (the PDR drops versus the static run).
func TestDynamicsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	build := func(dyn *qma.Dynamics) *qma.Scenario {
		sc := &qma.Scenario{
			Topology:        qma.Star17(),
			DurationSeconds: 60,
			Seed:            3,
			Dynamics:        dyn,
		}
		for i := 1; i < sc.Topology.NumNodes(); i++ {
			sc.Traffic = append(sc.Traffic,
				qma.Traffic{Origin: i, Phases: []qma.Phase{{Rate: 2}}, StartSeconds: 1})
		}
		return sc
	}
	static, err := build(nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	disturbed, err := build(&qma.Dynamics{
		Channel: qma.GilbertElliott{MeanGoodSeconds: 4, MeanBadSeconds: 0.5, LossBad: 1},
		Fades:   []qma.Fade{{Node: 0, AtSeconds: 20, ForSeconds: 5}},
		Churn: []qma.Churn{
			{Node: 5, AtSeconds: 10, Leave: true},
			{Node: 5, AtSeconds: 30},
		},
		Moves: []qma.Move{
			{Node: 7, AtSeconds: 15, X: 500, Y: 500}, // out of radio range
			{Node: 7, AtSeconds: 40, X: 1, Y: 1},     // back next to the hub
		},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if disturbed.NetworkPDR >= static.NetworkPDR {
		t.Errorf("disturbances did not reduce PDR: static %.3f, disturbed %.3f",
			static.NetworkPDR, disturbed.NetworkPDR)
	}
	if disturbed.NetworkPDR <= 0.1 {
		t.Errorf("disturbed PDR %.3f implausibly low — dynamics broke the run", disturbed.NetworkPDR)
	}
	// Repeatability under dynamics.
	again, err := build(&qma.Dynamics{
		Channel: qma.GilbertElliott{MeanGoodSeconds: 4, MeanBadSeconds: 0.5, LossBad: 1},
		Fades:   []qma.Fade{{Node: 0, AtSeconds: 20, ForSeconds: 5}},
		Churn: []qma.Churn{
			{Node: 5, AtSeconds: 10, Leave: true},
			{Node: 5, AtSeconds: 30},
		},
		Moves: []qma.Move{
			{Node: 7, AtSeconds: 15, X: 500, Y: 500},
			{Node: 7, AtSeconds: 40, X: 1, Y: 1},
		},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(disturbed, again) {
		t.Error("identical dynamic scenarios produced different results")
	}
}

// TestMMTCRunRejectsOverfilledCell pins that a city Validate accepts — its
// average load sits exactly at the 16-bit per-cell ceiling — but whose
// uniform placement overfills one cell comes back from Run as an error
// instead of a panic.
func TestMMTCRunRejectsOverfilledCell(t *testing.T) {
	s := &qma.MMTCScenario{Nodes: 4 * 32767, CellsX: 2, CellsY: 2, DurationSeconds: 1, Rate: 0.1}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate rejected the average-load boundary: %v", err)
	}
	defer func() {
		if v := recover(); v != nil {
			t.Fatalf("Run panicked: %v", v)
		}
	}()
	res, err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "16-bit") {
		t.Fatalf("Run = %v, %v; want an error naming the 16-bit cell limit", res, err)
	}
}

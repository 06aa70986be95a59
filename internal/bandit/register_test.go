package bandit

import (
	"math"
	"testing"

	"qma/internal/qlearn"
	"qma/internal/sim"
)

func TestParseOptionsKV(t *testing.T) {
	got, err := parseOptions(map[string]string{"picker": "ucb", "ucbc": "2.0"})
	if err != nil {
		t.Fatal(err)
	}
	o := got.(Options)
	if o.Picker != UCB1 || o.UCBC != 2.0 || o.Explorer != nil {
		t.Errorf("parsed %+v", o)
	}

	got, err = parseOptions(map[string]string{"eps0": "0.3", "halflife": "30", "epsmin": "0.02"})
	if err != nil {
		t.Fatal(err)
	}
	o = got.(Options)
	eg, ok := o.Explorer.(*qlearn.EpsilonGreedy)
	if !ok {
		t.Fatalf("ε keys did not build an EpsilonGreedy explorer: %+v", o)
	}
	if eg.Eps0 != 0.3 || eg.HalfLife != sim.FromSeconds(30) || eg.Min != 0.02 {
		t.Errorf("explorer %+v", eg)
	}

	// A partial ε override keeps the rest of the default schedule: halflife
	// alone must not zero Eps0 (which would disable exploration entirely).
	got, err = parseOptions(map[string]string{"halflife": "60"})
	if err != nil {
		t.Fatal(err)
	}
	eg, ok = got.(Options).Explorer.(*qlearn.EpsilonGreedy)
	def := DefaultExplorer().(*qlearn.EpsilonGreedy)
	if !ok || eg.Eps0 != def.Eps0 || eg.Min != def.Min || eg.HalfLife != sim.FromSeconds(60) {
		t.Errorf("partial schedule override drifted from the default schedule: %+v", eg)
	}

	if _, err := parseOptions(map[string]string{"picker": "thompson"}); err == nil {
		t.Error("unknown picker accepted")
	}
	if _, err := parseOptions(map[string]string{"arms": "9"}); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestAdoptExplorer(t *testing.T) {
	ex := qlearn.Constant{Eps: 0.1}
	o := adoptExplorer(nil, ex).(Options)
	if o.Explorer != ex {
		t.Errorf("adoptExplorer(nil) = %+v", o)
	}
	prior := qlearn.Constant{Eps: 0.7}
	o = adoptExplorer(Options{Explorer: prior, Picker: UCB1}, ex).(Options)
	if o.Explorer != prior || o.Picker != UCB1 {
		t.Errorf("adoptExplorer must keep existing options intact: %+v", o)
	}
}

func TestValidateOptions(t *testing.T) {
	if err := validateOptions(nil); err != nil {
		t.Errorf("nil options rejected: %v", err)
	}
	if err := validateOptions(Options{Picker: UCB1 + 1}); err == nil {
		t.Error("unknown picker value accepted")
	}
	if err := validateOptions(Options{UCBC: -1}); err == nil {
		t.Error("negative UCBC accepted")
	}
	for _, eps0 := range []float64{math.NaN(), -0.1, 5} {
		if err := validateOptions(Options{Explorer: &qlearn.EpsilonGreedy{Eps0: eps0}}); err == nil {
			t.Errorf("ε-greedy eps0=%v accepted", eps0)
		}
	}
	if err := validateOptions("x"); err == nil {
		t.Error("foreign options type accepted")
	}
}

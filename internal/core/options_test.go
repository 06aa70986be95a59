package core

import (
	"testing"

	"qma/internal/mac"
	"qma/internal/qlearn"
)

func TestParseOptionsKV(t *testing.T) {
	got, err := parseOptions(map[string]string{"table": "fixed", "alpha": "0.25", "startup": "10"})
	if err != nil {
		t.Fatal(err)
	}
	o := got.(Options)
	if o.Table != TableFixed || o.StartupSubslots != 10 {
		t.Errorf("parsed %+v", o)
	}
	// A partial hyperparameter override starts from the paper's defaults.
	if o.Learn.Alpha != 0.25 || o.Learn.Gamma != qlearn.DefaultParams().Gamma ||
		o.Learn.InitQ != qlearn.DefaultParams().InitQ {
		t.Errorf("learn %+v drifted from defaults", o.Learn)
	}

	// No hyperparameter keys: Learn stays zero so the engine default applies
	// (the zero value selects DefaultParams downstream).
	got, err = parseOptions(map[string]string{"table": "quant"})
	if err != nil {
		t.Fatal(err)
	}
	if o := got.(Options); o.Learn != (qlearn.Params{}) || o.Table != TableQuant {
		t.Errorf("parsed %+v, want zero Learn", o)
	}

	if _, err := parseOptions(map[string]string{"table": "sparse"}); err == nil {
		t.Error("unknown table kind accepted")
	}
	if _, err := parseOptions(map[string]string{"rho": "0.1"}); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestAdoptExplorer(t *testing.T) {
	ex := qlearn.Constant{Eps: 0.3}
	o := adoptExplorer(nil, ex).(Options)
	if o.Explorer != ex {
		t.Errorf("adoptExplorer(nil) = %+v", o)
	}
	prior := qlearn.Constant{Eps: 0.8}
	o = adoptExplorer(Options{Explorer: prior, Table: TableFixed}, ex).(Options)
	if o.Explorer != prior || o.Table != TableFixed {
		t.Errorf("adoptExplorer must not override or drop fields: %+v", o)
	}
}

func TestRegistryEntry(t *testing.T) {
	p, ok := mac.Lookup(ProtocolName)
	if !ok {
		t.Fatal("qma not registered")
	}
	if p.NeedsCapture {
		t.Error("qma must not require a capture-enabled medium")
	}
	if err := p.Validate(Options{Table: TableQuant + 1}); err == nil {
		t.Error("Validate accepted an unknown table kind")
	}
	if err := p.Validate(Options{Explorer: qlearn.Constant{Eps: 2}}); err == nil {
		t.Error("Validate accepted an exploration rate above 1")
	}
	if err := p.Validate(42); err == nil {
		t.Error("Validate accepted foreign options")
	}
}

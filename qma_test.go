package qma_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"qma"
)

// TestUnknownMACIsRejected pins the protocol-registry validation: an
// unrecognized MAC value must fail Validate and Run with the named
// ErrUnknownMAC (no silent fallback to QMA), and the error must list the
// registered protocols.
func TestUnknownMACIsRejected(t *testing.T) {
	sc := &qma.Scenario{
		Topology:        qma.HiddenNode(),
		MAC:             "token-ring",
		DurationSeconds: 10,
	}
	err := sc.Validate()
	if !errors.Is(err, qma.ErrUnknownMAC) {
		t.Fatalf("Validate: got %v, want ErrUnknownMAC", err)
	}
	if !strings.Contains(err.Error(), string(qma.QMA)) || !strings.Contains(err.Error(), string(qma.Aloha)) {
		t.Errorf("error %q does not list the registered protocols", err)
	}
	if _, err := sc.Run(); !errors.Is(err, qma.ErrUnknownMAC) {
		t.Errorf("Run: got %v, want ErrUnknownMAC", err)
	}
	dsme := &qma.DSMEScenario{Topology: qma.HiddenNode(), MAC: "token-ring", DurationSeconds: 10}
	if err := dsme.Validate(); !errors.Is(err, qma.ErrUnknownMAC) {
		t.Errorf("DSME Validate: got %v, want ErrUnknownMAC", err)
	}
	if _, err := qma.ParseMAC("token-ring"); !errors.Is(err, qma.ErrUnknownMAC) {
		t.Errorf("ParseMAC: got %v, want ErrUnknownMAC", err)
	}
}

// TestMACRegistryRoundTrip pins the public registry surface: MACs() lists
// every protocol of this build, each canonical key and alias parses to the
// canonical value, and every listed protocol validates and carries a display
// name.
func TestMACRegistryRoundTrip(t *testing.T) {
	macs := qma.MACs()
	want := map[qma.MAC]bool{
		qma.QMA: true, qma.CSMAUnslotted: true, qma.CSMASlotted: true,
		qma.Aloha: true, qma.SlottedAloha: true, qma.Bandit: true,
		qma.NOMA: true,
	}
	if len(macs) != len(want) {
		t.Fatalf("MACs() = %v, want the %d registered protocols", macs, len(want))
	}
	for _, m := range macs {
		if !want[m] {
			t.Errorf("MACs() lists unexpected protocol %q", m)
		}
		got, err := qma.ParseMAC(string(m))
		if err != nil || got != m {
			t.Errorf("ParseMAC(%q) = %q, %v", m, got, err)
		}
		if sc := (&qma.Scenario{Topology: qma.HiddenNode(), MAC: m, DurationSeconds: 1}); sc.Validate() != nil {
			t.Errorf("Validate rejects registered protocol %q", m)
		}
		if m.String() == "" {
			t.Errorf("protocol %q has no display name", m)
		}
	}
	for alias, canonical := range map[string]qma.MAC{
		"unslotted":  qma.CSMAUnslotted,
		"slotted":    qma.CSMASlotted,
		"pure-aloha": qma.Aloha,
		"s-aloha":    qma.SlottedAloha,
		"mab":        qma.Bandit,
		"noma-ql":    qma.NOMA,
	} {
		got, err := qma.ParseMAC(alias)
		if err != nil || got != canonical {
			t.Errorf("ParseMAC(%q) = %q, %v; want %q", alias, got, err, canonical)
		}
	}
	// The empty string is the documented QMA default, not an error.
	if got, err := qma.ParseMAC(""); err != nil || got != qma.QMA {
		t.Errorf("ParseMAC(\"\") = %q, %v; want the QMA default", got, err)
	}
}

// TestBanditAliasHonorsExplorer pins that protocol aliases behave exactly
// like their canonical key through the public API: a bandit run addressed as
// "mab" must pick up a configured Explorer (and therefore match the run
// addressed as qma.Bandit bit for bit).
func TestBanditAliasHonorsExplorer(t *testing.T) {
	run := func(mk qma.MAC) *qma.Result {
		sc := &qma.Scenario{
			Topology:        qma.HiddenNode(),
			MAC:             mk,
			Explorer:        &qma.Explorer{Kind: "constant", Eps0: 0.5},
			Seed:            3,
			DurationSeconds: 20,
			Traffic: []qma.Traffic{
				{Origin: 0, Phases: []qma.Phase{{Rate: 5}}, StartSeconds: 1},
				{Origin: 2, Phases: []qma.Phase{{Rate: 5}}, StartSeconds: 1},
			},
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("%q: %v", mk, err)
		}
		return res
	}
	canonical, alias := run(qma.Bandit), run("mab")
	if !reflect.DeepEqual(canonical, alias) {
		t.Error("MAC \"mab\" ran differently from qma.Bandit with the same Explorer")
	}
}

// TestNomaCaptureSharing pins the NOMA acceptance behaviour through the
// public API: on the hidden-node pair with capture enabled, the power-level
// learner produces deliveries that happened under overlapping transmissions
// (Captured > 0) — two power levels sharing a subslot — while the identical
// run without capture produces none.
func TestNomaCaptureSharing(t *testing.T) {
	run := func(captureDB float64) *qma.Result {
		sc := &qma.Scenario{
			Topology:           qma.HiddenNode(),
			MAC:                qma.NOMA,
			CaptureThresholdDB: captureDB,
			Seed:               1,
			DurationSeconds:    60,
			Traffic: []qma.Traffic{
				{Origin: 0, Phases: []qma.Phase{{Rate: 10}}, StartSeconds: 1},
				{Origin: 2, Phases: []qma.Phase{{Rate: 10}}, StartSeconds: 1},
			},
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	captured := func(r *qma.Result) (n uint64) {
		for _, node := range r.Nodes {
			n += node.Captured
		}
		return n
	}
	with := run(6)
	if got := captured(with); got == 0 {
		t.Error("capture-enabled NOMA run shows no captured deliveries — power levels never shared a subslot")
	}
	if with.NetworkPDR <= 0 {
		t.Error("capture-enabled NOMA run delivered nothing")
	}
	if got := captured(run(0)); got != 0 {
		t.Errorf("capture-disabled run reports %d captured deliveries, want 0", got)
	}
}

// TestNomaReportsKindPolicy pins what a NOMA node reports through the
// public API: it runs on QMA's engine, so it has a policy string with one
// action kind per subslot — never a raw power-level action index — and the
// footprint of its 54×(3·K) float64 Q-table.
func TestNomaReportsKindPolicy(t *testing.T) {
	sc := &qma.Scenario{
		Topology:           qma.HiddenNode(),
		MAC:                qma.NOMA,
		MACOptions:         map[string]string{"levels": "2"},
		CaptureThresholdDB: 6,
		Seed:               1,
		DurationSeconds:    20,
		Traffic: []qma.Traffic{
			{Origin: 0, Phases: []qma.Phase{{Rate: 10}}, StartSeconds: 1},
			{Origin: 2, Phases: []qma.Phase{{Rate: 10}}, StartSeconds: 1},
		},
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Nodes {
		if got := utf8.RuneCountInString(n.Policy); got != 54 {
			t.Errorf("node %s: policy %q has %d runes, want 54", n.Label, n.Policy, got)
		}
		if strings.Trim(n.Policy, ".CS") != "" {
			t.Errorf("node %s: policy %q holds runes outside .CS", n.Label, n.Policy)
		}
		if n.TableBytes != 54*6*8 {
			t.Errorf("node %s: TableBytes = %d, want %d", n.Label, n.TableBytes, 54*6*8)
		}
	}
}

// TestMACOptionsKV pins the generic key=value options plumbing: registry
// parsing, validation of unknown keys/bad values at Validate time, and a
// full run under parsed options.
func TestMACOptionsKV(t *testing.T) {
	base := func() *qma.Scenario {
		return &qma.Scenario{
			Topology:        qma.HiddenNode(),
			DurationSeconds: 10,
			Traffic:         []qma.Traffic{{Origin: 0, Phases: []qma.Phase{{Rate: 2}}}},
		}
	}

	sc := base()
	sc.MAC = qma.CSMAUnslotted
	sc.MACOptions = map[string]string{"minbe": "2", "maxbe": "4"}
	if _, err := sc.Run(); err != nil {
		t.Errorf("csma options rejected: %v", err)
	}

	sc = base()
	sc.MAC = qma.NOMA
	sc.MACOptions = map[string]string{"levels": "3", "step": "6"}
	sc.CaptureThresholdDB = 6
	if _, err := sc.Run(); err != nil {
		t.Errorf("noma options rejected: %v", err)
	}

	for name, kv := range map[string]map[string]string{
		"unknown key":      {"window": "7"},
		"malformed value":  {"minbe": "two"},
		"invalid after kv": {"minbe": "9"}, // parses, but ValidateBEB rejects BE > 8
	} {
		sc = base()
		sc.MAC = qma.CSMAUnslotted
		sc.MACOptions = kv
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %v", name, kv)
		}
		if _, err := sc.Run(); err == nil {
			t.Errorf("%s: Run accepted %v", name, kv)
		}
	}
}

// TestExplorerAdoptionIsGeneric pins that the scenario-level Explorer now
// flows through the registry's AdoptExplorer capability: the bandit picks it
// up with key=value options present too, and protocols without the hook
// (CSMA) simply ignore the explorer.
func TestExplorerAdoptionIsGeneric(t *testing.T) {
	sc := &qma.Scenario{
		Topology:        qma.HiddenNode(),
		MAC:             qma.Bandit,
		Explorer:        &qma.Explorer{Kind: "constant", Eps0: 0.4},
		MACOptions:      map[string]string{"picker": "egreedy"},
		DurationSeconds: 10,
		Traffic:         []qma.Traffic{{Origin: 0, Phases: []qma.Phase{{Rate: 2}}}},
	}
	if _, err := sc.Run(); err != nil {
		t.Errorf("bandit with explorer and options: %v", err)
	}
	sc.MAC = qma.CSMAUnslotted
	sc.MACOptions = nil
	if _, err := sc.Run(); err != nil {
		t.Errorf("csma must ignore the explorer, got: %v", err)
	}
}

func TestScenarioValidation(t *testing.T) {
	// Node 0 links to the sink 1 but has no routing parent.
	unrouted, err := qma.NewTopology(3, [][2]int{{0, 1}, {1, 2}}, 1, []int{-1, -1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*qma.Scenario{
		"no topology": {DurationSeconds: 10},
		"no duration": {Topology: qma.HiddenNode()},
		"bad mac":     {Topology: qma.HiddenNode(), DurationSeconds: 10, MAC: "token-ring"},
		"bad origin": {Topology: qma.HiddenNode(), DurationSeconds: 10,
			Traffic: []qma.Traffic{{Origin: 7, Phases: []qma.Phase{{Rate: 1}}}}},
		"sink origin": {Topology: qma.HiddenNode(), DurationSeconds: 10,
			Traffic: []qma.Traffic{{Origin: 1, Phases: []qma.Phase{{Rate: 1}}}}},
		"no phases": {Topology: qma.HiddenNode(), DurationSeconds: 10,
			Traffic: []qma.Traffic{{Origin: 0}}},
		"bad explorer": {Topology: qma.HiddenNode(), DurationSeconds: 10,
			Explorer: &qma.Explorer{Kind: "nope"}},
		"negative capture": {Topology: qma.HiddenNode(), DurationSeconds: 10,
			CaptureThresholdDB: -2},
		"bad mac option": {Topology: qma.HiddenNode(), DurationSeconds: 10,
			MAC: qma.NOMA, MACOptions: map[string]string{"levels": "99"}},
		"bad broadcast": {Topology: qma.HiddenNode(), DurationSeconds: 10,
			Broadcasts: []qma.Broadcast{{Origin: 0, PeriodSeconds: 0}}},
		"unrouted origin": {Topology: unrouted, DurationSeconds: 10,
			Traffic: []qma.Traffic{{Origin: 0, Phases: []qma.Phase{{Rate: 1}}}}},
		"summary with series": {Topology: qma.HiddenNode(), DurationSeconds: 10,
			SummaryOnly: true, SampleSeries: true},
	}
	for name, sc := range cases {
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad scenario", name)
		}
		if _, err := sc.Run(); err == nil {
			t.Errorf("%s: Run accepted a bad scenario", name)
		}
	}
}

func TestPublicScenarioEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	sc := &qma.Scenario{
		Topology:        qma.HiddenNode(),
		MAC:             qma.QMA,
		Seed:            1,
		DurationSeconds: 120,
		Traffic: []qma.Traffic{
			{Origin: 0, Phases: []qma.Phase{{Rate: 10}}, StartSeconds: 5, MaxPackets: 500},
			{Origin: 2, Phases: []qma.Phase{{Rate: 10}}, StartSeconds: 5, MaxPackets: 500},
		},
		SampleSeries: true,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NetworkPDR < 0.9 {
		t.Errorf("PDR = %.3f, want >= 0.9", res.NetworkPDR)
	}
	a := res.Nodes[0]
	if a.Label != "A" || a.Generated == 0 || a.PDR <= 0 {
		t.Errorf("node A result incomplete: %+v", a)
	}
	if len(a.Policy) != 54 {
		t.Errorf("policy length = %d, want 54 subslots", len(a.Policy))
	}
	if len(a.CumulativeQ) == 0 || len(a.ExplorationRate) == 0 || len(a.QueueLevel) == 0 {
		t.Error("series missing despite SampleSeries")
	}
	// Determinism through the public API.
	res2, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.NetworkPDR != res.NetworkPDR || res2.MeanDelaySeconds != res.MeanDelaySeconds {
		t.Error("identical scenarios produced different results")
	}
}

func TestPublicScenarioCSMAAndTables(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	base := qma.Scenario{
		Topology:        qma.HiddenNode(),
		Seed:            2,
		DurationSeconds: 80,
		Traffic: []qma.Traffic{
			{Origin: 0, Phases: []qma.Phase{{Rate: 5}}, StartSeconds: 2},
			{Origin: 2, Phases: []qma.Phase{{Rate: 5}}, StartSeconds: 2},
		},
	}
	for _, mk := range []qma.MAC{qma.CSMAUnslotted, qma.CSMASlotted} {
		sc := base
		sc.MAC = mk
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("%v: %v", mk, err)
		}
		if res.NetworkPDR < 0.8 {
			t.Errorf("%v: PDR = %.3f at low load", mk, res.NetworkPDR)
		}
		if res.Nodes[0].Policy != "" {
			t.Errorf("%v: CSMA node has a QMA policy", mk)
		}
	}
	for _, tk := range []qma.TableKind{qma.TableFixed, qma.TableQuant} {
		sc := base
		sc.MAC = qma.QMA
		sc.Table = tk
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("table %d: %v", tk, err)
		}
		if res.NetworkPDR < 0.8 {
			t.Errorf("table %d: PDR = %.3f, the integer tables should work too", tk, res.NetworkPDR)
		}
	}
}

func TestPublicDSMEScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	rings, err := qma.Rings(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&qma.DSMEScenario{
		Topology:        rings,
		MAC:             qma.QMA,
		Seed:            1,
		DurationSeconds: 250,
		WarmupSeconds:   100,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SecondaryPDR <= 0 || res.SecondaryPDR > 1.1 {
		t.Errorf("secondary PDR = %.3f out of range", res.SecondaryPDR)
	}
	if res.PrimaryPDR <= 0.3 {
		t.Errorf("primary PDR = %.3f, want > 0.3", res.PrimaryPDR)
	}
	owned := 0
	for _, s := range res.SlotsOwned {
		owned += s
	}
	if owned == 0 {
		t.Error("no GTS owned at the end of the run")
	}
	// Validation errors.
	if _, err := (&qma.DSMEScenario{}).Run(); err == nil {
		t.Error("empty DSME scenario accepted")
	}
	if _, err := (&qma.DSMEScenario{Topology: rings, DurationSeconds: 10, WarmupSeconds: 20}).Run(); err == nil {
		t.Error("warmup >= duration accepted")
	}
	if _, err := (&qma.DSMEScenario{Topology: rings, DurationSeconds: 10, Table: qma.TableKind(9)}).Run(); err == nil {
		t.Error("unknown table kind accepted")
	}
	// 256 would wrap onto TableFloat in the engine's 8-bit table kind.
	if _, err := (&qma.DSMEScenario{Topology: rings, DurationSeconds: 10, Table: qma.TableKind(256)}).Run(); err == nil {
		t.Error("table kind 256 accepted")
	}
	bad := qma.LearnParams{Alpha: 2, Gamma: 0.9, Xi: 2, InitQ: -10}
	if _, err := (&qma.DSMEScenario{Topology: rings, DurationSeconds: 10, Learn: bad}).Run(); err == nil || !strings.Contains(err.Error(), "alpha=2") {
		t.Errorf("invalid learning parameters: err = %v, want an alpha=2 error", err)
	}
}

func TestPublicLearner(t *testing.T) {
	l, err := qma.NewLearner(4, 3, qma.LearnParams{Alpha: 1, Gamma: 1, Xi: 2, InitQ: -10}, qma.TableFloat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.States() != 4 || l.Actions() != 3 {
		t.Fatal("dimensions wrong")
	}
	// The Fig. 5 first update: QSend success in subslot 0.
	if got := l.Observe(0, 2, 4, 1); got != -6 {
		t.Errorf("Observe = %v, want -6", got)
	}
	if l.Policy(0) != 2 {
		t.Errorf("policy = %d, want QSend", l.Policy(0))
	}
	if l.Q(0, 2) != -6 {
		t.Errorf("Q = %v", l.Q(0, 2))
	}
	l.Reset(1)
	if l.Policy(0) != 1 || l.Q(0, 2) != -10 {
		t.Error("Reset failed")
	}
	// Constructor validation.
	if _, err := qma.NewLearner(0, 3, qma.LearnParams{}, qma.TableFloat, 0); err == nil {
		t.Error("accepted zero states")
	}
	if _, err := qma.NewLearner(2, 3, qma.LearnParams{}, qma.TableKind(9), 0); err == nil {
		t.Error("accepted unknown table kind")
	}
	if _, err := qma.NewLearner(2, 3, qma.LearnParams{}, qma.TableKind(256), 0); err == nil {
		t.Error("accepted table kind 256")
	}
	if _, err := qma.NewLearner(2, 3, qma.LearnParams{Alpha: 2, Gamma: 0.9}, qma.TableFloat, 0); err == nil {
		t.Error("accepted alpha=2")
	}
	// The integer tables run the paper's parameters only: an override would
	// be silently ignored, so it is rejected, and the exact defaults pass.
	if _, err := qma.NewLearner(2, 3, qma.LearnParams{Alpha: 0.3, Gamma: 0.9, Xi: 0, InitQ: -10}, qma.TableFixed, 0); err == nil || !strings.Contains(err.Error(), "integer tables") {
		t.Errorf("fixed table with alpha=0.3: err = %v, want an integer-table error", err)
	}
	if _, err := qma.NewLearner(2, 3, qma.LearnParams{Alpha: 0.5, Gamma: 0.9, Xi: 2, InitQ: -10}, qma.TableQuant, 0); err != nil {
		t.Errorf("quant table with the default parameters: %v", err)
	}
	if _, err := qma.NewLearner(2, 3, qma.LearnParams{}, qma.TableFloat, 5); err == nil {
		t.Error("accepted out-of-range default action")
	}
	// π stores one byte per state, so 256 actions is the widest table.
	if _, err := qma.NewLearner(2, 256, qma.LearnParams{}, qma.TableFloat, 255); err != nil {
		t.Errorf("rejected 256 actions: %v", err)
	}
	if _, err := qma.NewLearner(2, 257, qma.LearnParams{}, qma.TableFloat, 0); err == nil || !strings.HasPrefix(err.Error(), "qma: ") {
		t.Errorf("257 actions: err = %v, want a qma: error", err)
	}
}

func TestPublicExplorationRate(t *testing.T) {
	if got := qma.ExplorationRate(8, 0); got != 0.3 {
		t.Errorf("rho(8,0) = %v, want 0.3", got)
	}
	if got := qma.ExplorationRate(2, 5); got != 0 {
		t.Errorf("rho(2,5) = %v, want 0", got)
	}
	// The rate reads the shared Fig. 4 table instead of building one.
	if n := testing.AllocsPerRun(100, func() { qma.ExplorationRate(3, 1) }); n != 0 {
		t.Errorf("ExplorationRate allocates %v objects per call, want 0", n)
	}
}

func TestPublicHandshakeExpectation(t *testing.T) {
	v, err := qma.ExpectedHandshakeMessages(1)
	if err != nil || math.Abs(v-3) > 1e-9 {
		t.Errorf("E[p=1] = %v/%v, want 3", v, err)
	}
	if _, err := qma.ExpectedHandshakeMessages(1.5); err == nil {
		t.Error("accepted p > 1")
	}
	if _, err := qma.ExpectedHandshakeMessages(math.NaN()); err == nil {
		t.Error("accepted p = NaN")
	}
}

func TestTopologyConstructors(t *testing.T) {
	if qma.HiddenNode().NumNodes() != 3 || qma.Tree10().NumNodes() != 10 || qma.Star17().NumNodes() != 17 {
		t.Error("built-in topology sizes wrong")
	}
	r, err := qma.Rings(4)
	if err != nil || r.NumNodes() != 91 {
		t.Errorf("Rings(4) = %d nodes / %v", r.NumNodes(), err)
	}
	if _, err := qma.Rings(0); err == nil {
		t.Error("Rings(0) accepted")
	}
	hn := qma.HiddenNode()
	for id, want := range map[int]string{0: "A", 2: "C", -1: "-1", 3: "3", 32768: "32768", 65536: "65536"} {
		if got := hn.Label(id); got != want {
			t.Errorf("HiddenNode().Label(%d) = %q, want %q", id, got, want)
		}
	}
	custom, err := qma.NewTopology(3, [][2]int{{0, 1}, {1, 2}}, 1, []int{1, -1, 1})
	if err != nil || custom.NumNodes() != 3 || custom.Sink() != 1 {
		t.Errorf("custom topology: %v", err)
	}
	for name, build := range map[string]func() error{
		"bad sink":    func() error { _, e := qma.NewTopology(3, nil, 5, []int{-1, -1, -1}); return e },
		"bad parents": func() error { _, e := qma.NewTopology(3, nil, 0, []int{-1}); return e },
		"bad link":    func() error { _, e := qma.NewTopology(3, [][2]int{{0, 9}}, 0, []int{-1, 0, 0}); return e },
		"bad n":       func() error { _, e := qma.NewTopology(0, nil, 0, nil); return e },
	} {
		if build() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

package core

import (
	"fmt"

	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/sim"
)

// ProtocolName is QMA's canonical registry key.
const ProtocolName = "qma"

// TableKind selects the Q-value storage for QMA nodes.
type TableKind uint8

const (
	// TableFloat is the float64 reference table.
	TableFloat TableKind = iota
	// TableFixed is the Q8.8 integer table (§3.2 embedded variant).
	TableFixed
	// TableQuant is the 8-bit saturating table (§7 future-work variant).
	TableQuant
)

// Options tunes the QMA engines of a scenario. It is the registry options
// type for the "qma" protocol (scenario.QMAOptions aliases it).
type Options struct {
	// Learn are the hyperparameters (zero value selects the paper's
	// α=0.5, γ=0.9, ξ=2).
	Learn qlearn.Params
	// Table selects the Q-value representation.
	Table TableKind
	// Explorer decides ρ; nil selects parameter-based exploration (Fig. 4).
	Explorer qlearn.Explorer
	// StartupSubslots is Δ; 0 selects the engine default of two full
	// frames, a negative value disables cautious startup.
	StartupSubslots int
	// DisableStartupPunish turns off the §4.3 QCCA/QSend punishments.
	DisableStartupPunish bool
	// ReevalOnDecay enables the policy-reevaluation ablation.
	ReevalOnDecay bool
}

func init() {
	mac.Register(mac.Protocol{
		Name:          ProtocolName,
		Display:       "QMA",
		Validate:      validateOptions,
		ParseOptions:  parseOptions,
		AdoptExplorer: adoptExplorer,
		New: func(cfg mac.Config, opts any, rng *sim.Rand) mac.Engine {
			var o Options
			if opts != nil {
				o = opts.(Options)
			}
			return NewFromOptions(o, cfg, rng)
		},
	})
}

// parseOptions maps -mac-opt key=value pairs onto Options. Learning
// hyperparameters start from the paper's defaults so a single override
// (alpha=0.3) leaves the rest intact.
func parseOptions(kv map[string]string) (any, error) {
	var o Options
	learn := qlearn.DefaultParams()
	touched := false
	fields := mac.LearnParamFields(&learn, &touched)
	fields["table"] = mac.EnumField(func(t TableKind) { o.Table = t },
		map[string]TableKind{"float": TableFloat, "fixed": TableFixed, "quant": TableQuant})
	fields["startup"] = mac.IntField(&o.StartupSubslots)
	if err := mac.ParseKV(ProtocolName, kv, fields); err != nil {
		return nil, err
	}
	if touched {
		o.Learn = learn
	}
	return o, nil
}

// adoptExplorer implements the registry's AdoptExplorer hook for QMA.
func adoptExplorer(opts any, explorer qlearn.Explorer) any {
	var o Options
	if opts != nil {
		o = opts.(Options)
	}
	if o.Explorer == nil {
		o.Explorer = explorer
	}
	return o
}

func validateOptions(opts any) error {
	if opts == nil {
		return nil
	}
	o, ok := opts.(Options)
	if !ok {
		return mac.OptionsError(ProtocolName, opts, Options{})
	}
	return o.Validate()
}

// Validate reports a descriptive error for options no engine can be built
// from: an unknown table kind, an Explorer qlearn.ValidateExplorer rejects,
// a non-zero Learn (zero selects the paper's
// defaults) that qlearn.Params.Validate rejects, or an integer table with a
// Learn other than zero or qlearn.DefaultParams() — the integer tables run
// their width's fixed parameters and would silently ignore it. The NOMA
// protocol and qma.NewLearner validate through here too.
func (opts Options) Validate() error {
	if opts.Table > TableQuant {
		return fmt.Errorf("core: unknown table kind %d", opts.Table)
	}
	if err := qlearn.ValidateExplorer(opts.Explorer); err != nil {
		return err
	}
	if opts.Learn == (qlearn.Params{}) {
		return nil
	}
	if err := opts.Learn.Validate(); err != nil {
		return err
	}
	if opts.Table != TableFloat && opts.Learn != qlearn.DefaultParams() {
		return fmt.Errorf("core: the integer tables run fixed learning parameters (α=0.5, γ=230/256, ξ=2, Q₀=−10); got %+v", opts.Learn)
	}
	return nil
}

// NewTable builds the Q-value storage of kind k for a states × actions
// learner, carving the values from scratch (nil allocates privately). The
// float64 table takes learn, which must be valid; the integer tables run
// their width's default parameters, γ quantized to 230/256.
func (k TableKind) NewTable(states, actions int, learn qlearn.Params, scratch *mac.Scratch) qlearn.Table {
	switch k {
	case TableFixed:
		return qlearn.NewFixedTableOn(states, actions, qlearn.DefaultFixedParams(), scratch.Int16s(states*actions))
	case TableQuant:
		return qlearn.NewQuantTableOn(states, actions, qlearn.DefaultQuantParams(), scratch.Int8s(states*actions))
	}
	return qlearn.NewFloatTableOn(states, actions, learn, scratch.Float64s(states*actions))
}

// NewFromOptions builds a QMA engine over macCfg from scenario-level options.
func NewFromOptions(opts Options, macCfg mac.Config, rng *sim.Rand) *Engine {
	return New(opts.Config(macCfg, rng))
}

// Config resolves scenario-level options into an engine Config over macCfg:
// the table representation and the cautious-startup convention (scenario
// zero value = engine default, negative = disabled). A zero Learn stays
// zero for New to default. The power-level fields stay zero, which is QMA.
func (opts Options) Config(macCfg mac.Config, rng *sim.Rand) Config {
	// TableFloat leaves table nil, so New builds the float64 table from
	// Learn inside the engine's own block.
	var table qlearn.Table
	if opts.Table != TableFloat {
		subslots := macCfg.Clock.Config().Subslots
		table = opts.Table.NewTable(subslots, NumActions, opts.Learn, macCfg.Scratch)
	}
	startup := opts.StartupSubslots
	switch {
	case startup == 0:
		// The scenario-level zero value means "engine default"; a
		// negative value disables cautious startup.
		startup = -1
	case startup < 0:
		startup = 0
	}
	return Config{
		MAC:             macCfg,
		Table:           table,
		Learn:           opts.Learn,
		Explorer:        opts.Explorer,
		Rng:             rng,
		StartupSubslots: startup,
		StartupPunish:   !opts.DisableStartupPunish,
		ReevalOnDecay:   opts.ReevalOnDecay,
	}
}

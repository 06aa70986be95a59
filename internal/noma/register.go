package noma

import (
	"cmp"
	"fmt"
	"math"

	"qma/internal/core"
	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/sim"
)

// Proto is the NOMA MAC's canonical registry key.
const Proto = "noma"

// Options tunes a NOMA engine through the protocol registry. The zero value
// (or nil options) selects K=2 levels 6 dB apart with the paper's learning
// defaults.
type Options struct {
	// Levels is K, the number of power levels (0 selects DefaultLevels).
	Levels int
	// LevelStepDB is the power reduction per level in dB (0 selects
	// DefaultLevelStepDB).
	LevelStepDB float64
	// Learn are the Q-learning hyperparameters (zero value selects the
	// paper's defaults).
	Learn qlearn.Params
	// Explorer decides ρ; nil selects parameter-based exploration.
	Explorer qlearn.Explorer
	// StartupSubslots is Δ (0 = engine default, negative = disabled),
	// following the scenario-level convention of core.Options.
	StartupSubslots int
	// DisableStartupPunish turns off the §4.3 punishments.
	DisableStartupPunish bool
}

func init() {
	mac.Register(mac.Protocol{
		Name:          Proto,
		Aliases:       []string{"noma-ql"},
		Display:       "NOMA power-level QL",
		Validate:      validateOptions,
		ParseOptions:  parseOptions,
		AdoptExplorer: adoptExplorer,
		NeedsCapture:  true,
		New: func(cfg mac.Config, opts any, rng *sim.Rand) mac.Engine {
			var o Options
			if opts != nil {
				o = opts.(Options)
			}
			return NewFromOptions(o, cfg, rng)
		},
	})
}

func validateOptions(opts any) error {
	if opts == nil {
		return nil
	}
	o, ok := opts.(Options)
	if !ok {
		return mac.OptionsError(Proto, opts, Options{})
	}
	if o.Levels < 0 || o.Levels > MaxLevels {
		return fmt.Errorf("noma: Levels=%d out of [0,%d] (0 = default %d)", o.Levels, MaxLevels, DefaultLevels)
	}
	if !(o.LevelStepDB >= 0 && o.LevelStepDB <= math.MaxFloat64) {
		return fmt.Errorf("noma: LevelStepDB=%v must be finite and non-negative", o.LevelStepDB)
	}
	return o.qma().Validate()
}

// qma is the QMA engine options o shares with core.
func (o Options) qma() core.Options {
	return core.Options{
		Learn:                o.Learn,
		Explorer:             o.Explorer,
		StartupSubslots:      o.StartupSubslots,
		DisableStartupPunish: o.DisableStartupPunish,
	}
}

// parseOptions maps -mac-opt key=value pairs onto Options. Learning
// hyperparameters start from the paper's defaults so a single override
// leaves the rest intact.
func parseOptions(kv map[string]string) (any, error) {
	var o Options
	learn := qlearn.DefaultParams()
	touched := false
	fields := mac.LearnParamFields(&learn, &touched)
	fields["levels"] = mac.IntField(&o.Levels)
	fields["step"] = mac.FloatField(&o.LevelStepDB)
	fields["startup"] = mac.IntField(&o.StartupSubslots)
	if err := mac.ParseKV(Proto, kv, fields); err != nil {
		return nil, err
	}
	if touched {
		o.Learn = learn
	}
	return o, nil
}

// adoptExplorer implements the registry's AdoptExplorer hook.
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

// NewFromOptions builds a NOMA engine over macCfg from scenario-level
// options: the QMA engine resolved from the shared options by
// core.Options.Config, with K power levels and captured-over shaping on.
func NewFromOptions(opts Options, macCfg mac.Config, rng *sim.Rand) *core.Engine {
	cfg := opts.qma().Config(macCfg, rng)
	cfg.Levels = cmp.Or(opts.Levels, DefaultLevels)
	cfg.LevelStepDB = cmp.Or(opts.LevelStepDB, DefaultLevelStepDB)
	cfg.CapturedOver = true
	return core.New(cfg)
}

package bandit

import (
	"fmt"
	"math"

	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/sim"
)

func init() {
	mac.Register(mac.Protocol{
		Name:          Proto,
		Aliases:       []string{"mab"},
		Display:       "slot bandit",
		Validate:      validateOptions,
		ParseOptions:  parseOptions,
		AdoptExplorer: adoptExplorer,
		New: func(cfg mac.Config, opts any, rng *sim.Rand) mac.Engine {
			var o Options
			if opts != nil {
				o = opts.(Options)
			}
			return New(Config{MAC: cfg, Options: o, Rng: rng})
		},
	})
}

// parseOptions maps -mac-opt key=value pairs onto Options. The ε-schedule
// keys (eps0/halflife/epsmin) start from the DefaultExplorer schedule so a
// partial override (say, halflife alone) keeps the other parameters sane
// instead of silently zeroing exploration.
func parseOptions(kv map[string]string) (any, error) {
	var o Options
	schedule := *DefaultExplorer().(*qlearn.EpsilonGreedy)
	halfLifeSeconds := schedule.HalfLife.Seconds()
	touched := false
	touch := func(dst *float64) mac.KVField {
		f := mac.FloatField(dst)
		return func(v string) error { touched = true; return f(v) }
	}
	err := mac.ParseKV(Proto, kv, map[string]mac.KVField{
		"picker": mac.EnumField(func(p Picker) { o.Picker = p },
			map[string]Picker{"egreedy": EpsilonGreedy, "ucb": UCB1}),
		"ucbc":     mac.FloatField(&o.UCBC),
		"eps0":     touch(&schedule.Eps0),
		"halflife": touch(&halfLifeSeconds),
		"epsmin":   touch(&schedule.Min),
	})
	if err != nil {
		return nil, err
	}
	if touched {
		schedule.HalfLife = sim.FromSeconds(halfLifeSeconds)
		o.Explorer = &schedule
	}
	return o, nil
}

// adoptExplorer implements the registry's AdoptExplorer hook: a
// scenario-level exploration strategy becomes the bandit's ε source unless
// the options already carry one.
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
		return mac.OptionsError(Proto, opts, Options{})
	}
	if o.Picker > UCB1 {
		return fmt.Errorf("bandit: unknown picker %d", o.Picker)
	}
	if !(o.UCBC >= 0 && o.UCBC <= math.MaxFloat64) {
		return fmt.Errorf("bandit: UCBC must be finite and non-negative, got %g", o.UCBC)
	}
	return nil
}

package aloha

import (
	"qma/internal/mac"
	"qma/internal/sim"
)

func init() {
	for _, reg := range []struct {
		name, alias, display string
		variant              Variant
	}{
		{ProtoPure, "pure-aloha", "pure ALOHA", Pure},
		{ProtoSlotted, "s-aloha", "slotted ALOHA", Slotted},
	} {
		reg := reg
		mac.Register(mac.Protocol{
			Name:         reg.name,
			Aliases:      []string{reg.alias},
			Display:      reg.display,
			Validate:     func(opts any) error { return validateOptions(reg.name, opts) },
			ParseOptions: func(kv map[string]string) (any, error) { return parseOptions(reg.name, kv) },
			New: func(cfg mac.Config, opts any, rng *sim.Rand) mac.Engine {
				var o Options
				if opts != nil {
					o = opts.(Options)
				}
				return New(Config{MAC: cfg, Variant: reg.variant, Rng: rng, Options: o})
			},
		})
	}
}

// parseOptions maps -mac-opt key=value pairs onto Options; proto is the
// registered key of the variant the user selected, so errors name it.
func parseOptions(proto string, kv map[string]string) (any, error) {
	var o Options
	err := mac.ParseKV(proto, kv, map[string]mac.KVField{
		"minbe": mac.IntField(&o.MinBE),
		"maxbe": mac.IntField(&o.MaxBE),
	})
	if err != nil {
		return nil, err
	}
	return o, nil
}

func validateOptions(proto string, opts any) error {
	if opts == nil {
		return nil
	}
	o, ok := opts.(Options)
	if !ok {
		return mac.OptionsError(proto, opts, Options{})
	}
	return mac.ValidateBEB("aloha", o.MinBE, o.MaxBE, DefaultMinBE, DefaultMaxBE)
}

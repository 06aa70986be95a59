package csma

import (
	"fmt"

	"qma/internal/mac"
	"qma/internal/sim"
)

// Canonical registry keys of the two CSMA/CA variants.
const (
	ProtoUnslotted = "csma-unslotted"
	ProtoSlotted   = "csma-slotted"
)

// Options tunes a CSMA/CA engine through the protocol registry. The zero
// value (or nil options) selects the 802.15.4 defaults.
type Options struct {
	// MinBE, MaxBE and MaxBackoffs override the standard's defaults when
	// positive (macMinBE=3, macMaxBE=5, macMaxCSMABackoffs=4).
	MinBE, MaxBE, MaxBackoffs int
}

func init() {
	for _, reg := range []struct {
		name, alias, display string
		variant              Variant
	}{
		{ProtoUnslotted, "unslotted", "unslotted CSMA/CA", Unslotted},
		{ProtoSlotted, "slotted", "slotted CSMA/CA", Slotted},
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
		"minbe":       mac.IntField(&o.MinBE),
		"maxbe":       mac.IntField(&o.MaxBE),
		"maxbackoffs": mac.IntField(&o.MaxBackoffs),
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
	if o.MaxBackoffs < 0 {
		return fmt.Errorf("csma: MaxBackoffs must not be negative: %d", o.MaxBackoffs)
	}
	return mac.ValidateBEB("csma", o.MinBE, o.MaxBE, MacMinBE, MacMaxBE)
}

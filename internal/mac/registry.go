package mac

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"qma/internal/qlearn"
	"qma/internal/sim"
)

// Name identifies a registered channel access protocol by its canonical
// registry key ("qma", "csma-unslotted", "aloha", ...). The zero value is not
// a protocol; scenario builders treat it as "use the default".
type Name string

// String implements fmt.Stringer: it reports the protocol's registered
// display name ("QMA", "unslotted CSMA/CA", ...) so experiment tables and
// logs read like the paper, falling back to the raw key for unregistered
// names.
func (n Name) String() string {
	if p, ok := Lookup(string(n)); ok {
		return p.Display
	}
	return string(n)
}

// Protocol describes one channel access scheme to the registry. Protocol
// packages (internal/core, internal/csma, internal/aloha, internal/bandit)
// register themselves from an init function; everything above the MAC layer —
// scenario assembly, the DSME substrate, the public qma API, the CLI flags
// and the experiment families — resolves protocols through Lookup/Build
// instead of switching on an enum.
type Protocol struct {
	// Name is the canonical lower-case registry key.
	Name string
	// Aliases are alternative keys accepted by Lookup (CLI shorthands like
	// "unslotted").
	Aliases []string
	// Display is the human-readable name used in experiment tables.
	Display string
	// New builds one node's engine over the shared MAC base configuration.
	// opts carries protocol-specific options; nil selects defaults. New may
	// assume Validate accepted opts.
	New func(cfg Config, opts any, rng *sim.Rand) Engine
	// Validate checks protocol-specific options. nil opts must be accepted
	// (defaults). A nil Validate accepts only nil opts.
	Validate func(opts any) error
	// ParseOptions converts CLI-style key=value options (qma-sim -mac-opt,
	// qma.Scenario.MACOptions) into the protocol's typed options value. The
	// result still passes through Validate, so ParseOptions only needs to
	// reject unknown keys and malformed values. nil means the protocol takes
	// no key=value options.
	ParseOptions func(kv map[string]string) (any, error)
	// AdoptExplorer installs a scenario-level exploration strategy into the
	// protocol's options (opts may be nil for "defaults plus this
	// explorer"). Protocols that reuse the shared qlearn.Explorer plumbing
	// (QMA, the bandit, NOMA) register it; everyone else leaves it nil and
	// ignores the scenario's explorer. Implementations must not override an
	// explorer already present in opts.
	AdoptExplorer func(opts any, explorer qlearn.Explorer) any
	// NeedsCapture marks protocols whose channel access is only meaningful
	// on a capture-enabled medium (radio.Medium.SetCaptureThreshold).
	// Generic comparison families that run a capture-less medium skip them;
	// capture-aware families and the CLI run them like any other protocol.
	NeedsCapture bool
}

var (
	registryMu sync.RWMutex
	registry   = map[string]*Protocol{} // canonical names and aliases
	canonical  []string                 // sorted canonical names
)

// Register adds a protocol to the registry. It panics on a missing name or
// factory and on duplicate keys: registration happens in package init
// functions, where a conflict is a programming error.
func Register(p Protocol) {
	if p.Name == "" || p.New == nil {
		panic("mac: Register needs a Name and a New factory")
	}
	if p.Display == "" {
		p.Display = p.Name
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	// Check every key before inserting any, so a duplicate panic leaves the
	// registry untouched (tests recover from these panics).
	keys := append([]string{p.Name}, p.Aliases...)
	for _, key := range keys {
		if _, dup := registry[key]; dup {
			panic(fmt.Sprintf("mac: protocol key %q registered twice", key))
		}
	}
	stored := p
	for _, key := range keys {
		registry[key] = &stored
	}
	canonical = append(canonical, p.Name)
	sort.Strings(canonical)
}

// Lookup resolves a canonical name or alias. It reports false for the empty
// string and unregistered names.
func Lookup(name string) (*Protocol, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// Names lists the registered canonical protocol names in sorted order.
func Names() []Name {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Name, len(canonical))
	for i, n := range canonical {
		out[i] = Name(n)
	}
	return out
}

// RegisteredList renders the canonical names as a comma-separated string for
// error messages and usage strings.
func RegisteredList() string {
	names := Names()
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = string(n)
	}
	return strings.Join(parts, ", ")
}

// Build resolves name (canonical or alias), validates opts and constructs one
// engine; an unknown name or rejected options return a descriptive error. It
// suits callers that build a single engine: the scenario runners, which
// build many, validate once with ValidateOptions and then call New per node.
func Build(name string, cfg Config, opts any, rng *sim.Rand) (Engine, error) {
	p, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("mac: unknown protocol %q (registered: %s)", name, RegisteredList())
	}
	if err := p.ValidateOptions(opts); err != nil {
		return nil, err
	}
	return p.New(cfg, opts, rng), nil
}

// ValidateOptions checks opts through the protocol's Validate hook; a
// protocol without one accepts only nil opts. Scenario runners call it once
// per run and then build every node's engine with New directly.
func (p *Protocol) ValidateOptions(opts any) error {
	if p.Validate != nil {
		return p.Validate(opts)
	}
	if opts != nil {
		return fmt.Errorf("mac: protocol %q takes no options, got %T", p.Name, opts)
	}
	return nil
}

// OptionsError is the conventional complaint for a factory handed options of
// a foreign type.
func OptionsError(proto string, opts, want any) error {
	return fmt.Errorf("mac: protocol %q options have type %T, want %T", proto, opts, want)
}

// MaxBE bounds binary-exponential-backoff exponents (802.15.4 caps macMaxBE
// at 8); larger values would overflow the Intn(1<<BE) backoff draw.
const MaxBE = 8

// ValidateBEB checks a protocol's binary-exponential-backoff exponent
// options: 0 means "use the default", negatives and values above MaxBE are
// rejected, and the minimum is checked against the maximum after defaulting
// (so minBE=6 with maxBE unset and a default of 5 is rejected too).
func ValidateBEB(proto string, minBE, maxBE, defaultMin, defaultMax int) error {
	if minBE < 0 || maxBE < 0 {
		return fmt.Errorf("%s: backoff exponents must not be negative: MinBE=%d MaxBE=%d", proto, minBE, maxBE)
	}
	if minBE > MaxBE || maxBE > MaxBE {
		return fmt.Errorf("%s: backoff exponents must not exceed %d: MinBE=%d MaxBE=%d", proto, MaxBE, minBE, maxBE)
	}
	if minBE == 0 {
		minBE = defaultMin
	}
	if maxBE == 0 {
		maxBE = defaultMax
	}
	if minBE > maxBE {
		return fmt.Errorf("%s: MinBE=%d exceeds MaxBE=%d (after defaulting)", proto, minBE, maxBE)
	}
	return nil
}

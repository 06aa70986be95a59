package mac

import (
	"errors"
	"strings"
	"testing"

	"qma/internal/frame"
	"qma/internal/sim"
)

// nullEngine is a minimal Engine for registry and Base tests. The mac
// package itself imports no protocol package (they import it), so the
// registry in this test binary contains exactly what the tests register.
type nullEngine struct {
	base Base
	// onTx, when set, receives every transmission outcome.
	onTx func(f *frame.Frame, ctx uint32, success bool)
}

// newNullEngine builds a nullEngine the way every engine embeds its Base.
func newNullEngine(cfg Config) *nullEngine {
	e := &nullEngine{}
	e.base.Init(cfg, e)
	return e
}

func (e *nullEngine) Base() *Base            { return &e.base }
func (e *nullEngine) Deliver(f *frame.Frame) { e.base.Deliver(f) }
func (e *nullEngine) Start()                 {}
func (e *nullEngine) Reboot()                { e.base.Reboot() }
func (e *nullEngine) TxDone(f *frame.Frame, ctx uint32, success bool) {
	if e.onTx != nil {
		e.onTx(f, ctx, success)
	}
}
func (e *nullEngine) Enqueue(f *frame.Frame) bool {
	return e.base.Enqueue(f)
}

type nullOptions struct{ Bad bool }

func init() {
	Register(Protocol{
		Name:    "test-null",
		Aliases: []string{"null"},
		Display: "null MAC",
		Validate: func(opts any) error {
			if opts == nil {
				return nil
			}
			o, ok := opts.(nullOptions)
			if !ok {
				return OptionsError("test-null", opts, nullOptions{})
			}
			if o.Bad {
				return errors.New("test-null: bad option")
			}
			return nil
		},
		New: func(cfg Config, opts any, rng *sim.Rand) Engine {
			return newNullEngine(cfg)
		},
	})
	Register(Protocol{
		Name: "test-bare",
		New: func(cfg Config, opts any, rng *sim.Rand) Engine {
			return newNullEngine(cfg)
		},
	})
}

func TestRegistryLookupAndAliases(t *testing.T) {
	p, ok := Lookup("test-null")
	if !ok || p.Name != "test-null" {
		t.Fatalf("Lookup(test-null) = %v, %v", p, ok)
	}
	if q, ok := Lookup("null"); !ok || q.Name != "test-null" {
		t.Fatalf("alias lookup failed: %v, %v", q, ok)
	}
	if _, ok := Lookup(""); ok {
		t.Error("empty name resolved to a protocol")
	}
	if _, ok := Lookup("token-ring"); ok {
		t.Error("unregistered name resolved")
	}
}

func TestRegistryNamesAreCanonicalAndSorted(t *testing.T) {
	names := Names()
	for i, n := range names {
		if i > 0 && names[i-1] >= n {
			t.Fatalf("Names() not strictly sorted: %v", names)
		}
		if n == "null" {
			t.Error("Names() lists an alias")
		}
	}
	found := false
	for _, n := range names {
		if n == "test-null" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v misses test-null", names)
	}
}

func TestNameString(t *testing.T) {
	if got := Name("test-null").String(); got != "null MAC" {
		t.Errorf("display name = %q", got)
	}
	// Unregistered names fall back to the raw key; a missing Display falls
	// back to the canonical name.
	if got := Name("token-ring").String(); got != "token-ring" {
		t.Errorf("fallback = %q", got)
	}
	if got := Name("test-bare").String(); got != "test-bare" {
		t.Errorf("bare display = %q", got)
	}
}

func testConfig(t *testing.T) Config {
	t.Helper()
	r := newRig(t, 1, nil)
	cfg := r.bases[0].cfg
	cfg.ID = 0
	return cfg
}

func TestRegistryBuild(t *testing.T) {
	cfg := testConfig(t)
	e, err := Build("null", cfg, nil, sim.NewRand(1))
	if err != nil || e == nil {
		t.Fatalf("Build(null) = %v, %v", e, err)
	}
	if _, err := Build("token-ring", cfg, nil, sim.NewRand(1)); err == nil ||
		!strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown protocol error = %v, want the registered list", err)
	}
	if _, err := Build("test-null", cfg, nullOptions{Bad: true}, sim.NewRand(1)); err == nil {
		t.Error("Build accepted options its Validate rejects")
	}
	if _, err := Build("test-null", cfg, 42, sim.NewRand(1)); err == nil {
		t.Error("Build accepted options of a foreign type")
	}
	// A protocol without Validate accepts only nil options.
	if _, err := Build("test-bare", cfg, nil, sim.NewRand(1)); err != nil {
		t.Errorf("Build(test-bare, nil) = %v", err)
	}
	if _, err := Build("test-bare", cfg, nullOptions{}, sim.NewRand(1)); err == nil {
		t.Error("option-less protocol accepted options")
	}
}

func TestRegisterRejectsDuplicatesAndIncomplete(t *testing.T) {
	mustPanic := func(name string, p Protocol) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(p)
	}
	factory := func(cfg Config, opts any, rng *sim.Rand) Engine { return &nullEngine{} }
	mustPanic("duplicate name", Protocol{Name: "test-null", New: factory})
	mustPanic("duplicate alias", Protocol{Name: "test-other", Aliases: []string{"null"}, New: factory})
	mustPanic("missing factory", Protocol{Name: "test-no-factory"})
	mustPanic("missing name", Protocol{New: factory})
}

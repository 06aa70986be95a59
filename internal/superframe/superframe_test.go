package superframe

import (
	"testing"
	"testing/quick"

	"qma/internal/sim"
)

func defaultClock(t *testing.T) *Clock {
	t.Helper()
	return NewClock(DefaultConfig())
}

func TestDefaultConfigMatchesPaperTiming(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if got, want := cfg.SlotDuration(), 7680*sim.Microsecond; got != want {
		t.Errorf("SlotDuration = %v, want %v", got, want)
	}
	if got, want := cfg.SuperframeDuration(), sim.Time(122880); got != want {
		t.Errorf("SuperframeDuration = %v, want %v", got, want)
	}
	if got, want := cfg.CAPDuration(), sim.Time(61440); got != want {
		t.Errorf("CAPDuration = %v, want %v", got, want)
	}
	// 54 subslots of 1120 µs each plus a 960 µs guard fill the CAP.
	if got, want := cfg.SubslotDuration(), sim.Time(1120); got != want {
		t.Errorf("SubslotDuration = %v, want %v", got, want)
	}
	guard := cfg.CAPDuration() - sim.Time(cfg.Subslots)*cfg.SubslotDuration()
	if guard != 960 {
		t.Errorf("CAP guard = %v, want 960µs", guard)
	}
	if got, want := cfg.SuperframesPerMultiframe(), 2; got != want {
		t.Errorf("SuperframesPerMultiframe = %d, want %d", got, want)
	}
	if got, want := cfg.GTSPerMultiframe(), 2*7*16; got != want {
		t.Errorf("GTSPerMultiframe = %d, want %d", got, want)
	}
}

func TestConfigValidateRejectsBadValues(t *testing.T) {
	cases := []Config{
		{SO: -1, MO: 4, Subslots: 54, SubslotSymbols: 70, SymbolDuration: 16},
		{SO: 3, MO: 2, Subslots: 54, SubslotSymbols: 70, SymbolDuration: 16},
		{SO: 3, MO: 15, Subslots: 54, SubslotSymbols: 70, SymbolDuration: 16},
		{SO: 3, MO: 4, Subslots: 0, SubslotSymbols: 70, SymbolDuration: 16},
		{SO: 3, MO: 4, Subslots: 54, SubslotSymbols: 0, SymbolDuration: 16},
		{SO: 3, MO: 4, Subslots: 54, SubslotSymbols: 70, SymbolDuration: 0},
		{SO: 0, MO: 0, Subslots: 54, SubslotSymbols: 70, SymbolDuration: 16}, // subslots do not fit
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, cfg)
		}
	}
}

func TestSubslotMapping(t *testing.T) {
	c := defaultClock(t)
	cfg := c.Config()

	// Before the CAP (beacon slot) there is no subslot.
	if got := c.Subslot(0); got != -1 {
		t.Errorf("Subslot(0) = %d, want -1 (beacon)", got)
	}
	if got := c.Subslot(cfg.CAPStartOffset() - 1); got != -1 {
		t.Errorf("Subslot(just before CAP) = %d, want -1", got)
	}
	// First instant of the CAP is subslot 0.
	if got := c.Subslot(cfg.CAPStartOffset()); got != 0 {
		t.Errorf("Subslot(CAP start) = %d, want 0", got)
	}
	// Last subslot.
	lastStart := cfg.CAPStartOffset() + sim.Time(cfg.Subslots-1)*cfg.SubslotDuration()
	if got := c.Subslot(lastStart); got != cfg.Subslots-1 {
		t.Errorf("Subslot(last start) = %d, want %d", got, cfg.Subslots-1)
	}
	// The guard after the last subslot maps to -1 but is still InCAP.
	guard := cfg.CAPStartOffset() + sim.Time(cfg.Subslots)*cfg.SubslotDuration()
	if got := c.Subslot(guard); got != -1 {
		t.Errorf("Subslot(guard) = %d, want -1", got)
	}
	if !c.InCAP(guard) {
		t.Errorf("InCAP(guard) = false, want true")
	}
	// CFP is not in the CAP.
	if c.InCAP(cfg.CFPStartOffset()) {
		t.Errorf("InCAP(CFP start) = true, want false")
	}
	// Second superframe repeats the pattern.
	if got := c.Subslot(cfg.SuperframeDuration() + cfg.CAPStartOffset()); got != 0 {
		t.Errorf("Subslot(second superframe CAP start) = %d, want 0", got)
	}
}

func TestNextSubslotStartAdvances(t *testing.T) {
	c := defaultClock(t)
	cfg := c.Config()

	// From the beacon slot the next boundary is the CAP start.
	if got, want := c.NextSubslotStart(0), cfg.CAPStartOffset(); got != want {
		t.Errorf("NextSubslotStart(0) = %v, want %v", got, want)
	}
	// From inside subslot 0 the next boundary is subslot 1.
	t0 := cfg.CAPStartOffset()
	if got, want := c.NextSubslotStart(t0+1), t0+cfg.SubslotDuration(); got != want {
		t.Errorf("NextSubslotStart(inside subslot 0) = %v, want %v", got, want)
	}
	// Exactly on a boundary advances to the following boundary (strictly after).
	if got, want := c.NextSubslotStart(t0), t0+cfg.SubslotDuration(); got != want {
		t.Errorf("NextSubslotStart(on boundary) = %v, want %v", got, want)
	}
	// From the last subslot the next boundary is the next superframe's subslot 0.
	last := c.SubslotStart(0, cfg.Subslots-1)
	want := cfg.SuperframeDuration() + cfg.CAPStartOffset()
	if got := c.NextSubslotStart(last + 1); got != want {
		t.Errorf("NextSubslotStart(inside last subslot) = %v, want %v", got, want)
	}
	// From the CFP the next boundary is also the next superframe's subslot 0.
	if got := c.NextSubslotStart(cfg.CFPStartOffset() + 5); got != want {
		t.Errorf("NextSubslotStart(CFP) = %v, want %v", got, want)
	}
}

func TestNextSubslotStartMonotoneProperty(t *testing.T) {
	c := defaultClock(t)
	prop := func(raw uint32) bool {
		now := sim.Time(raw) // arbitrary instant within ~71 minutes
		next := c.NextSubslotStart(now)
		if next <= now {
			return false
		}
		// The returned instant must be a subslot 0..Subslots-1 boundary.
		idx := c.Subslot(next)
		if idx < 0 {
			return false
		}
		return c.SubslotStart(next, idx) == next
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSubslotInverseProperty(t *testing.T) {
	c := defaultClock(t)
	cfg := c.Config()
	prop := func(raw uint32, sub uint8) bool {
		base := sim.Time(raw)
		idx := int(sub) % cfg.Subslots
		start := c.SubslotStart(base, idx)
		// The start of subslot idx must map back to idx and be inside the CAP.
		return c.Subslot(start) == idx && c.InCAP(start)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFitsInCAP(t *testing.T) {
	c := defaultClock(t)
	cfg := c.Config()
	capStart := cfg.CAPStartOffset()
	capEnd := cfg.CFPStartOffset()

	if !c.FitsInCAP(capStart, cfg.CAPDuration()) {
		t.Errorf("full-CAP activity should fit exactly")
	}
	if c.FitsInCAP(capStart, cfg.CAPDuration()+1) {
		t.Errorf("activity longer than CAP must not fit")
	}
	if c.FitsInCAP(capEnd-10, 20) {
		t.Errorf("activity crossing CAP end must not fit")
	}
	if c.FitsInCAP(0, 10) {
		t.Errorf("activity in the beacon slot is not in the CAP")
	}
}

// TestNextCAPStart pins the first CAP start strictly after t at every
// position in the superframe, in the first superframe and a later one.
func TestNextCAPStart(t *testing.T) {
	c := defaultClock(t)
	cfg := c.Config()
	sf := cfg.SuperframeDuration()
	capStart := cfg.CAPStartOffset()
	guard := capStart + sim.Time(cfg.Subslots)*cfg.SubslotDuration()
	capEnd := cfg.CFPStartOffset()
	if guard >= capEnd {
		t.Fatalf("default config leaves no CAP guard: subslots end at %v, CAP at %v", guard, capEnd)
	}
	for _, tc := range []struct {
		name string
		off  sim.Time // offset into the superframe
		want sim.Time // offset from the superframe start
	}{
		{"superframe start", 0, capStart},
		{"beacon slot", capStart - 1, capStart},
		{"at the CAP start", capStart, sf + capStart},
		{"mid-CAP", capStart + cfg.CAPDuration()/2, sf + capStart},
		{"trailing guard", guard, sf + capStart},
		{"at the CAP end", capEnd, sf + capStart},
		{"CFP", capEnd + 1, sf + capStart},
		{"last instant", sf - 1, sf + capStart},
	} {
		for _, base := range []sim.Time{0, 3 * sf} {
			if got := c.NextCAPStart(base + tc.off); got != base+tc.want {
				t.Errorf("%s of superframe at %v: NextCAPStart = %v, want %v", tc.name, base, got, base+tc.want)
			}
		}
	}
}

func TestGTSIndexRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	seen := make(map[int]bool)
	for sf := 0; sf < cfg.SuperframesPerMultiframe(); sf++ {
		for slot := 0; slot < CFPSlots; slot++ {
			for ch := 0; ch < NumChannels; ch++ {
				g := GTS{Superframe: sf, Slot: slot, Channel: ch}
				if !g.Valid(cfg) {
					t.Fatalf("%v should be valid", g)
				}
				idx := g.Index(cfg)
				if idx < 0 || idx >= cfg.GTSPerMultiframe() {
					t.Fatalf("%v index %d out of range", g, idx)
				}
				if seen[idx] {
					t.Fatalf("%v index %d collides", g, idx)
				}
				seen[idx] = true
				if back := GTSFromIndex(cfg, idx); back != g {
					t.Fatalf("round trip %v -> %d -> %v", g, idx, back)
				}
			}
		}
	}
	if len(seen) != cfg.GTSPerMultiframe() {
		t.Fatalf("covered %d indices, want %d", len(seen), cfg.GTSPerMultiframe())
	}
}

func TestGTSValidRejects(t *testing.T) {
	cfg := DefaultConfig()
	bad := []GTS{
		{Superframe: -1}, {Superframe: cfg.SuperframesPerMultiframe()},
		{Slot: -1}, {Slot: CFPSlots},
		{Channel: -1}, {Channel: NumChannels},
	}
	for _, g := range bad {
		if g.Valid(cfg) {
			t.Errorf("%v should be invalid", g)
		}
	}
}

func TestNextGTSStart(t *testing.T) {
	c := defaultClock(t)
	cfg := c.Config()
	g := GTS{Superframe: 1, Slot: 2, Channel: 5}

	first := c.NextGTSStart(0, g)
	want := cfg.SuperframeDuration() + cfg.CFPStartOffset() + 2*cfg.SlotDuration()
	if first != want {
		t.Fatalf("NextGTSStart(0) = %v, want %v", first, want)
	}
	// Strictly-after semantics: asking at the slot start returns the next period.
	second := c.NextGTSStart(first, g)
	if second != first+cfg.MultiframeDuration() {
		t.Fatalf("NextGTSStart(at start) = %v, want %v", second, first+cfg.MultiframeDuration())
	}
	// The returned instant is in the CFP.
	if c.InCAP(first) {
		t.Errorf("GTS start %v must not be in the CAP", first)
	}
}

func TestSuperframeIndexing(t *testing.T) {
	c := defaultClock(t)
	cfg := c.Config()
	d := cfg.SuperframeDuration()

	for i := int64(0); i < 5; i++ {
		at := sim.Time(i)*d + d/2
		if got := c.SuperframeIndex(at); got != i {
			t.Errorf("SuperframeIndex(%v) = %d, want %d", at, got, i)
		}
		if got := c.SuperframeStart(at); got != sim.Time(i)*d {
			t.Errorf("SuperframeStart(%v) = %v, want %v", at, got, sim.Time(i)*d)
		}
		if got, want := c.SuperframeInMultiframe(at), int(i)%2; got != want {
			t.Errorf("SuperframeInMultiframe(%v) = %d, want %d", at, got, want)
		}
	}
	if got := c.MultiframeIndex(cfg.MultiframeDuration() + 1); got != 1 {
		t.Errorf("MultiframeIndex = %d, want 1", got)
	}
}

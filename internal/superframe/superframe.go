// Package superframe implements the IEEE 802.15.4 DSME timing structure the
// paper builds on (Appendix A): beacon slot, contention access period (CAP)
// subdivided into QMA subslots, contention free period (CFP) with guaranteed
// time slots (GTS), and multi-superframes. All nodes share one perfectly
// synchronized clock; the paper's testbed uses beacon synchronization and
// evaluates no sync-error effects.
package superframe

import (
	"fmt"

	"qma/internal/sim"
)

// Structural constants of the 802.15.4 DSME superframe.
const (
	// BaseSlotSymbols is aBaseSlotDuration: 60 symbols.
	BaseSlotSymbols = 60
	// SlotsPerSuperframe is aNumSuperframeSlots: 16.
	SlotsPerSuperframe = 16
	// BeaconSlots is the number of leading slots reserved for the beacon.
	BeaconSlots = 1
	// CAPSlots is the number of contention access period slots (paper §4:
	// "8 CAP slots are further subdivided into 54 subslots").
	CAPSlots = 8
	// CFPSlots is the number of contention free period slots (7 GTS slots).
	CFPSlots = SlotsPerSuperframe - BeaconSlots - CAPSlots
	// DefaultSubslots is the paper's CAP subdivision: 54 subslots.
	DefaultSubslots = 54
	// NumChannels is the number of 2.4 GHz channels available for GTS
	// (channels 11-26).
	NumChannels = 16
)

// Config selects the superframe scaling. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// SO is the superframe order: one slot lasts BaseSlotSymbols * 2^SO
	// symbols. The paper's evaluation uses SO=3 (7.68 ms slots).
	SO int
	// MO is the multi-superframe order: a multi-superframe holds 2^(MO-SO)
	// superframes. MO=4 with SO=3 yields 2 superframes per multi-superframe.
	MO int
	// Subslots is the number of QMA subslots the CAP is divided into.
	Subslots int
	// SubslotSymbols is the length of one subslot in PHY symbols. The default
	// 70 symbols (1120 µs) leaves a 960 µs guard at the CAP end for the
	// paper's SO=3 / 54-subslot configuration (54 × 1120 µs of the
	// 61,440 µs CAP).
	SubslotSymbols int
	// SymbolDuration is the PHY symbol time (16 µs for O-QPSK 2.4 GHz).
	SymbolDuration sim.Time
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation: SO=3, MO=4, 54 subslots of 70 symbols, 16 µs symbols.
func DefaultConfig() Config {
	return Config{SO: 3, MO: 4, Subslots: DefaultSubslots, SubslotSymbols: 70, SymbolDuration: 16}
}

// Validate reports a descriptive error when the configuration is not
// realizable.
func (c Config) Validate() error {
	switch {
	case c.SO < 0 || c.SO > 14:
		return fmt.Errorf("superframe: SO=%d out of range [0,14]", c.SO)
	case c.MO < c.SO || c.MO > 14:
		return fmt.Errorf("superframe: MO=%d must be in [SO=%d,14]", c.MO, c.SO)
	case c.Subslots <= 0:
		return fmt.Errorf("superframe: Subslots=%d must be positive", c.Subslots)
	case c.SubslotSymbols <= 0:
		return fmt.Errorf("superframe: SubslotSymbols=%d must be positive", c.SubslotSymbols)
	case c.SymbolDuration <= 0:
		return fmt.Errorf("superframe: SymbolDuration=%v must be positive", c.SymbolDuration)
	}
	if sim.Time(c.Subslots)*c.SubslotDuration() > c.CAPDuration() {
		return fmt.Errorf("superframe: %d subslots of %d symbols do not fit into the CAP",
			c.Subslots, c.SubslotSymbols)
	}
	return nil
}

// SlotDuration is the length of one of the 16 superframe slots.
func (c Config) SlotDuration() sim.Time {
	return sim.Time(BaseSlotSymbols) * c.SymbolDuration << uint(c.SO)
}

// SuperframeDuration is the length of one superframe (16 slots).
func (c Config) SuperframeDuration() sim.Time {
	return c.SlotDuration() * SlotsPerSuperframe
}

// SuperframesPerMultiframe reports 2^(MO-SO).
func (c Config) SuperframesPerMultiframe() int { return 1 << uint(c.MO-c.SO) }

// MultiframeDuration is the length of one multi-superframe.
func (c Config) MultiframeDuration() sim.Time {
	return c.SuperframeDuration() * sim.Time(c.SuperframesPerMultiframe())
}

// CAPStartOffset is the offset of the CAP from the superframe start (the
// beacon slot precedes it).
func (c Config) CAPStartOffset() sim.Time { return c.SlotDuration() * BeaconSlots }

// CAPDuration is the total CAP length (8 slots).
func (c Config) CAPDuration() sim.Time { return c.SlotDuration() * CAPSlots }

// CFPStartOffset is the offset of the CFP from the superframe start.
func (c Config) CFPStartOffset() sim.Time {
	return c.SlotDuration() * (BeaconSlots + CAPSlots)
}

// SubslotDuration is the length of one QMA subslot. Subslot boundaries lie
// exactly on the symbol grid; whatever the Subslots×SubslotSymbols product
// leaves of the CAP is an idle guard at its end (960 µs for the default
// configuration).
func (c Config) SubslotDuration() sim.Time {
	return sim.Time(c.SubslotSymbols) * c.SymbolDuration
}

// GTSPerSuperframe is the number of (slot, channel) GTS units in one
// superframe's CFP.
func (c Config) GTSPerSuperframe() int { return CFPSlots * NumChannels }

// GTSPerMultiframe is the number of allocatable GTS units in one
// multi-superframe.
func (c Config) GTSPerMultiframe() int {
	return c.GTSPerSuperframe() * c.SuperframesPerMultiframe()
}

// Clock answers "where inside the superframe structure is instant t". It is
// stateless and shared by every node (perfect synchronization). The derived
// durations are precomputed once: every node consults the clock at every
// subslot boundary, so the per-call Config multiplications add up.
type Clock struct {
	cfg Config

	subslotDur sim.Time
	sfDur      sim.Time
	capOff     sim.Time
	cfpOff     sim.Time
	subslots   int
}

// NewClock validates cfg and returns a clock. It panics on an invalid
// configuration; scenario builders validate configs at assembly time.
func NewClock(cfg Config) *Clock {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Clock{
		cfg:        cfg,
		subslotDur: cfg.SubslotDuration(),
		sfDur:      cfg.SuperframeDuration(),
		capOff:     cfg.CAPStartOffset(),
		cfpOff:     cfg.CFPStartOffset(),
		subslots:   cfg.Subslots,
	}
}

// Config returns the clock's configuration.
func (c *Clock) Config() Config { return c.cfg }

// SuperframeIndex reports how many superframes have started up to and
// including instant t.
func (c *Clock) SuperframeIndex(t sim.Time) int64 {
	return int64(t / c.cfg.SuperframeDuration())
}

// SuperframeStart reports the start of the superframe containing t.
func (c *Clock) SuperframeStart(t sim.Time) sim.Time {
	return t - t%c.sfDur
}

// MultiframeIndex reports the multi-superframe containing t.
func (c *Clock) MultiframeIndex(t sim.Time) int64 {
	return int64(t / c.cfg.MultiframeDuration())
}

// SuperframeInMultiframe reports the superframe's position within its
// multi-superframe, in [0, SuperframesPerMultiframe).
func (c *Clock) SuperframeInMultiframe(t sim.Time) int {
	return int(c.SuperframeIndex(t)) % c.cfg.SuperframesPerMultiframe()
}

// InCAP reports whether t lies inside a contention access period, including
// the trailing guard after the last subslot.
func (c *Clock) InCAP(t sim.Time) bool {
	off := t % c.sfDur
	return off >= c.capOff && off < c.cfpOff
}

// Subslot reports the subslot index in [0, Subslots) containing t, or -1 when
// t lies outside the CAP or in the trailing CAP guard.
func (c *Clock) Subslot(t sim.Time) int {
	off := t%c.sfDur - c.capOff
	if off < 0 {
		return -1
	}
	idx := int(off / c.subslotDur)
	if idx >= c.subslots {
		return -1
	}
	return idx
}

// SubslotStart reports the absolute start time of subslot idx within the
// superframe containing t.
func (c *Clock) SubslotStart(t sim.Time, idx int) sim.Time {
	return c.SuperframeStart(t) + c.cfg.CAPStartOffset() + sim.Time(idx)*c.cfg.SubslotDuration()
}

// NextSubslotStart reports the first subslot boundary strictly after t,
// rolling into the next superframe's subslot 0 after the CAP ends.
func (c *Clock) NextSubslotStart(t sim.Time) sim.Time {
	sf := c.SuperframeStart(t)
	capStart := sf + c.capOff
	if t < capStart {
		return capStart
	}
	idx := (t - capStart) / c.subslotDur
	next := capStart + (idx+1)*c.subslotDur
	if int(idx+1) >= c.subslots {
		return sf + c.sfDur + c.capOff
	}
	return next
}

// NextBoundary advances from one subslot boundary to the next without any
// division: t must be the start of subslot idx (as previously reported by
// NextSubslotStart/Subslot or by NextBoundary itself). It returns the next
// boundary and its subslot index, rolling into the next superframe's
// subslot 0 after the last subslot. This is the per-tick fast path of the
// MAC engines; results are bit-identical to NextSubslotStart(t).
func (c *Clock) NextBoundary(t sim.Time, idx int) (sim.Time, int) {
	if idx+1 < c.subslots {
		return t + c.subslotDur, idx + 1
	}
	// t - idx*subslotDur is the CAP start; the next boundary is the CAP
	// start one superframe later.
	return t - sim.Time(idx)*c.subslotDur + c.sfDur, 0
}

// CAPEnd reports the end of the CAP of the superframe containing t (valid
// whether or not t itself is inside the CAP).
func (c *Clock) CAPEnd(t sim.Time) sim.Time {
	return c.SuperframeStart(t) + c.cfpOff
}

// NextCAPStart reports the first CAP start strictly after t: the CAP start
// of t's superframe while t lies before it, the next superframe's from that
// instant on.
func (c *Clock) NextCAPStart(t sim.Time) sim.Time {
	capStart := c.SuperframeStart(t) + c.capOff
	if t < capStart {
		return capStart
	}
	return capStart + c.sfDur
}

// FitsInCAP reports whether an activity of duration d starting at t completes
// before the CAP of t's superframe ends. Transactions that do not fit must be
// deferred (802.15.4 rule).
func (c *Clock) FitsInCAP(t sim.Time, d sim.Time) bool {
	return c.InCAP(t) && t+d <= c.CAPEnd(t)
}

// GTS identifies one guaranteed time slot: a (superframe, slot, channel)
// coordinate inside the multi-superframe, following the DSME slot grid.
type GTS struct {
	// Superframe is the superframe index within the multi-superframe.
	Superframe int
	// Slot is the CFP slot index in [0, CFPSlots).
	Slot int
	// Channel is the channel offset in [0, NumChannels).
	Channel int
}

// Valid reports whether the coordinate lies on cfg's slot grid.
func (g GTS) Valid(cfg Config) bool {
	return g.Superframe >= 0 && g.Superframe < cfg.SuperframesPerMultiframe() &&
		g.Slot >= 0 && g.Slot < CFPSlots &&
		g.Channel >= 0 && g.Channel < NumChannels
}

// Index maps the coordinate to a dense index in [0, GTSPerMultiframe).
func (g GTS) Index(cfg Config) int {
	return (g.Superframe*CFPSlots+g.Slot)*NumChannels + g.Channel
}

// GTSFromIndex is the inverse of GTS.Index.
func GTSFromIndex(cfg Config, idx int) GTS {
	ch := idx % NumChannels
	rest := idx / NumChannels
	return GTS{Superframe: rest / CFPSlots, Slot: rest % CFPSlots, Channel: ch}
}

// String implements fmt.Stringer.
func (g GTS) String() string {
	return fmt.Sprintf("GTS(sf=%d slot=%d ch=%d)", g.Superframe, g.Slot, g.Channel)
}

// NextGTSStart reports the first instant strictly after t at which the given
// GTS begins, honouring the multi-superframe period.
func (c *Clock) NextGTSStart(t sim.Time, g GTS) sim.Time {
	period := c.cfg.MultiframeDuration()
	offset := sim.Time(g.Superframe)*c.cfg.SuperframeDuration() +
		c.cfg.CFPStartOffset() + sim.Time(g.Slot)*c.cfg.SlotDuration()
	base := t - t%period + offset
	for base <= t {
		base += period
	}
	return base
}

// GTSDuration is the length of one GTS (one superframe slot).
func (c *Clock) GTSDuration() sim.Time { return c.cfg.SlotDuration() }

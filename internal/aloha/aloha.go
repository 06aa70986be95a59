// Package aloha implements the oldest contention-based channel access
// discipline as a baseline for QMA: pure ALOHA (transmit the moment data is
// available, no carrier sensing at all) and slotted ALOHA (transmissions
// aligned to the CAP subslot grid, which halves the vulnerable period). Both
// engines embed the shared MAC base of internal/mac, so queueing, immediate
// acknowledgements, retransmission accounting and duplicate rejection are
// identical to QMA and CSMA/CA — the comparison isolates the access timing,
// exactly as the paper frames "contention-based wireless channel access
// methods like CSMA and ALOHA" (§1).
//
// Collision recovery uses the 802.15.4 binary exponential backoff constants
// (BE in [macMinBE, macMaxBE]) over aUnitBackoffPeriod for the pure variant
// and over whole subslots for the slotted variant, but — unlike CSMA/CA —
// there is no CCA and no macMaxCSMABackoffs cap: an ALOHA transmitter never
// declares a channel access failure, it keeps retransmitting until the
// shared retry policy (NR) drops the frame.
package aloha

import (
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/sim"
)

// Canonical registry keys of the two ALOHA variants.
const (
	ProtoPure    = "aloha"
	ProtoSlotted = "slotted-aloha"
)

// UnitBackoffPeriod is the pure-ALOHA retransmission backoff quantum:
// aUnitBackoffPeriod (20 symbols = 320 µs), shared with CSMA/CA so the BEB
// delays of the two families are directly comparable.
const UnitBackoffPeriod = 20 * frame.SymbolDuration

// Default binary exponential backoff exponents (802.15.4 macMinBE/macMaxBE).
const (
	DefaultMinBE = 3
	DefaultMaxBE = 5
)

// Variant selects the ALOHA flavour.
type Variant uint8

const (
	// Pure transmits immediately when a frame is available.
	Pure Variant = iota
	// Slotted aligns every transmission to a CAP subslot boundary.
	Slotted
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == Slotted {
		return "slotted"
	}
	return "pure"
}

// Options tunes an ALOHA engine through the protocol registry. The zero
// value (or nil options) selects the defaults.
type Options struct {
	// MinBE and MaxBE bound the retransmission backoff exponent when
	// positive (defaults 3 and 5).
	MinBE, MaxBE int
}

// Config assembles an ALOHA engine.
type Config struct {
	// MAC configures the shared MAC base.
	MAC mac.Config
	// Variant selects pure or slotted behaviour.
	Variant Variant
	// Rng drives the random retransmission backoff; required.
	Rng *sim.Rand
	// Options tunes the backoff (zero fields select the defaults).
	Options
}

// Stats aggregates ALOHA-specific counters.
type Stats struct {
	// Backoffs counts retransmission backoffs started after a failed
	// unicast.
	Backoffs uint64
	// Deferrals counts transmissions postponed because the transaction did
	// not fit into the remaining CAP (or arrived outside it).
	Deferrals uint64
	// BusyWaits counts transmissions postponed because the node itself was
	// mid-activity (typically an immediate-ACK duty).
	BusyWaits uint64
}

// The steps an ALOHA transaction waits for (mac.Access.Await).
const (
	// stepSend retries the pure-ALOHA transmit path after a busy wait, a
	// deferral or a retransmission backoff.
	stepSend = iota
	// stepSlot attempts the slotted-ALOHA transmission on a subslot
	// boundary.
	stepSlot
)

// Engine is one node's ALOHA MAC. The embedded mac.Access runs its
// transactions.
type Engine struct {
	mac.Access
	cfg Config

	stats Stats

	// f is the running transaction's frame.
	f *frame.Frame
}

var _ mac.Contender = (*Engine)(nil)

// New assembles an engine from cfg, panicking on an invalid configuration
// (scenario assembly is programmer-controlled).
func New(cfg Config) *Engine {
	if cfg.Rng == nil {
		panic("aloha: Rng is required")
	}
	if cfg.MinBE <= 0 {
		cfg.MinBE = DefaultMinBE
	}
	if cfg.MaxBE <= 0 {
		cfg.MaxBE = DefaultMaxBE
	}
	e := &Engine{cfg: cfg}
	e.Init(cfg.MAC, e)
	return e
}

// EngineStats returns a copy of the ALOHA-specific counters.
func (e *Engine) EngineStats() Stats { return e.stats }

// BeginAccess implements mac.Contender: it takes on the queue head and
// transmits it now (pure) or on the next subslot boundary (slotted).
func (e *Engine) BeginAccess() {
	e.f = e.Base().Queue().Head()
	if e.cfg.Variant == Slotted {
		e.armSlot()
	} else {
		e.send()
	}
}

// ResumeAccess implements mac.Contender: it runs the step the transaction
// was waiting for.
func (e *Engine) ResumeAccess(step int) {
	if step == stepSlot {
		e.fireSlot()
	} else {
		e.send()
	}
}

// send is the pure-ALOHA transmit path: transmit now unless the node is
// mid-activity or the transaction does not fit into the remaining CAP.
func (e *Engine) send() {
	now := e.Base().Kernel().Now()
	if e.Base().Busy() {
		e.stats.BusyWaits++
		e.Await(e.Base().BusyUntil(), stepSend)
		return
	}
	if !e.Base().Clock().FitsInCAP(now, e.f.ExchangeDuration()) {
		e.stats.Deferrals++
		e.Await(e.Base().Clock().NextCAPStart(now), stepSend)
		return
	}
	e.transmit(e.f)
}

// armSlot schedules the slotted-ALOHA transmit attempt for the next subslot
// boundary (rolling into the next CAP automatically).
func (e *Engine) armSlot() {
	e.Await(e.Base().Clock().NextSubslotStart(e.Base().Kernel().Now()), stepSlot)
}

// fireSlot attempts a transmission exactly on a subslot boundary.
func (e *Engine) fireSlot() {
	now := e.Base().Kernel().Now()
	if e.Base().Busy() {
		e.stats.BusyWaits++
		e.armSlot()
		return
	}
	if !e.Base().Clock().FitsInCAP(now, e.f.ExchangeDuration()) {
		e.stats.Deferrals++
		e.armSlot()
		return
	}
	e.transmit(e.f)
}

// transmit puts f on the air; TxDone routes the outcome through the shared
// retry policy.
func (e *Engine) transmit(f *frame.Frame) { e.Base().SendFrame(f) }

// TxDone implements mac.Engine: a failed unicast retransmits after a random
// binary exponential backoff until NR is exhausted.
func (e *Engine) TxDone(f *frame.Frame, _ uint32, success bool) {
	if e.Base().FinishFrame(f, success) {
		e.Done()
		return
	}
	e.backoff()
}

// backoff delays the retransmission of the transaction's frame. The
// exponent grows with the frame's retry count from MinBE to MaxBE; the
// delay is at least one unit so a collision is never replayed verbatim at
// the same instant.
func (e *Engine) backoff() {
	e.stats.Backoffs++
	be := e.cfg.MinBE + int(e.f.Retries) - 1
	if be > e.cfg.MaxBE {
		be = e.cfg.MaxBE
	}
	units := sim.Time(1 + e.cfg.Rng.Intn(1<<uint(be)))
	if e.cfg.Variant == Slotted {
		// Skip a random number of subslot boundaries, pausing across CAP
		// gaps automatically.
		target := e.Base().Kernel().Now()
		for i := sim.Time(0); i < units; i++ {
			target = e.Base().Clock().NextSubslotStart(target)
		}
		e.Await(target, stepSlot)
		return
	}
	e.Await(e.Base().Kernel().Now()+units*UnitBackoffPeriod, stepSend)
}

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
	// MinBE and MaxBE override the backoff exponents when positive.
	MinBE, MaxBE int
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

// step names the continuation an ALOHA transaction is waiting for.
type step uint8

const (
	// stepRetry re-attempts access once an access-class barring backoff has
	// passed.
	stepRetry step = iota
	// stepSend retries the pure-ALOHA transmit path after a busy wait, a
	// deferral or a retransmission backoff.
	stepSend
	// stepSlot attempts the slotted-ALOHA transmission on a subslot
	// boundary.
	stepSlot
)

// Engine is one node's ALOHA MAC.
type Engine struct {
	base mac.Base
	cfg  Config

	stats Stats

	// inTransaction guards against starting two concurrent transactions.
	inTransaction bool

	// f and step are the running transaction's context: its frame and the
	// step the engine waits for, which next schedules through alohaResume.
	f    *frame.Frame
	step step
	next mac.Continuation
}

var _ mac.Engine = (*Engine)(nil)

// New assembles an engine from cfg, panicking on an invalid configuration
// (scenario assembly is programmer-controlled).
func New(cfg Config) *Engine {
	if cfg.Rng == nil {
		panic("aloha: Rng is required")
	}
	if cfg.MAC.Clock == nil {
		panic("aloha: MAC.Clock is required")
	}
	if cfg.MinBE <= 0 {
		cfg.MinBE = DefaultMinBE
	}
	if cfg.MaxBE <= 0 {
		cfg.MaxBE = DefaultMaxBE
	}
	if cfg.MAC.OnAccept != nil {
		panic("aloha: MAC.OnAccept is owned by the engine")
	}
	e := &Engine{cfg: cfg}
	cfg.MAC.OnAccept = e.kick
	e.base.Init(cfg.MAC, e)
	e.next.Init(cfg.MAC.Kernel, alohaResume, e)
	return e
}

// Base implements mac.Engine.
func (e *Engine) Base() *mac.Base { return &e.base }

// Deliver implements radio.Handler by delegating to the shared receive path.
func (e *Engine) Deliver(f *frame.Frame) { e.base.Deliver(f) }

// EngineStats returns a copy of the ALOHA-specific counters.
func (e *Engine) EngineStats() Stats { return e.stats }

// Start implements mac.Engine.
func (e *Engine) Start() { e.kick() }

// Enqueue implements mac.Engine, starting a transaction when idle.
func (e *Engine) Enqueue(f *frame.Frame) bool {
	ok := e.base.Enqueue(f)
	if ok {
		e.kick()
	}
	return ok
}

// Reboot implements mac.Engine: wipe the shared MAC state and the
// transaction flag, orphan the step in flight (it still fires, as a no-op,
// so event counts do not depend on the reboot) and resume with whatever
// traffic arrives next.
func (e *Engine) Reboot() {
	e.base.Reboot()
	e.inTransaction = false
	e.next.Orphan()
	e.kick()
}

// kick starts a transaction for the queue head if none is running.
func (e *Engine) kick() {
	if e.inTransaction || e.base.Queue().Empty() {
		return
	}
	if barred, retryAt := e.base.AccessBarred(); barred {
		// Access-class barring: hold the transaction slot and retry once the
		// barring backoff has passed (a fresh Bernoulli draw happens then).
		e.inTransaction = true
		e.await(retryAt, stepRetry)
		return
	}
	e.inTransaction = true
	e.f = e.base.Queue().Head()
	if e.cfg.Variant == Slotted {
		e.armSlot()
	} else {
		e.send()
	}
}

// alohaResume is the long-lived kernel callback behind every ALOHA step.
func alohaResume(a any) { a.(*Engine).resume() }

// await schedules step s of the running transaction at the absolute
// instant t.
func (e *Engine) await(t sim.Time, s step) {
	e.step = s
	e.next.At(t)
}

// resume runs the step the transaction was waiting for.
func (e *Engine) resume() {
	switch e.step {
	case stepRetry:
		e.inTransaction = false
		e.kick()
	case stepSend:
		e.send()
	case stepSlot:
		e.fireSlot()
	}
}

// transactionCost is the CAP time one attempt occupies: the frame itself
// and, for unicasts, the ACK exchange.
func (e *Engine) transactionCost(f *frame.Frame) sim.Time {
	cost := f.Duration()
	if !f.IsBroadcast() {
		cost += frame.AckWait
	}
	return cost
}

// nextCAPStart reports the first CAP start at or after now: this
// superframe's if the CAP has not begun yet, the next superframe's
// otherwise.
func (e *Engine) nextCAPStart(now sim.Time) sim.Time {
	clk := e.base.Clock()
	start := clk.CAPEnd(now) - clk.Config().CAPDuration()
	if now >= start {
		start = clk.SuperframeStart(now) + clk.Config().SuperframeDuration() + clk.Config().CAPStartOffset()
	}
	return start
}

// send is the pure-ALOHA transmit path: transmit now unless the node is
// mid-activity or the transaction does not fit into the remaining CAP.
func (e *Engine) send() {
	now := e.base.Kernel().Now()
	if e.base.Busy() {
		e.stats.BusyWaits++
		e.await(e.base.BusyUntil(), stepSend)
		return
	}
	if !e.base.Clock().FitsInCAP(now, e.transactionCost(e.f)) {
		e.stats.Deferrals++
		e.await(e.nextCAPStart(now), stepSend)
		return
	}
	e.transmit(e.f)
}

// armSlot schedules the slotted-ALOHA transmit attempt for the next subslot
// boundary (rolling into the next CAP automatically).
func (e *Engine) armSlot() {
	e.await(e.base.Clock().NextSubslotStart(e.base.Kernel().Now()), stepSlot)
}

// fireSlot attempts a transmission exactly on a subslot boundary.
func (e *Engine) fireSlot() {
	now := e.base.Kernel().Now()
	if e.base.Busy() {
		e.stats.BusyWaits++
		e.armSlot()
		return
	}
	if !e.base.Clock().FitsInCAP(now, e.transactionCost(e.f)) {
		e.stats.Deferrals++
		e.armSlot()
		return
	}
	e.transmit(e.f)
}

// transmit puts f on the air; TxDone routes the outcome through the shared
// retry policy.
func (e *Engine) transmit(f *frame.Frame) { e.base.SendFrame(f) }

// TxDone implements mac.Engine: a failed unicast retransmits after a random
// binary exponential backoff until NR is exhausted.
func (e *Engine) TxDone(f *frame.Frame, _ uint32, success bool) {
	if e.base.FinishFrame(f, success) {
		e.inTransaction = false
		e.kick()
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
		target := e.base.Kernel().Now()
		for i := sim.Time(0); i < units; i++ {
			target = e.base.Clock().NextSubslotStart(target)
		}
		e.await(target, stepSlot)
		return
	}
	e.await(e.base.Kernel().Now()+units*UnitBackoffPeriod, stepSend)
}

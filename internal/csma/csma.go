// Package csma implements the two IEEE 802.15.4 channel access baselines the
// paper evaluates QMA against (§6): unslotted CSMA/CA (binary exponential
// backoff, single CCA) and slotted CSMA/CA (backoff-period alignment, double
// CCA with CW=2). Both engines share the MAC base of internal/mac, so the
// comparison with QMA differs only in the access discipline.
package csma

import (
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/sim"
)

// 802.15.4 CSMA/CA constants (IEEE Std 802.15.4-2020, §6.2.5).
const (
	// UnitBackoffPeriod is aUnitBackoffPeriod: 20 symbols = 320 µs.
	UnitBackoffPeriod = 20 * frame.SymbolDuration
	// MacMinBE is the default minimum backoff exponent.
	MacMinBE = 3
	// MacMaxBE is the default maximum backoff exponent.
	MacMaxBE = 5
	// MacMaxCSMABackoffs bounds the number of busy-CCA backoff rounds before
	// the algorithm declares a channel access failure.
	MacMaxCSMABackoffs = 4
)

// Variant selects the CSMA/CA flavour.
type Variant uint8

const (
	// Unslotted is the nonbeacon-style algorithm: one CCA after a random
	// backoff delay.
	Unslotted Variant = iota
	// Slotted aligns backoff periods to the CAP grid and requires two clear
	// CCAs (CW = 2) on consecutive backoff boundaries.
	Slotted
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == Slotted {
		return "slotted"
	}
	return "unslotted"
}

// Config assembles a CSMA/CA engine.
type Config struct {
	// MAC configures the shared MAC base.
	MAC mac.Config
	// Variant selects slotted or unslotted behaviour.
	Variant Variant
	// Rng drives the random backoff; required.
	Rng *sim.Rand
	// MinBE, MaxBE and MaxBackoffs override the standard's defaults when
	// positive.
	MinBE, MaxBE, MaxBackoffs int
}

// Stats aggregates CSMA-specific counters.
type Stats struct {
	// Backoffs counts random backoff rounds started.
	Backoffs uint64
	// CCAAttempts counts CCA windows evaluated.
	CCAAttempts uint64
	// CCABusy counts CCAs that found the channel busy.
	CCABusy uint64
	// AccessFailures counts transactions abandoned after MaxBackoffs.
	AccessFailures uint64
	// Deferrals counts transactions postponed to the next CAP.
	Deferrals uint64
}

// Engine is one node's CSMA/CA MAC.
type Engine struct {
	base mac.Base
	cfg  Config

	stats Stats

	// inTransaction guards against starting two concurrent transactions.
	inTransaction bool

	// epoch counts power-cycle faults (mac.Rebooter); see at().
	epoch uint32
}

var _ mac.Engine = (*Engine)(nil)

// New assembles an engine from cfg, panicking on an invalid configuration.
func New(cfg Config) *Engine {
	if cfg.Rng == nil {
		panic("csma: Rng is required")
	}
	if cfg.MAC.Clock == nil {
		panic("csma: MAC.Clock is required")
	}
	if cfg.MinBE <= 0 {
		cfg.MinBE = MacMinBE
	}
	if cfg.MaxBE <= 0 {
		cfg.MaxBE = MacMaxBE
	}
	if cfg.MaxBackoffs <= 0 {
		cfg.MaxBackoffs = MacMaxCSMABackoffs
	}
	if cfg.MAC.OnAccept != nil {
		panic("csma: MAC.OnAccept is owned by the engine")
	}
	e := &Engine{cfg: cfg}
	cfg.MAC.OnAccept = e.kick
	e.base.Init(cfg.MAC)
	return e
}

// Base implements mac.Engine.
func (e *Engine) Base() *mac.Base { return &e.base }

// Deliver implements radio.Handler by delegating to the shared receive path.
func (e *Engine) Deliver(f *frame.Frame) { e.base.Deliver(f) }

// EngineStats returns a copy of the CSMA-specific counters.
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

// Reboot implements mac.Rebooter: wipe the shared MAC state and the
// transaction flag (backoff exponent and NB live only in cancelled
// closures), then resume with whatever traffic arrives next.
func (e *Engine) Reboot() {
	e.base.Reboot()
	e.inTransaction = false
	e.epoch++
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
		// The reboot-epoch guard in at() keeps a power cycle from re-kicking
		// into a flushed queue.
		e.inTransaction = true
		e.at(retryAt, func() {
			e.inTransaction = false
			e.kick()
		})
		return
	}
	e.inTransaction = true
	e.beginTransaction()
}

// beginTransaction starts the CSMA/CA algorithm for the current queue head
// with fresh NB/BE state.
func (e *Engine) beginTransaction() {
	f := e.base.Queue().Head()
	if f == nil {
		e.inTransaction = false
		return
	}
	if e.cfg.Variant == Slotted {
		e.slottedBackoff(f, 0, e.cfg.MinBE)
	} else {
		e.unslottedBackoff(f, 0, e.cfg.MinBE)
	}
}

// transactionCost is the CAP time one attempt needs from the CCA start:
// CCA window(s), the frame itself and, for unicasts, the ACK exchange.
func (e *Engine) transactionCost(f *frame.Frame, ccas int) sim.Time {
	cost := sim.Time(ccas)*frame.CCADuration + f.Duration()
	if !f.IsBroadcast() {
		cost += frame.AckWait
	}
	return cost
}

// at schedules fn at the absolute instant t, bound to the engine's current
// reboot epoch: a power-cycle fault (mac.Rebooter) bumps the epoch, turning
// every in-flight continuation — backoff expiries, CCA completions, slot
// boundaries — into a no-op instead of letting it operate on a flushed
// queue. Without faults the epoch never changes and the guard is a single
// always-true comparison.
func (e *Engine) at(t sim.Time, fn func()) {
	ep := e.epoch
	e.base.Kernel().At(t, func() {
		if e.epoch == ep {
			fn()
		}
	})
}

// ---- Unslotted variant -------------------------------------------------

func (e *Engine) unslottedBackoff(f *frame.Frame, nb, be int) {
	e.stats.Backoffs++
	delay := sim.Time(e.cfg.Rng.Intn(1<<uint(be))) * UnitBackoffPeriod
	e.at(e.base.Kernel().Now()+delay, func() { e.unslottedCCA(f, nb, be) })
}

// unslottedCCA samples the channel at the end of one CCA window, deferring
// into the next CAP when the transaction no longer fits (802.15.4: a CAP
// transaction must complete before the CFP begins).
func (e *Engine) unslottedCCA(f *frame.Frame, nb, be int) {
	now := e.base.Kernel().Now()
	clk := e.base.Clock()
	if !clk.FitsInCAP(now, e.transactionCost(f, 1)) {
		e.stats.Deferrals++
		next := clk.CAPEnd(now) - clk.Config().CAPDuration() // CAP start of this superframe
		if now >= next {
			next = clk.SuperframeStart(now) + clk.Config().SuperframeDuration() + clk.Config().CAPStartOffset()
		}
		e.at(next, func() { e.unslottedCCA(f, nb, be) })
		return
	}
	e.base.ExtendBusy(now + frame.CCADuration)
	e.at(now+frame.CCADuration, func() {
		e.stats.CCAAttempts++
		if e.base.Medium().CCA(e.base.ID()) && !e.base.Busy() {
			e.transmit(f)
			return
		}
		e.stats.CCABusy++
		nb++
		if be < e.cfg.MaxBE {
			be++
		}
		if nb > e.cfg.MaxBackoffs {
			e.accessFailure(f)
			return
		}
		e.unslottedBackoff(f, nb, be)
	})
}

// ---- Slotted variant ----------------------------------------------------

// nextBoundary reports the first backoff-period boundary at or after t,
// measured from the CAP start of t's superframe. Outside the CAP it reports
// the next CAP start.
func (e *Engine) nextBoundary(t sim.Time) sim.Time {
	clk := e.base.Clock()
	cfg := clk.Config()
	capStart := clk.SuperframeStart(t) + cfg.CAPStartOffset()
	if t < capStart {
		return capStart
	}
	capEnd := clk.CAPEnd(t)
	if t >= capEnd {
		return clk.SuperframeStart(t) + cfg.SuperframeDuration() + cfg.CAPStartOffset()
	}
	off := t - capStart
	n := (off + UnitBackoffPeriod - 1) / UnitBackoffPeriod
	b := capStart + n*UnitBackoffPeriod
	if b >= capEnd {
		return clk.SuperframeStart(t) + cfg.SuperframeDuration() + cfg.CAPStartOffset()
	}
	return b
}

func (e *Engine) slottedBackoff(f *frame.Frame, nb, be int) {
	e.stats.Backoffs++
	periods := e.cfg.Rng.Intn(1 << uint(be))
	start := e.nextBoundary(e.base.Kernel().Now())
	target := start + sim.Time(periods)*UnitBackoffPeriod
	if !e.base.Clock().InCAP(target) || target >= e.base.Clock().CAPEnd(start) {
		// The delay runs past the CAP: the countdown pauses and resumes in
		// the next CAP (remaining periods carried over).
		capEnd := e.base.Clock().CAPEnd(start)
		remaining := (target - capEnd + UnitBackoffPeriod - 1) / UnitBackoffPeriod
		nextCAP := e.base.Clock().SuperframeStart(start) +
			e.base.Clock().Config().SuperframeDuration() +
			e.base.Clock().Config().CAPStartOffset()
		target = nextCAP + remaining*UnitBackoffPeriod
	}
	e.at(target, func() { e.slottedCCA(f, nb, be, 2) })
}

// slottedCCA performs the CW-counted CCA sequence on backoff boundaries.
func (e *Engine) slottedCCA(f *frame.Frame, nb, be, cw int) {
	now := e.base.Kernel().Now()
	clk := e.base.Clock()
	// The remaining CCA boundaries plus the frame and ACK must fit before
	// the CAP ends, otherwise the transaction is paused until the next CAP
	// (CW resets). Each remaining CCA occupies a full backoff period because
	// the transmission starts on the boundary after the last CCA.
	cost := sim.Time(cw)*UnitBackoffPeriod + f.Duration()
	if !f.IsBroadcast() {
		cost += frame.AckWait
	}
	if !clk.FitsInCAP(now, cost) {
		e.stats.Deferrals++
		next := clk.SuperframeStart(now) + clk.Config().SuperframeDuration() + clk.Config().CAPStartOffset()
		e.at(next, func() { e.slottedCCA(f, nb, be, 2) })
		return
	}
	e.base.ExtendBusy(now + frame.CCADuration)
	e.at(now+frame.CCADuration, func() {
		e.stats.CCAAttempts++
		if !e.base.Medium().CCA(e.base.ID()) || e.base.Busy() {
			e.stats.CCABusy++
			nb++
			if be < e.cfg.MaxBE {
				be++
			}
			if nb > e.cfg.MaxBackoffs {
				e.accessFailure(f)
				return
			}
			e.slottedBackoff(f, nb, be)
			return
		}
		if cw > 1 {
			// First CCA clear: repeat on the next backoff boundary.
			e.at(e.nextBoundary(e.base.Kernel().Now()+1), func() { e.slottedCCA(f, nb, be, cw-1) })
			return
		}
		// Second CCA clear: transmit on the next boundary.
		e.at(e.nextBoundary(e.base.Kernel().Now()+1), func() { e.transmit(f) })
	})
}

// ---- Shared tail --------------------------------------------------------

// transmit puts f on the air and routes the outcome through the retry
// policy: a failed unicast restarts the whole CSMA algorithm (fresh NB/BE)
// until mac's MaxRetries is exhausted.
func (e *Engine) transmit(f *frame.Frame) {
	e.base.SendFrame(f, func(success bool) {
		e.base.FinishFrame(f, success)
		e.inTransaction = false
		e.kick()
	})
}

// accessFailure abandons the transaction after MaxBackoffs busy CCAs.
func (e *Engine) accessFailure(f *frame.Frame) {
	e.stats.AccessFailures++
	e.base.DropCSMAFailure(f)
	e.inTransaction = false
	e.kick()
}
